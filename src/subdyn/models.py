"""Hamiltonian builders for the three reference interaction classes.

Each builder returns the free part H0 and the interaction part H1 separately;
the full Hamiltonian is H0 + lam * H1. Basis ordering is lexicographic over
the declared tensor factors (atom states in label order, field occupation
ascending, bath occupations ascending) and is published in basis_labels.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Sequence

import numpy as np

from .linalg import is_hermitian, tensor

MODEL_KINDS = ("diagonal", "triangular", "general")

# Atom conventions. The two-level models label states j in {1, 2} with
# sigma_z = |2><2| - |1><1| (eigenvalues -1, +1). The two-atom model labels
# states +/- with S_z = diag(+1/2, -1/2), which is what reproduces the
# documented three-state block entries at resonant atom frequencies.
SIGMA_Z_TWO_LEVEL = np.diag([-1.0, 1.0]).astype(np.complex128)
S_Z = np.diag([0.5, -0.5]).astype(np.complex128)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_PLUS = SIGMA_MINUS.T.copy()


def number_op(dim: int) -> np.ndarray:
    return np.diag(np.arange(dim, dtype=np.float64)).astype(np.complex128)


def lowering_op(dim: int) -> np.ndarray:
    """Bosonic annihilation operator truncated to the given dimension."""
    a = np.zeros((dim, dim), dtype=np.complex128)
    for n in range(1, dim):
        a[n - 1, n] = math.sqrt(n)
    return a


@dataclasses.dataclass(frozen=True)
class ModelSpec:
    """Declarative description of one model instance.

    Parameters
    ----------
    kind : str
        One of "diagonal", "triangular", "general".
    omega0 : float
        Two-level splitting (diagonal/triangular kinds).
    omega : float
        Field mode frequency.
    omega_atoms : tuple of float
        Atom frequencies (omega_1, omega_2) for the general kind.
    g : float
        System coupling constant.
    lam : float
        Interaction scale multiplying H1 when the full Hamiltonian is formed.
    bath : tuple of (float, float)
        Bath modes as (omega_k, g_k) pairs (general kind only).
    fock_cutoff : int
        Highest field occupation kept (inclusive).
    bath_cutoff : int
        Highest bath occupation kept per mode (inclusive).
    hermitian_variant : bool
        Triangular kind only: add the mirrored raising hops so H1 is
        Hermitian instead of the literal one-sided form.
    diagonal_in_free : bool
        Triangular kind only: assign the diagonal part of the interaction
        table to H0, leaving H1 strictly one-sided.
    """

    kind: str
    omega0: float = 1.0
    omega: float = 1.0
    omega_atoms: tuple[float, float] = (1.0, 1.0)
    g: float = 0.5
    lam: float = 1.0
    bath: tuple[tuple[float, float], ...] = ()
    fock_cutoff: int = 1
    bath_cutoff: int = 1
    hermitian_variant: bool = False
    diagonal_in_free: bool = False

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}, expected one of {MODEL_KINDS}")
        if self.fock_cutoff < 0 or self.bath_cutoff < 0:
            raise ValueError("cutoffs must be non-negative")
        if (self.hermitian_variant or self.diagonal_in_free) and self.kind != "triangular":
            raise ValueError("hermitian_variant/diagonal_in_free apply to the triangular kind only")
        if self.kind == "general" and len(self.omega_atoms) != 2:
            raise ValueError("general kind needs exactly two atom frequencies")
        for mode in self.bath:
            if len(mode) != 2:
                raise ValueError("bath modes are (omega_k, g_k) pairs")

    @property
    def dim(self) -> int:
        nf = self.fock_cutoff + 1
        if self.kind in ("diagonal", "triangular"):
            return 2 * nf
        nb = self.bath_cutoff + 1
        return 4 * nf * nb ** len(self.bath)

    @property
    def one_sided_interaction(self) -> bool:
        """Whether order 2's gather at eta > 0 (subdynamics._pair_sums)
        weighs no pair of the pairings kappa or of the canonical state:
        true of the diagonal kind, whose interaction has no hop, and of the
        triangular kind without hermitian_variant, whose hops only lower
        the ladder, so no hop meets a hop back and none leaves the
        canonical state over the field vacuum.
        """
        return self.kind == "diagonal" or (self.kind == "triangular"
                                           and not self.hermitian_variant)


@dataclasses.dataclass(frozen=True)
class ModelOperators:
    """Built operators for a model instance.

    h0 and h1 are dense matrices in the published basis ordering. h1 of the
    triangular kind is intentionally non-Hermitian when built literally;
    hermitian_h1 records which case holds.
    """

    spec: ModelSpec
    h0: np.ndarray
    h1: np.ndarray
    basis_labels: tuple[tuple, ...]
    hermitian_h1: bool

    @property
    def dim(self) -> int:
        return self.h0.shape[0]

    def hamiltonian(self) -> np.ndarray:
        """H0 + lam * H1 at the model's own scale ModelSpec.lam."""
        return self.h0 + self.spec.lam * self.h1


def build_model(spec: ModelSpec) -> ModelOperators:
    """Dispatch to the builder for spec.kind."""
    if spec.kind == "diagonal":
        return build_diagonal_model(spec)
    if spec.kind == "triangular":
        return build_triangular_model(spec)
    return build_general_model(spec)


def build_diagonal_model(spec: ModelSpec) -> ModelOperators:
    """Two-level atom and one field mode with a purely diagonal interaction.

    H0 = omega0 * sigma_z + omega * a^dag a, and H1 = g * a^dag a |2><2|,
    so [H0, H1] = 0 exactly and only the upper level picks up the n-dependent
    shift.
    """
    nf = spec.fock_cutoff + 1
    n_op = number_op(nf)
    eye_f = np.eye(nf, dtype=np.complex128)
    h0 = spec.omega0 * tensor(SIGMA_Z_TWO_LEVEL, eye_f) + spec.omega * tensor(np.eye(2), n_op)
    upper = np.diag([0.0, 1.0]).astype(np.complex128)
    h1 = spec.g * tensor(upper, n_op)
    labels = tuple((j, n) for j in (1, 2) for n in range(nf))
    return ModelOperators(spec=spec, h0=h0, h1=h1,
                          basis_labels=labels, hermitian_h1=True)


def build_triangular_model(spec: ModelSpec) -> ModelOperators:
    """Two-level atom and one field mode with the one-sided interaction table.

    The interaction is built element-wise: (-1)^j * g * n on the diagonal of
    state (j, n), and a hop of amplitude g * sqrt(n - 1) from (j, n) to
    (j - 1, n - 1). The literal matrix is non-Hermitian by construction;
    spec.hermitian_variant adds the mirrored raising hops, and
    spec.diagonal_in_free moves the diagonal part into H0.
    """
    nf = spec.fock_cutoff + 1
    labels = tuple((j, n) for j in (1, 2) for n in range(nf))
    index = {label: i for i, label in enumerate(labels)}

    diag_part = np.zeros((2 * nf, 2 * nf), dtype=np.complex128)
    hop_part = np.zeros_like(diag_part)
    for (j, n), col in index.items():
        diag_part[col, col] = ((-1.0) ** j) * spec.g * n
        if j - 1 >= 1 and n - 1 >= 0:
            hop_part[index[(j - 1, n - 1)], col] = spec.g * math.sqrt(n - 1)

    n_op = number_op(nf)
    h0 = spec.omega0 * tensor(SIGMA_Z_TWO_LEVEL, np.eye(nf)) + spec.omega * tensor(np.eye(2), n_op)
    if spec.diagonal_in_free:
        h0 = h0 + diag_part
        h1 = hop_part.copy()
    else:
        h1 = diag_part + hop_part
    if spec.hermitian_variant:
        h1 = h1 + hop_part.conj().T
    return ModelOperators(spec=spec, h0=h0, h1=h1,
                          basis_labels=labels, hermitian_h1=is_hermitian(h1))


def build_general_model(spec: ModelSpec) -> ModelOperators:
    """Two atoms exchanging with a field mode, all coupled to bath modes.

    H0 carries the atom splittings, the atom-field exchange g, the field
    mode, and the free bath modes. H1 couples every bath mode to both atoms
    through (b_k^dag + b_k)(sigma_j^- + sigma_j^+); the overall interaction
    scale lam stays outside the matrix.
    """
    nf = spec.fock_cutoff + 1
    nb = spec.bath_cutoff + 1
    factors = (("atom1", 2), ("atom2", 2), ("field", nf)) + tuple(
        (f"bath{k}", nb) for k in range(len(spec.bath)))

    def embed(ops: dict[str, np.ndarray]) -> np.ndarray:
        mats = [ops.get(name, np.eye(dim, dtype=np.complex128)) for name, dim in factors]
        return tensor(*mats)

    a = lowering_op(nf)
    h0 = (spec.omega_atoms[0] * embed({"atom1": S_Z})
          + spec.omega_atoms[1] * embed({"atom2": S_Z})
          + spec.omega * embed({"field": number_op(nf)}))
    for atom in ("atom1", "atom2"):
        h0 = h0 + spec.g * (embed({atom: SIGMA_MINUS, "field": a.conj().T})
                            + embed({atom: SIGMA_PLUS, "field": a}))
    h1 = np.zeros_like(h0)
    for k, (omega_k, g_k) in enumerate(spec.bath):
        b = lowering_op(nb)
        h0 = h0 + omega_k * embed({f"bath{k}": number_op(nb)})
        flip = SIGMA_MINUS + SIGMA_PLUS
        for atom in ("atom1", "atom2"):
            h1 = h1 + g_k * embed({atom: flip, f"bath{k}": b.conj().T + b})

    atom_states = ("+", "-")
    labels = tuple(
        (s1, s2, n) + nks
        for s1 in atom_states
        for s2 in atom_states
        for n in range(nf)
        for nks in itertools.product(range(nb), repeat=len(spec.bath))
    )
    return ModelOperators(spec=spec, h0=h0, h1=h1,
                          basis_labels=labels, hermitian_h1=True)


def canonical_initial_ket(ops: ModelOperators) -> np.ndarray:
    """Normalized ket of the reference initial state used by the documented
    classification runs.

    diagonal: equal atom superposition with one field quantum, so phase drift
    shows up while level populations and coherence moduli stay put.
    triangular: equal atom superposition over the field vacuum, which the
    one-sided hops cannot move (the amplitude out of n = 1 vanishes).
    general: both atoms excited over all vacua, which the bath coupling
    genuinely relaxes.
    """
    labels = ops.basis_labels
    psi = np.zeros(ops.dim, dtype=np.complex128)
    if ops.spec.kind == "diagonal":
        if ops.spec.fock_cutoff < 1:
            raise ValueError("diagonal reference state needs fock_cutoff >= 1")
        targets = [(1, 1), (2, 1)]
    elif ops.spec.kind == "triangular":
        targets = [(1, 0), (2, 0)]
    else:
        targets = [("+", "+", 0) + (0,) * len(ops.spec.bath)]
    for t in targets:
        psi[labels.index(t)] = 1.0
    psi /= np.linalg.norm(psi)
    return psi


def triangular_sort_order(labels: Sequence[tuple]) -> np.ndarray:
    """Basis permutation sorting (j, n) labels by (n, j) ascending."""
    return np.array(sorted(range(len(labels)), key=lambda i: (labels[i][1], labels[i][0])))


def one_sided_norms(matrix: np.ndarray, order: np.ndarray) -> tuple[float, float]:
    """Norms of the strictly lower and strictly upper parts after reordering.

    A one-sided (triangular) interaction has one of the two identically zero.
    With targets sorted before sources, the hops land strictly above the
    diagonal, so the literal table gives (0, nonzero).
    """
    m = np.asarray(matrix)[np.ix_(order, order)]
    return float(np.linalg.norm(np.tril(m, -1))), float(np.linalg.norm(np.triu(m, 1)))


@dataclasses.dataclass(frozen=True)
class BlockEigenProblem:
    """Closed-form eigensystem of the three-state exchange block.

    The block couples one doubly-excited atom pair state to the two
    singly-excited partner states through a common amplitude gamma:

        [[a, gamma, gamma],
         [gamma, b, 0],
         [gamma, 0, b]]

    values/vectors are ordered (b, upper branch, lower branch); the
    eigenvalue-b eigenvector is the antisymmetric combination (0, -1, 1)/sqrt(2).
    """

    a: float
    b: float
    gamma: float
    matrix: np.ndarray
    values: np.ndarray
    vectors: np.ndarray


def block_eigensolve(a: float, b: float, gamma: float) -> BlockEigenProblem:
    """Solve the three-state block in closed form.

    Eigenvalues are {b, (a+b)/2 +- sqrt((a-b)^2 + 8 gamma^2)/2}. The branch
    eigenvectors are proportional to (eps - b, gamma, gamma); at gamma = 0
    they degenerate to the basis/symmetric vectors, handled explicitly.
    """
    matrix = np.array([[a, gamma, gamma], [gamma, b, 0.0], [gamma, 0.0, b]],
                      dtype=np.complex128)
    root = math.sqrt((a - b) ** 2 + 8.0 * gamma ** 2)
    upper = 0.5 * (a + b) + 0.5 * root
    lower = 0.5 * (a + b) - 0.5 * root
    values = np.array([b, upper, lower], dtype=np.complex128)

    vectors = np.zeros((3, 3), dtype=np.complex128)
    vectors[:, 0] = np.array([0.0, -1.0, 1.0]) / math.sqrt(2.0)
    for col, eps in ((1, upper), (2, lower)):
        v = np.array([eps - b, gamma, gamma], dtype=np.complex128)
        norm = np.linalg.norm(v)
        if norm < 1e-14:
            # gamma = 0 with eps = b: the symmetric partner completes the basis.
            v = np.array([0.0, 1.0, 1.0], dtype=np.complex128)
            norm = np.linalg.norm(v)
        vectors[:, col] = v / norm
    return BlockEigenProblem(a=a, b=b, gamma=gamma, matrix=matrix,
                             values=values, vectors=vectors)


def extract_block(ops: ModelOperators, n: int, bath_occupation: tuple[int, ...] = ()) -> np.ndarray:
    """Cut the three-state exchange block out of a built general model.

    The block spans (+,+,n), (-,+,n+1), (+,-,n+1) at fixed bath occupations
    and is returned as the corresponding 3x3 submatrix of H0.
    """
    if ops.spec.kind != "general":
        raise ValueError("block extraction is defined for the general kind")
    want = [("+", "+", n) + tuple(bath_occupation),
            ("-", "+", n + 1) + tuple(bath_occupation),
            ("+", "-", n + 1) + tuple(bath_occupation)]
    try:
        idx = [ops.basis_labels.index(w) for w in want]
    except ValueError as exc:
        raise ValueError(f"block states {want} not all inside the truncated space") from exc
    return ops.h0[np.ix_(idx, idx)]
