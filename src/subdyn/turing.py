"""Generalized quantum Turing machine over biorthonormal pseudospin bases.

A machine is one head spin plus n tape spins, each factor carrying its own
invertible basis matrix S_j whose columns are the right kets and whose
inverse rows are the exact duals. States evolve as psi -> U psi while duals
co-evolve as psi~ -> psi~ U^{-1}, so the pairing <psi~|psi> is preserved by
every invertible step, unitary or not. Expectation values use the pairing
without conjugation; they can leave the real axis under non-unitary steps
while the head stays exactly on the Bloch sphere.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from .linalg import as_complex_matrix, tensor

PAIRING_TOL = 1e-12


@dataclasses.dataclass(frozen=True)
class TuringMachine:
    """Head + tape pseudospins with per-factor biorthonormal bases.

    factors[j] is the 2x2 invertible basis matrix of spin j (columns are the
    right kets |0(j)>, |1(j)>); head_index locates the head factor;
    evolution optionally stores a default step operator.
    """

    factors: tuple[np.ndarray, ...]
    head_index: int = 0
    evolution: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("machine needs at least the head factor")
        if not 0 <= self.head_index < len(self.factors):
            raise ValueError("head_index outside the factor list")
        for j, s in enumerate(self.factors):
            mat = as_complex_matrix(s, f"factor {j}")
            if mat.shape != (2, 2):
                raise ValueError("every factor is a 2-state pseudospin (2x2 basis)")
            if abs(np.linalg.det(mat)) < 1e-12:
                raise ValueError(f"factor {j} basis is singular; duals undefined")
        if self.evolution is not None:
            u = as_complex_matrix(self.evolution, "evolution")
            if u.shape != (self.dim, self.dim):
                raise ValueError("evolution operator does not match the machine dimension")

    @property
    def n_tape(self) -> int:
        return len(self.factors) - 1

    @property
    def dim(self) -> int:
        return 2 ** len(self.factors)

    def inverses(self) -> tuple[np.ndarray, ...]:
        return tuple(np.linalg.inv(np.asarray(s, dtype=np.complex128))
                     for s in self.factors)

    def right_basis(self) -> np.ndarray:
        """Product kets as columns, ordered by bitstring (head bit included)."""
        return tensor(*self.factors)

    def left_basis(self) -> np.ndarray:
        """Dual product bras as rows, biorthonormal to right_basis."""
        return tensor(*self.inverses())


def biorthonormality_residual(machine: TuringMachine) -> float:
    """Largest deviation of <a~_i|a_k> from delta_ik over the product basis."""
    gap = machine.left_basis() @ machine.right_basis() - np.eye(machine.dim)
    return float(np.max(np.abs(gap)))


def _embed(machine: TuringMachine, j: int, local: np.ndarray) -> np.ndarray:
    mats = [np.eye(2, dtype=np.complex128) for _ in machine.factors]
    mats[j] = local
    return tensor(*mats)


def transition(machine: TuringMachine, j: int, i: int, k: int) -> np.ndarray:
    """P_ik(j) = |i(j)><k~(j)| embedded with identities on the other factors."""
    s = np.asarray(machine.factors[j], dtype=np.complex128)
    s_inv = machine.inverses()[j]
    return _embed(machine, j, np.outer(s[:, i], s_inv[k, :]))


def generators(machine: TuringMachine, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Non-self-adjoint pseudospin triple at factor j.

    lam_x = P01 + P10, lam_y = i P01 - i P10, lam_z = P11 - P00. With an
    orthonormal factor basis these are (sigma_x, -sigma_y, diag(-1, +1)):
    the y and z members carry the opposite of the usual Pauli sign, and
    lam_z |1(j)> = +|1(j)>.
    """
    p01 = transition(machine, j, 0, 1)
    p10 = transition(machine, j, 1, 0)
    p00 = transition(machine, j, 0, 0)
    p11 = transition(machine, j, 1, 1)
    return p01 + p10, 1j * p01 - 1j * p10, p11 - p00


@dataclasses.dataclass(frozen=True)
class BlochVector:
    """Pairing expectation values of the head triple.

    Components are complex in general: non-unitary steps move them off the
    real axis while x^2 + y^2 + z^2 = <psi~|psi>^2 stays exact.
    """

    x: complex
    y: complex
    z: complex

    def purity(self) -> complex:
        return self.x ** 2 + self.y ** 2 + self.z ** 2

    def as_real(self, tol: float = 1e-10) -> tuple[float, float, float]:
        worst = max(abs(self.x.imag), abs(self.y.imag), abs(self.z.imag))
        if worst > tol:
            raise ValueError(f"Bloch components are complex (max imag {worst:.3e})")
        return (self.x.real, self.y.real, self.z.real)


def pairing(psi_dual: np.ndarray, psi: np.ndarray) -> complex:
    """<psi~|psi> without conjugation: the dual row applied to the ket."""
    return complex(np.asarray(psi_dual) @ np.asarray(psi))


def bloch_head(psi, psi_dual, machine: TuringMachine) -> BlochVector:
    """Head Bloch vector of a paired state, normalized by the pairing."""
    ket = np.asarray(psi, dtype=np.complex128)
    bra = np.asarray(psi_dual, dtype=np.complex128)
    norm = pairing(bra, ket)
    if abs(norm) < PAIRING_TOL:
        raise ValueError("state pairing vanishes; Bloch vector undefined")
    lx, ly, lz = generators(machine, machine.head_index)
    return BlochVector(x=complex(bra @ lx @ ket) / norm,
                       y=complex(bra @ ly @ ket) / norm,
                       z=complex(bra @ lz @ ket) / norm)


def step(machine: TuringMachine, psi, psi_dual, operator=None) -> tuple[np.ndarray, np.ndarray]:
    """One evolution step: psi -> U psi with the dual moved by U^{-1}.

    The pairing is preserved for every invertible U, which is the isometry
    property in the biorthonormal sense.
    """
    u = machine.evolution if operator is None else operator
    if u is None:
        raise ValueError("no step operator: machine.evolution unset and none supplied")
    u = as_complex_matrix(u, "step operator")
    ket = u @ np.asarray(psi, dtype=np.complex128)
    bra = np.linalg.solve(u.T, np.asarray(psi_dual, dtype=np.complex128))
    return ket, bra


def isometry_residual(machine: TuringMachine, psi, psi_dual, operator=None) -> float:
    """|<psi~'|psi'> - <psi~|psi>| across one step."""
    before = pairing(psi_dual, psi)
    ket, bra = step(machine, psi, psi_dual, operator)
    return abs(pairing(bra, ket) - before)


def rotation_step(machine: TuringMachine, theta: float) -> np.ndarray:
    """Unitary head rotation about the x generator by angle theta.

    Conjugated into the head's own basis frame, so it rotates the (y, z)
    Bloch components for any factor basis.
    """
    s = np.asarray(machine.factors[machine.head_index], dtype=np.complex128)
    s_inv = machine.inverses()[machine.head_index]
    c, sn = np.cos(theta / 2.0), np.sin(theta / 2.0)
    local = s @ np.array([[c, -1j * sn], [-1j * sn, c]], dtype=np.complex128) @ s_inv
    return _embed(machine, machine.head_index, local)


def shear_step(machine: TuringMachine, strength: float) -> np.ndarray:
    """Invertible non-unitary head step (upper shear in the head frame).

    Not an isometry of the Hilbert inner product, but the biorthonormal
    pairing survives because the dual co-evolves with the inverse.
    """
    s = np.asarray(machine.factors[machine.head_index], dtype=np.complex128)
    s_inv = machine.inverses()[machine.head_index]
    local = s @ np.array([[1.0, strength], [0.0, 1.0]], dtype=np.complex128) @ s_inv
    return _embed(machine, machine.head_index, local)


def trajectory(machine: TuringMachine, psi, psi_dual, operators) -> list[BlochVector]:
    """Bloch vectors along a step sequence, the initial point included."""
    ket = np.asarray(psi, dtype=np.complex128)
    bra = np.asarray(psi_dual, dtype=np.complex128)
    points = [bloch_head(ket, bra, machine)]
    for op in operators:
        ket, bra = step(machine, ket, bra, op)
        points.append(bloch_head(ket, bra, machine))
    return points


def bloch_circle_residual(points) -> float:
    """max |y^2 + z^2 - 1| over a trajectory confined to the y-z circle.

    Nonzero when the dynamics excites the x component (out of the circle
    regime) or the state leaves the paired sphere.
    """
    return max(abs(p.y ** 2 + p.z ** 2 - 1.0) for p in points)


def _tape_bitstrings(machine: TuringMachine) -> list[tuple[int, ...]]:
    return list(itertools.product((0, 1), repeat=machine.n_tape))


def tape_state(machine: TuringMachine, bits: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Product tape ket and dual row for one bitstring (head factor excluded)."""
    if len(bits) != machine.n_tape:
        raise ValueError("bitstring length must equal the tape size")
    inverses = machine.inverses()
    kets, bras = [], []
    for j in range(len(machine.factors)):
        if j == machine.head_index:
            continue
        b = bits[j if j < machine.head_index else j - 1]
        kets.append(np.asarray(machine.factors[j], dtype=np.complex128)[:, b])
        bras.append(inverses[j][b, :])
    if not kets:
        return np.ones(1, dtype=np.complex128), np.ones(1, dtype=np.complex128)
    ket = kets[0]
    bra = bras[0]
    for k, b in zip(kets[1:], bras[1:]):
        ket = np.kron(ket, k)
        bra = np.kron(bra, b)
    return ket, bra


def _head_axes(machine: TuringMachine) -> tuple[np.ndarray, int]:
    """Reshape helper: state tensor with head axis first, tape flattened."""
    dims = [2] * len(machine.factors)
    order = [machine.head_index] + [j for j in range(len(machine.factors))
                                    if j != machine.head_index]
    return np.array(dims), order


def decompose_entangled(psi0, psi0_dual, machine: TuringMachine,
                        validate: bool = True, tol: float = 1e-10):
    """Split a state into per-tape-branch head pairs and their weights.

    Contracting each dual tape product state out of psi0 (and each tape ket
    out of the dual) leaves one head ket/bra pair per tape bitstring; the
    weights a_j b_j are the branch pairings, normalized to sum to 1. The
    recomposition identity sum_j w_j * bloch(branch_j) = bloch(psi0) is
    algebraic. With validate=True the admissible form is enforced: every
    populated branch must share one head state (parallel branch kets).
    """
    ket = np.asarray(psi0, dtype=np.complex128)
    bra = np.asarray(psi0_dual, dtype=np.complex128)
    total = pairing(bra, ket)
    if abs(total) < PAIRING_TOL:
        raise ValueError("state pairing vanishes; decomposition undefined")
    dims, order = _head_axes(machine)
    ket_t = np.moveaxis(ket.reshape(dims), order, range(len(order))).reshape(2, -1)
    bra_t = np.moveaxis(bra.reshape(dims), order, range(len(order))).reshape(2, -1)

    head_machine = TuringMachine(factors=(machine.factors[machine.head_index],))
    branches = []
    reference = None
    for bits in _tape_bitstrings(machine):
        t_ket, t_bra = tape_state(machine, bits)
        h_ket = ket_t @ t_bra
        h_bra = bra_t @ t_ket
        w = complex(h_bra @ h_ket)
        scale = max(float(np.linalg.norm(h_ket) * np.linalg.norm(h_bra)), 0.0)
        if abs(w) < PAIRING_TOL:
            if scale > tol:
                raise ValueError(
                    f"tape branch {bits} has vanishing pairing but nonzero amplitude; "
                    "branch Bloch vector undefined")
            continue
        if validate:
            if reference is None:
                reference = h_ket
            else:
                det = reference[0] * h_ket[1] - reference[1] * h_ket[0]
                if abs(det) > tol * max(1.0, float(np.linalg.norm(reference)
                                                   * np.linalg.norm(h_ket))):
                    raise ValueError(
                        "state is not of the admissible form: tape branches carry "
                        "different head states")
        branches.append((w / total, bloch_head(h_ket, h_bra, head_machine)))
    return branches


def recompose_bloch(branches) -> BlochVector:
    """Weighted sum of branch Bloch vectors; undoes decompose_entangled."""
    x = sum(w * b.x for w, b in branches)
    y = sum(w * b.y for w, b in branches)
    z = sum(w * b.z for w, b in branches)
    return BlochVector(x=x, y=y, z=z)
