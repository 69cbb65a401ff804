"""Generalized quantum Turing machine over biorthonormal pseudospin bases.

A machine is one head spin (factor 0) plus n tape spins (factors 1..n), each
factor carrying its own invertible basis matrix S_j whose columns are the
right kets and whose inverse rows are the exact duals. States evolve as
psi -> U psi while duals co-evolve as psi~ -> psi~ U^{-1}, so the pairing
<psi~|psi> is preserved by every invertible step, unitary or not.
Expectation values use the pairing without conjugation; they can leave the
real axis under non-unitary steps while the head stays exactly on the Bloch
sphere.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools

import numpy as np

from .linalg import DEFAULT_TOL, as_complex_matrix, tensor

PAIRING_TOL = 1e-12
# Relative tolerance of decompose_entangled's branch checks: a branch with a
# vanishing pairing must have no amplitude, and populated branches must carry
# parallel head kets.
BRANCH_TOL = 1e-10


@dataclasses.dataclass(frozen=True)
class TuringMachine:
    """Head + tape pseudospins with per-factor biorthonormal bases.

    factors[j] is the 2x2 invertible basis matrix of spin j (columns are the
    right kets |0(j)>, |1(j)>); factor 0 is the head, factors 1..n the tape.
    Product states order the head bit first.
    """

    factors: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("machine needs at least the head factor")
        for j, s in enumerate(self.factors):
            mat = as_complex_matrix(s, f"factor {j}")
            if mat.shape != (2, 2):
                raise ValueError("every factor is a 2-state pseudospin (2x2 basis)")
            # the rule linalg.eig uses for a defective basis; unlike |det|
            # it does not change when the basis is scaled
            if np.linalg.cond(mat) > 1.0 / DEFAULT_TOL:
                raise ValueError(f"factor {j} basis is singular; duals undefined")

    @property
    def n_tape(self) -> int:
        return len(self.factors) - 1

    @property
    def dim(self) -> int:
        return 2 ** len(self.factors)

    @functools.cached_property
    def _inverses(self) -> tuple[np.ndarray, ...]:
        out = tuple(np.linalg.inv(np.asarray(s, dtype=np.complex128)) for s in self.factors)
        for s_inv in out:
            s_inv.flags.writeable = False
        return out

    def inverses(self) -> tuple[np.ndarray, ...]:
        """S_j^{-1} per factor, rows the dual bras; computed once per machine.

        The arrays are read-only, as every caller shares them.
        """
        return self._inverses

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
    """I (x) local (x) I with local at factor j and +0 everywhere else.

    The block is placed, not multiplied by the identities, whose zeros would
    take the signs of local's entries: so an embedded sum of local
    transitions equals the sum of the embedded transitions to the bit.
    """
    left, right = 2 ** j, 2 ** (machine.n_tape - j)
    out = np.zeros((left, 2, right, left, 2, right), dtype=np.complex128)
    # a writable view of the entries where both identity factors are 1
    np.einsum("aibakb->abik", out)[...] = local
    return out.reshape(machine.dim, machine.dim)


def transition(machine: TuringMachine, j: int, i: int, k: int) -> np.ndarray:
    """P_ik(j) = |i(j)><k~(j)| embedded with identities on the other factors."""
    return _embed(machine, j, _local_transition(machine, j, i, k))


def _local_transition(machine: TuringMachine, j: int, i: int, k: int) -> np.ndarray:
    """The 2x2 transition |i(j)><k~(j)| on factor j alone."""
    s = np.asarray(machine.factors[j], dtype=np.complex128)
    return np.outer(s[:, i], machine.inverses()[j][k, :])


def generators(machine: TuringMachine, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Non-self-adjoint pseudospin triple at factor j.

    lam_x = P01 + P10, lam_y = i P01 - i P10, lam_z = P11 - P00. With an
    orthonormal factor basis these are (sigma_x, -sigma_y, diag(-1, +1)):
    the y and z members carry the opposite of the usual Pauli sign, and
    lam_z |1(j)> = +|1(j)>.
    """
    return tuple(_embed(machine, j, member) for member in _local_generators(machine, j))


def _local_generators(machine: TuringMachine, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 2x2 members of the generators on factor j alone."""
    p01 = _local_transition(machine, j, 0, 1)
    p10 = _local_transition(machine, j, 1, 0)
    p00 = _local_transition(machine, j, 0, 0)
    p11 = _local_transition(machine, j, 1, 1)
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


def pairing(psi_dual: np.ndarray, psi: np.ndarray) -> complex:
    """<psi~|psi> without conjugation: the dual row applied to the ket."""
    return complex(np.asarray(psi_dual) @ np.asarray(psi))


def bloch_head(psi, psi_dual, machine: TuringMachine) -> BlochVector:
    """Head Bloch vector of a paired state, normalized by the pairing."""
    return _bloch(psi, psi_dual, generators(machine, 0))


def _bloch(psi, psi_dual, head: tuple[np.ndarray, np.ndarray, np.ndarray]) -> BlochVector:
    """bloch_head with the head's generators given, built once by the caller."""
    ket = np.asarray(psi, dtype=np.complex128)
    bra = np.asarray(psi_dual, dtype=np.complex128)
    norm = pairing(bra, ket)
    if abs(norm) < PAIRING_TOL:
        raise ValueError("state pairing vanishes; Bloch vector undefined")
    lx, ly, lz = head
    return BlochVector(x=complex(bra @ lx @ ket) / norm,
                       y=complex(bra @ ly @ ket) / norm,
                       z=complex(bra @ lz @ ket) / norm)


def step(psi, psi_dual, operator) -> tuple[np.ndarray, np.ndarray]:
    """One evolution step: psi -> U psi with the dual moved by U^{-1}.

    The pairing is preserved for every invertible U, which is the isometry
    property in the biorthonormal sense.
    """
    u = as_complex_matrix(operator, "step operator")
    ket = u @ np.asarray(psi, dtype=np.complex128)
    bra = np.linalg.solve(u.T, np.asarray(psi_dual, dtype=np.complex128))
    return ket, bra


def isometry_residual(psi, psi_dual, operator) -> float:
    """|<psi~'|psi'> - <psi~|psi>| across one step."""
    before = pairing(psi_dual, psi)
    ket, bra = step(psi, psi_dual, operator)
    return abs(pairing(bra, ket) - before)


def rotation_step(machine: TuringMachine, theta: float) -> np.ndarray:
    """Unitary head rotation about the x generator by angle theta.

    Conjugated into the head's own basis frame, so it rotates the (y, z)
    Bloch components for any factor basis.
    """
    s = np.asarray(machine.factors[0], dtype=np.complex128)
    s_inv = machine.inverses()[0]
    c, sn = np.cos(theta / 2.0), np.sin(theta / 2.0)
    local = s @ np.array([[c, -1j * sn], [-1j * sn, c]], dtype=np.complex128) @ s_inv
    return _embed(machine, 0, local)


def shear_step(machine: TuringMachine, strength: float) -> np.ndarray:
    """Invertible non-unitary head step (upper shear in the head frame).

    Not an isometry of the Hilbert inner product, but the biorthonormal
    pairing survives because the dual co-evolves with the inverse.
    """
    s = np.asarray(machine.factors[0], dtype=np.complex128)
    s_inv = machine.inverses()[0]
    local = s @ np.array([[1.0, strength], [0.0, 1.0]], dtype=np.complex128) @ s_inv
    return _embed(machine, 0, local)


def trajectory(machine: TuringMachine, psi, psi_dual, operators) -> list[BlochVector]:
    """Bloch vectors along a step sequence, the initial point included."""
    ket = np.asarray(psi, dtype=np.complex128)
    bra = np.asarray(psi_dual, dtype=np.complex128)
    head = generators(machine, 0)
    points = [_bloch(ket, bra, head)]
    for op in operators:
        ket, bra = step(ket, bra, op)
        points.append(_bloch(ket, bra, head))
    return points


def bloch_circle_residual(points) -> float:
    """max |y^2 + z^2 - 1| over a trajectory confined to the y-z circle.

    Nonzero when the dynamics excites the x component (out of the circle
    regime) or the state leaves the paired sphere.
    """
    return max(abs(p.y ** 2 + p.z ** 2 - 1.0) for p in points)


def tape_state(machine: TuringMachine, bits: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Product tape ket and dual row for one bitstring over factors 1..n."""
    if len(bits) != machine.n_tape:
        raise ValueError("bitstring length must equal the tape size")
    if not bits:
        return np.ones(1, dtype=np.complex128), np.ones(1, dtype=np.complex128)
    kets = [np.asarray(s, dtype=np.complex128)[:, b]
            for s, b in zip(machine.factors[1:], bits)]
    bras = [s_inv[b, :] for s_inv, b in zip(machine.inverses()[1:], bits)]
    return tensor(*kets), tensor(*bras)


def decompose_entangled(psi0, psi0_dual, machine: TuringMachine):
    """Split a state into per-tape-branch head pairs and their weights.

    Contracting each dual tape product state out of psi0 (and each tape ket
    out of the dual) leaves one head ket/bra pair per tape bitstring; the
    weights a_j b_j are the branch pairings, normalized to sum to 1. The
    recomposition identity sum_j w_j * bloch(branch_j) = bloch(psi0) is
    algebraic. The admissible form is enforced: every populated branch must
    share one head state (parallel branch kets), else ValueError.
    """
    ket = np.asarray(psi0, dtype=np.complex128)
    bra = np.asarray(psi0_dual, dtype=np.complex128)
    total = pairing(bra, ket)
    if abs(total) < PAIRING_TOL:
        raise ValueError("state pairing vanishes; decomposition undefined")
    # the head bit leads the product index: rows are head states, columns tape
    ket_t = ket.reshape(2, -1)
    bra_t = bra.reshape(2, -1)

    # a branch's head pair lives on the head factor alone, where the
    # generators are their 2x2 members
    head = _local_generators(machine, 0)
    branches = []
    reference = None
    for bits in itertools.product((0, 1), repeat=machine.n_tape):
        t_ket, t_bra = tape_state(machine, bits)
        h_ket = ket_t @ t_bra
        h_bra = bra_t @ t_ket
        w = complex(h_bra @ h_ket)
        scale = max(float(np.linalg.norm(h_ket) * np.linalg.norm(h_bra)), 0.0)
        if abs(w) < PAIRING_TOL:
            if scale > BRANCH_TOL:
                raise ValueError(
                    f"tape branch {bits} has vanishing pairing but nonzero amplitude; "
                    "branch Bloch vector undefined")
            continue
        if reference is None:
            reference = h_ket
        else:
            det = reference[0] * h_ket[1] - reference[1] * h_ket[0]
            if abs(det) > BRANCH_TOL * max(1.0, float(np.linalg.norm(reference)
                                                      * np.linalg.norm(h_ket))):
                raise ValueError(
                    "state is not of the admissible form: tape branches carry "
                    "different head states")
        branches.append((w / total, _bloch(h_ket, h_bra, head)))
    return branches


def recompose_bloch(branches) -> BlochVector:
    """Weighted sum of branch Bloch vectors; undoes decompose_entangled."""
    x = sum(w * b.x for w, b in branches)
    y = sum(w * b.y for w, b in branches)
    z = sum(w * b.z for w, b in branches)
    return BlochVector(x=x, y=y, z=z)
