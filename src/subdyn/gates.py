"""Projected-subspace quantum logic: swap timing and the biorthonormal CNOT.

The swap gate is free dyad evolution for a calibrated time; an interaction
shifts the kinetic eigenvalues E_nu away from E0_nu and the gate dephases.
When the shifts are homogeneous (E0_nu / dE_nu constant across nu) a single
timing correction delta_t restores every phase simultaneously; calibration
solves that phase-matching condition and falls back to least squares
otherwise; ratios that agree to HOMOGENEITY_TOL count as homogeneous. The
CNOT is built over four right kets with their duals computed exactly, so
non-orthogonal (rigged) bases work unchanged.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .linalg import DEFAULT_TOL
from .subdynamics import decompose

CNOT_PERMUTATION = (0, 1, 3, 2)
GATE_LABELS = ("00", "01", "10", "11")
# Largest relative spread of the per-nu ratios E0/dE still counted as homogeneous.
HOMOGENEITY_TOL = 1e-6
# Largest entry of |left @ right - I| accepted for the computed CNOT duals.
DUAL_TOL = 1e-12
# Largest residual entry verify_closure accepts.
CLOSURE_TOL = 1e-10


@dataclasses.dataclass(frozen=True)
class SwapCalibration:
    """Solved timing correction for one set of shifted swap energies.

    E0_over_dE is the homogeneity ratio E0/dE (infinite when the shifts
    vanish); residual is the post-correction operator error
    ||U_ideal(t_sw) - U_nonideal(t_sw + delta_t)||; phase_gap is the largest
    per-nu phase mismatch modulo 2 pi.
    """

    t_sw: float
    delta_t: float
    E0_over_dE: float
    order: str
    residual: float
    homogeneous: bool
    spread: float
    phase_gap: float


def exchange_hamiltonian(g_ex: float) -> np.ndarray:
    """Two-qubit XY exchange H = g (s+ s- + s- s+) in the |00,01,10,11> basis."""
    h = np.zeros((4, 4), dtype=np.complex128)
    h[1, 2] = h[2, 1] = g_ex
    return h


def exchange_swap_time(g_ex: float) -> float:
    """Coupling time at which the XY exchange swaps |01> and |10>."""
    return math.pi / (2.0 * g_ex)


def _wrap_phase(x: np.ndarray) -> np.ndarray:
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def _phase_metrics(e0: np.ndarray, energies: np.ndarray, t_sw: float,
                   delta_t: float) -> tuple[float, float]:
    ideal = np.exp(-1j * e0 * t_sw)
    corrected = np.exp(-1j * energies * (t_sw + delta_t))
    residual = float(np.max(np.abs(ideal - corrected)))
    gap = float(np.max(np.abs(_wrap_phase(
        (energies * (t_sw + delta_t) - e0 * t_sw).real))))
    return residual, gap


def _newton_polish(e0: np.ndarray, energies: np.ndarray, t_sw: float,
                   delta_t: float, bound: float) -> float:
    """Newton steps on the least-squares cost's stationarity condition.

    The cost sum |e^{-i E0 t_sw} - e^{-i E (t_sw + dt)}|^2 has derivative
    2 g(dt) with g = sum E sin(E (t_sw + dt) - E0 t_sw) and curvature
    sum E^2 cos(.). Bounded Brent stops about sqrt(eps) |dt| short of the
    minimiser, so the value would follow the last bits of the energies;
    from there Newton converges to rounding in a few steps. Brent's point is
    kept when the curvature is not positive or the polished point lies
    outside the search interval.
    """
    polished = delta_t
    for _ in range(4):
        phase = energies * (t_sw + polished) - e0 * t_sw
        curvature = float(np.sum(energies**2 * np.cos(phase)))
        if not curvature > 0.0:
            return delta_t
        polished -= float(np.sum(energies * np.sin(phase))) / curvature
    return polished if abs(polished) <= bound else delta_t


def calibrate_timing(energies_free, energies_int, t_sw: float,
                     order: str = "first") -> SwapCalibration:
    """Solve e^{-i E0 t_sw} = e^{-i E (t_sw + delta_t)} for one delta_t.

    With homogeneous shifts dE = E0 / ratio the principal solution is
    delta_t = -t_sw / (ratio + 1). Inhomogeneous shifts get the
    least-squares delta_t with the residual reporting how far from
    cancellation the gate stays.
    """
    e0 = np.atleast_1d(np.asarray(energies_free, dtype=np.float64))
    energies = np.atleast_1d(np.asarray(energies_int, dtype=np.complex128))
    if e0.shape != energies.shape:
        raise ValueError("free and shifted energy arrays must have the same shape")
    if np.max(np.abs(energies.imag)) > DEFAULT_TOL:
        raise ValueError("timing calibration needs real shifted energies")
    energies = energies.real
    shifts = energies - e0
    scale = max(1.0, float(np.max(np.abs(e0))))
    moved = np.abs(shifts) > DEFAULT_TOL * scale

    if not moved.any():
        residual, gap = _phase_metrics(e0, energies, t_sw, 0.0)
        return SwapCalibration(t_sw=t_sw, delta_t=0.0, E0_over_dE=math.inf,
                               order=order, residual=residual, homogeneous=True,
                               spread=0.0, phase_gap=gap)

    # a dyad with an unshifted nonzero energy pins delta_t to 0, so any
    # shifted partner makes exact cancellation impossible
    stuck = (~moved) & (np.abs(e0) > DEFAULT_TOL * scale)
    homogeneous = not stuck.any()
    spread = math.inf
    ratio = math.nan
    if homogeneous:
        ratios = e0[moved] / shifts[moved]
        ratio = float(np.mean(ratios))
        spread = float(np.max(np.abs(ratios - ratio))) / max(1.0, abs(ratio))
        homogeneous = spread <= HOMOGENEITY_TOL

    if homogeneous:
        delta_t = -t_sw / (ratio + 1.0)
    else:
        # no single delta_t cancels all nu: take the least-squares optimum
        emax = float(np.max(np.abs(energies)))
        bound = math.pi / emax if emax > 0 else abs(t_sw)

        ideal = np.exp(-1j * e0 * t_sw)

        def cost(dt: float) -> float:
            actual = np.exp(-1j * energies * (t_sw + dt))
            return float(np.sum(np.abs(ideal - actual) ** 2))

        # imported here: importing scipy.optimize costs about 0.56 s and 47 MB
        # (scipy.linalg and scipy.sparse included), and only this branch needs it
        import scipy.optimize

        # xatol stays below scipy's 1e-5 default for optima on the interval's
        # edge, where the Newton polish does not apply
        result = scipy.optimize.minimize_scalar(
            cost, bounds=(-bound, bound), method="bounded",
            options={"xatol": 1e-13, "maxiter": 500})
        delta_t = _newton_polish(e0, energies, t_sw, float(result.x), bound)

    residual, gap = _phase_metrics(e0, energies, t_sw, delta_t)
    return SwapCalibration(t_sw=t_sw, delta_t=delta_t, E0_over_dE=ratio,
                           order=order, residual=residual, homogeneous=homogeneous,
                           spread=spread, phase_gap=gap)


def calibrate_timing_second_order(h0, h1, lam: float, t_sw: float,
                                  eta: float = 0.0) -> SwapCalibration:
    """Calibration from the second-order kinetic eigenvalues of H0 + lam H1."""
    decomp = decompose(h0, h1, lam=lam, order="1", eta=eta)
    return calibrate_timing(decomp.basis.e0.real, decomp.energies, t_sw, order="second")


def calibrate_timing_exact(h0, h1, lam: float, t_sw: float) -> SwapCalibration:
    """Calibration from the exact kinetic eigenvalues (oracle for convergence)."""
    decomp = decompose(h0, h1, lam=lam, order="exact")
    return calibrate_timing(decomp.basis.e0.real, decomp.energies, t_sw, order="exact")


@dataclasses.dataclass(frozen=True)
class RLSGate:
    """Gate over four labeled right kets and their biorthonormal duals.

    right_states holds the kets as columns (dimension may exceed 4);
    left_states holds the dual rows with left @ right = I. matrix acts on the
    ambient space; permutation records the label action.
    """

    right_states: np.ndarray
    left_states: np.ndarray
    matrix: np.ndarray
    permutation: tuple[int, ...]

    def pairing_matrix(self) -> np.ndarray:
        """left @ matrix @ right: a 0/1 permutation matrix for a closed gate."""
        return self.left_states @ self.matrix @ self.right_states


def _dual_rows(right: np.ndarray) -> np.ndarray:
    left = np.linalg.pinv(right)
    if np.max(np.abs(left @ right - np.eye(right.shape[1]))) > DUAL_TOL:
        raise ValueError("right states are not linearly independent enough for exact duals")
    return left


def build_cnot_rls(right_states=None) -> RLSGate:
    """Controlled-NOT over a biorthonormal four-state family.

    CN = |00)(~00| + |01)(~01| + |10)(~11| + |11)(~10|, i.e. the second label
    bit flips when the first is 1. Defaults to the computational basis; any
    linearly independent right family works, and its dual rows are the
    pseudo-inverse, checked to pair with the kets within DUAL_TOL.
    """
    if right_states is None:
        right = np.eye(4, dtype=np.complex128)
    else:
        right = np.asarray(right_states, dtype=np.complex128)
    if right.ndim != 2 or right.shape[1] != 4 or right.shape[0] < 4:
        raise ValueError("right_states must stack four kets of dimension >= 4 as columns")
    left = _dual_rows(right)
    matrix = sum(np.outer(right[:, a], left[CNOT_PERMUTATION[a], :]) for a in range(4))
    return RLSGate(right_states=right, left_states=left, matrix=matrix,
                   permutation=CNOT_PERMUTATION)


def verify_closure(gate: RLSGate) -> bool:
    """True iff the gate permutes the right family and the left family.

    Checks that the pairing matrix is a permutation matrix and that the gate
    moves no ket or dual out of its span (images rebuilt from the pairing
    match to CLOSURE_TOL).
    """
    pairing = gate.pairing_matrix()
    perm = np.abs(pairing) > 0.5
    if not (perm.sum(axis=0) == 1).all() or not (perm.sum(axis=1) == 1).all():
        return False
    if np.max(np.abs(pairing - perm.astype(float))) > CLOSURE_TOL:
        return False
    right_images = gate.matrix @ gate.right_states
    if np.max(np.abs(right_images - gate.right_states @ pairing)) > CLOSURE_TOL:
        return False
    left_images = gate.left_states @ gate.matrix
    return bool(np.max(np.abs(left_images - pairing @ gate.left_states)) <= CLOSURE_TOL)
