"""Projected-subspace quantum logic: swap timing and the biorthonormal CNOT.

The swap gate is free dyad evolution for a calibrated time; an interaction
shifts the kinetic eigenvalues E_nu away from E0_nu and the gate dephases.
When the shifts are homogeneous (E0_nu / dE_nu constant across nu) a single
timing correction delta_t restores every phase simultaneously; calibration
solves that phase-matching condition and falls back to least squares
otherwise. The CNOT is built over four right kets with exact biorthonormal
duals, so non-orthogonal (rigged) bases work unchanged.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.optimize

from .linalg import DEFAULT_TOL
from .subdynamics import decompose

CNOT_PERMUTATION = (0, 1, 3, 2)
GATE_LABELS = ("00", "01", "10", "11")


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


def ideal_swap(energies_free, t_sw: float) -> np.ndarray:
    """Free dyad-phase superoperator sum_nu e^{-i E0_nu t} |phi_nu)(phi_nu|.

    Passed shifted energies E_nu instead, it is the non-ideal swap; for
    Im E_nu < 0 every singular value e^{Im E_nu t} is below 1 at t > 0, so
    the map is a contraction (one-sided in time).
    """
    e0 = np.atleast_1d(np.asarray(energies_free, dtype=np.complex128))
    return np.diag(np.exp(-1j * e0 * t_sw))


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


def calibrate_timing(energies_free, energies_int, t_sw: float,
                     homogeneity_tol: float = 1e-6, order: str = "first",
                     branch: int = 0) -> SwapCalibration:
    """Solve e^{-i E0 t_sw} = e^{-i E (t_sw + delta_t)} for one delta_t.

    With homogeneous shifts dE = E0 / ratio the principal solution is
    delta_t = -t_sw / (ratio + 1); a nonzero branch adds 2 pi k through the
    mean energy (only exact when the populated energies are commensurate).
    Inhomogeneous shifts get the least-squares delta_t with the residual
    reporting how far from cancellation the gate stays.
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
        homogeneous = spread <= homogeneity_tol

    if homogeneous:
        delta_t = -t_sw / (ratio + 1.0)
        if branch:
            mean_e = float(np.mean(np.abs(energies[moved])))
            delta_t += 2.0 * math.pi * branch / mean_e
    else:
        # no single delta_t cancels all nu: take the least-squares optimum
        emax = float(np.max(np.abs(energies)))
        bound = math.pi / emax if emax > 0 else abs(t_sw)

        def cost(dt: float) -> float:
            ideal = np.exp(-1j * e0 * t_sw)
            actual = np.exp(-1j * energies * (t_sw + dt))
            return float(np.sum(np.abs(ideal - actual) ** 2))

        result = scipy.optimize.minimize_scalar(
            cost, bounds=(-bound, bound), method="bounded",
            options={"xatol": 1e-13, "maxiter": 500})
        delta_t = float(result.x)

    residual, gap = _phase_metrics(e0, energies, t_sw, delta_t)
    return SwapCalibration(t_sw=t_sw, delta_t=delta_t, E0_over_dE=ratio,
                           order=order, residual=residual, homogeneous=homogeneous,
                           spread=spread, phase_gap=gap)


def calibrate_timing_second_order(h0, h1, lam: float, t_sw: float, eta: float = 0.0,
                                  homogeneity_tol: float = 1e-6) -> SwapCalibration:
    """Calibration from the second-order kinetic eigenvalues of H0 + lam H1."""
    decomp = decompose(h0, h1, lam=lam, order="1", eta=eta)
    return calibrate_timing(decomp.basis.e0.real, decomp.energies, t_sw,
                            homogeneity_tol=homogeneity_tol, order="second")


def calibrate_timing_exact(h0, h1, lam: float, t_sw: float,
                           homogeneity_tol: float = 1e-6) -> SwapCalibration:
    """Calibration from the exact kinetic eigenvalues (oracle for convergence)."""
    decomp = decompose(h0, h1, lam=lam, order="exact")
    return calibrate_timing(decomp.basis.e0.real, decomp.energies, t_sw,
                            homogeneity_tol=homogeneity_tol, order="exact")


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
    labels: tuple[str, ...] = GATE_LABELS

    def pairing_matrix(self) -> np.ndarray:
        """left @ matrix @ right: a 0/1 permutation matrix for a closed gate."""
        return self.left_states @ self.matrix @ self.right_states


def _dual_rows(right: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    left = np.linalg.pinv(right)
    if np.max(np.abs(left @ right - np.eye(right.shape[1]))) > tol:
        raise ValueError("right states are not linearly independent enough for exact duals")
    return left


def build_cnot_rls(right_states=None, left_states=None, tol: float = 1e-12) -> RLSGate:
    """Controlled-NOT over a biorthonormal four-state family.

    CN = |00)(~00| + |01)(~01| + |10)(~11| + |11)(~10|, i.e. the second label
    bit flips when the first is 1. Defaults to the computational basis; any
    invertible right family works, with duals computed exactly when not given.
    """
    if right_states is None:
        right = np.eye(4, dtype=np.complex128)
    else:
        right = np.asarray(right_states, dtype=np.complex128)
    if right.ndim != 2 or right.shape[1] != 4 or right.shape[0] < 4:
        raise ValueError("right_states must stack four kets of dimension >= 4 as columns")
    left = _dual_rows(right, tol) if left_states is None else np.asarray(left_states,
                                                                         dtype=np.complex128)
    if left.shape != (4, right.shape[0]):
        raise ValueError("left_states must stack four dual rows matching the kets")
    pairing = left @ right
    if np.max(np.abs(pairing - np.eye(4))) > tol:
        raise ValueError("left/right pairing is not biorthonormal within tolerance")
    matrix = sum(np.outer(right[:, a], left[CNOT_PERMUTATION[a], :]) for a in range(4))
    return RLSGate(right_states=right, left_states=left, matrix=matrix,
                   permutation=CNOT_PERMUTATION)


def verify_closure(gate: RLSGate, tol: float = 1e-10) -> bool:
    """True iff the gate permutes the right family and the left family.

    Checks that the pairing matrix is a permutation matrix and that the gate
    moves no ket or dual out of its span (images rebuilt from the pairing
    match exactly).
    """
    pairing = gate.pairing_matrix()
    perm = np.abs(pairing) > 0.5
    if not (perm.sum(axis=0) == 1).all() or not (perm.sum(axis=1) == 1).all():
        return False
    if np.max(np.abs(pairing - perm.astype(float))) > tol:
        return False
    right_images = gate.matrix @ gate.right_states
    if np.max(np.abs(right_images - gate.right_states @ pairing)) > tol:
        return False
    left_images = gate.left_states @ gate.matrix
    return bool(np.max(np.abs(left_images - pairing @ gate.left_states)) <= tol)
