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


def _newton_polish(free_levels, levels, t_sw: float, delta_t: float, bound: float) -> float:
    """Newton steps on the least-squares cost's stationarity condition.

    The cost sum |e^{-i E0 t_sw} - e^{-i E (t_sw + dt)}|^2 has derivative
    2 g(dt) with g = sum E sin(E (t_sw + dt) - E0 t_sw) and curvature
    sum E^2 cos(.). Over the dyads nu = (i, j), with E0 = e_i - f_j and
    E = z_i - w_j, the sums sum E^k e^{-i(E s - E0 t_sw)} (s = t_sw + dt)
    factor into the moments P_k = sum_i z_i^k e^{i(e_i t_sw - z_i s)} and
    Q_k, the same over (f, w): sum E e^{..} = P_1 Q_0* - P_0 Q_1* and
    sum E^2 e^{..} = P_2 Q_0* - 2 P_1 Q_1* + P_0 Q_2*, O(n + m) a step.
    From a point near the minimiser Newton converges to rounding in a few
    steps. The starting point is kept when the curvature is not positive or
    the polished point lies outside the search interval.
    """
    (e, f), (z, w) = free_levels, levels
    polished = delta_t
    for _ in range(4):
        s = t_sw + polished
        left = np.exp(1j * (e * t_sw - z * s))
        right = np.exp(-1j * (f * t_sw - w * s))
        p0, p1, p2 = left.sum(), left @ z, left @ z**2
        q0, q1, q2 = right.sum(), right @ w, right @ w**2
        curvature = float((p2 * q0 - 2.0 * p1 * q1 + p0 * q2).real)
        if not curvature > 0.0:
            return delta_t
        polished += float((p1 * q0 - p0 * q1).imag) / curvature
    return polished if abs(polished) <= bound else delta_t


# Points of the least-squares scan over [-bound, bound], one period of the
# fastest dyad phase, endpoints included: 64 steps a period.
_SCAN_POINTS = 65


def _least_squares_cost(free_levels, levels, t_sw: float, delta_t: np.ndarray) -> np.ndarray:
    """sum_nu |e^{-i E0 t_sw} - e^{-i E (t_sw + dt)}|^2 at each dt of an array.

    Over the dyads nu = (i, j), E0 = e_i - f_j and E = z_i - w_j, the sum is
    2 n m - 2 Re(P Q*) with P = sum_i e^{i(e_i t_sw - z_i s)}, s = t_sw + dt,
    and Q the same over (f, w): O(n + m) a point.
    """
    (e, f), (z, w) = free_levels, levels
    s = (t_sw + np.asarray(delta_t, dtype=np.float64))[..., None]
    p = np.exp(1j * (e * t_sw - s * z)).sum(axis=-1)
    q = np.exp(1j * (f * t_sw - s * w)).sum(axis=-1)
    return 2.0 * e.size * f.size - 2.0 * (p * q.conj()).real


def _as_levels(pair, dtype) -> tuple[np.ndarray, np.ndarray]:
    """A pair (left, right) of level arrays; a flat energy list is refused."""
    arrays = [np.asarray(x, dtype=dtype) for x in pair]
    if len(arrays) != 2 or any(a.ndim != 1 for a in arrays):
        raise ValueError("levels must be a pair of 1-d arrays, e.g. (energies, [0.0])")
    return arrays[0], arrays[1]


def calibrate_timing(free_levels, levels, t_sw: float,
                     order: str = "first") -> SwapCalibration:
    """Solve e^{-i E0 t_sw} = e^{-i E (t_sw + delta_t)} for one delta_t.

    free_levels = (e, f) and levels = (z, w) give the free and shifted
    energies of the n m dyads nu = (i, j), E0 = e_i - f_j and E = z_i - w_j.
    A flat list of energies E0, E is the case m = 1: free_levels = (E0, [0])
    and levels = (E, [0]). With homogeneous shifts dE = E0 / ratio the
    principal solution is delta_t = -t_sw / (ratio + 1). Inhomogeneous
    shifts get the least-squares delta_t with the residual reporting how
    far from cancellation the gate stays: its cost, O(n + m) a point
    (_least_squares_cost), is scanned over one period of the fastest phase
    and the best point polished by Newton steps (_newton_polish).
    """
    e, f = _as_levels(free_levels, np.float64)
    z, w = _as_levels(levels, np.complex128)
    if e.shape != z.shape or f.shape != w.shape:
        raise ValueError("free and shifted levels must have the same shapes")
    # m x n tables, row j and column i, so that the mean of the ratios
    # sums the dyads in the order i + n j
    e0 = e[None, :] - f[:, None]
    energies = z[None, :] - w[:, None]
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
        real_levels = (z.real, w.real)
        grid = np.linspace(-bound, bound, _SCAN_POINTS)
        start = float(grid[np.argmin(_least_squares_cost((e, f), real_levels, t_sw, grid))])
        delta_t = _newton_polish((e, f), real_levels, t_sw, start, bound)

    residual, gap = _phase_metrics(e0, energies, t_sw, delta_t)
    return SwapCalibration(t_sw=t_sw, delta_t=delta_t, E0_over_dE=ratio,
                           order=order, residual=residual, homogeneous=homogeneous,
                           spread=spread, phase_gap=gap)


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
