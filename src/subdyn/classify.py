"""Decoherence-free classification of total and projected dynamics.

A model is judged in four cells. In the total space, stationarity asks
whether level populations of the exact state drift against free evolution,
and evolution asks whether coherence moduli drift. In the projected space,
stationarity asks whether population dyads keep E_nu = 0, and evolution asks
whether coherence dyads keep their free phases E_nu = E0_nu. Each cell gets
a verdict: DF (decoherence-free), PE (phase error only), or D (decoheres).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .linalg import DefectiveMatrixError, components, eig, is_hermitian
from .models import ModelOperators, canonical_initial_ket
from .subdynamics import (Decomposition, _hilbert_flow, decompose_model, project_density,
                          state_factor, time_blocks)

DF = "DF"
PHASE_ERROR = "PE"
DECOHERES = "D"
# The evidence behind each cell: the key of the value its verdict reads and,
# for a projected cell, the key of the decay that makes it D first.
CELL_EVIDENCE = {
    "stationary_total": ("population_drift", None),
    "evolution_total": ("coherence_modulus_drift", None),
    "stationary_proj": ("population_dyad_shift", "population_dyad_decay"),
    "evolution_proj": ("coherence_dyad_shift", "coherence_dyad_decay"),
}
CELLS = tuple(CELL_EVIDENCE)

DEFAULT_VERDICT_TOL = 1e-8
# Largest |F(t) - 1| a kinetic fidelity trace may show and still count as unit.
FIDELITY_UNIT_TOL = 1e-9


@dataclasses.dataclass(frozen=True)
class FidelityTrace:
    """Kinetic fidelity F(t) = sum_nu w_nu |e^{-i E_nu t}| on a time grid.

    Weights are the normalized magnitudes of the initial kinetic
    coefficients; the trace sits at exactly 1 for all t iff every populated
    E_nu is real.
    """

    times: np.ndarray
    values: np.ndarray
    weights: np.ndarray

    @property
    def max_deviation(self) -> float:
        return float(np.max(np.abs(self.values - 1.0)))

    def is_unit(self) -> bool:
        return self.max_deviation <= FIDELITY_UNIT_TOL


@dataclasses.dataclass(frozen=True)
class DFReport:
    """Four-cell classification of one model run plus the raw evidence."""

    kind: str
    order: str
    lam: float
    eta: float
    tol: float
    verdicts: dict[str, str]
    evidence: dict[str, float]
    interaction_row: str

    def table_row(self) -> tuple[str, str, str, str]:
        return tuple(self.verdicts[c] for c in CELLS)


def check_diagonal_condition(decomp: Decomposition) -> float:
    """Residual of P_nu L1 Q_nu = 0 for every nu: largest off-diagonal
    interaction element in the dyad frame.

    The off-diagonal entries of L1 = [h1_f, .] are the off-diagonal entries
    of h1_f and their negatives, so this reads h1_f instead of building L1.
    """
    off = decomp.lam * decomp.basis.h1_f
    np.fill_diagonal(off, 0.0)
    return float(np.max(np.abs(off)))


def spectral_shift(decomp: Decomposition) -> np.ndarray:
    """Kinetic eigenvalue shift (z_i - w_j) - (eps_i - eps_j) of each dyad, a d x d matrix."""
    eps = decomp.basis.f_values
    return decomp.energies - np.subtract.outer(eps, eps)


def check_triangular_condition(decomp: Decomposition) -> float:
    """Residual of the no-backfeed condition: the interaction may leak dyads
    into the complement, but no dyad's kinetic eigenvalue moves."""
    return float(np.max(np.abs(spectral_shift(decomp))))


def fidelity_trace(energies: np.ndarray, coefficients: np.ndarray, times) -> FidelityTrace:
    """Kinetic fidelity of the projected coefficients c[i, j](0), phased by E[i, j].

    energies and coefficients are d x d matrices indexed (i, j), as
    Decomposition.energies and project_density return them. The weights
    are summed, and the populated dyads walked, in the column-stacked order
    i + d j. The exponent table exp(t Im E) is built over the dyads of
    nonzero weight only, one block of the time grid at a time
    (time_blocks), so a zero coefficient costs nothing. When every such E
    is real each term of the table is exactly 0, so no table is built and
    every value is 1.0. Raises ValueError when max|E| max|t| eps >= 1, where
    e^{-i E t} keeps no correct digit.
    """
    ts = np.asarray(times, dtype=np.float64)
    scale = float(np.max(np.abs(energies), initial=0.0)) * float(np.max(np.abs(ts), initial=0.0))
    if scale * np.finfo(np.float64).eps >= 1.0:
        raise ValueError(f"kinetic phases keep no correct digit: max|E| max|t| = {scale:.3e}")
    # indexed [j, i] and C-contiguous, so that memory holds the dyads in
    # the order i + d j
    mags = np.abs(coefficients.T, order="C")
    total = mags.ravel().sum()
    if total <= 0.0:
        raise ValueError("initial state has no weight on any dyad")
    weights = mags / total
    j, i = np.nonzero(weights)
    rates, populated = energies.imag[i, j], weights[j, i]
    if not rates.any():
        return FidelityTrace(times=ts, values=np.ones_like(ts), weights=weights.T)
    # sum(weights) is 1 only to rounding, so the deviation from 1 is summed
    # directly: exactly zero when every E_nu is real. Each step is its own
    # pairwise sum, so the blocks do not change a bit of it (a matrix-vector
    # product would round a step by its place in the block).
    deviation = np.empty_like(ts)
    for block in time_blocks(ts.shape[0], rates.shape[0] + 1):
        terms = np.exp(np.outer(ts[block], rates))
        terms -= 1.0
        terms *= populated
        deviation[block] = terms.sum(axis=1)
    return FidelityTrace(times=ts, values=1.0 + deviation, weights=weights.T)


def _touched_levels(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Levels of the components of h (see linalg.components) on which some
    row of g is nonzero, in ascending order: every level for a state on
    every component, none for a zero state."""
    labels = components(h)
    touched = np.zeros(labels.shape[0], dtype=bool)
    touched[labels[g.any(axis=1)]] = True
    return np.flatnonzero(touched[labels])


def _principal(m: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """m[levels][:, levels] in m's own memory order: BLAS rounds a product
    by the layout of its operands, so the block over every level is m
    itself to the last bit."""
    if m.flags.f_contiguous:
        return m.T.take(levels, 0).take(levels, 1).T
    return m.take(levels, 0).take(levels, 1)


def _state_flow(decomp: Decomposition, h: np.ndarray, hermitian: bool, levels: np.ndarray,
                g: np.ndarray):
    """Free-frame factors of F^dagger rho(t) F = e^{-iH_f t} g g^dagger e^{+iH_f t}.

    h is H_f = diag(f_values) + lam h1_f, the H that decomp was built from,
    in the free frame, and hermitian whether it is Hermitian. g = F^dagger U
    is the free-frame factor of the state on levels, the components of H_f
    that it touches (see _touched_levels). H_f and every function of it are
    block diagonal over the components, so the state never leaves those
    levels, and the flow reads H_f[levels, levels] only. Returns
    (hermitian, flow) where flow(ts) gives, for a block of times, stacked
    (ket, bra) with F^dagger rho(t) F = ket[k] @ bra[k] on the levels,
    ket[k] n x r and bra[k] r x n. One eigendecomposition
    H_f = psi diag(z) psi~ serves every t at O(n^2 r) a step:
    ket = psi (e^{-izt} psi~ g) and bra = (g^dagger psi) e^{+izt} psi~,
    which is ket^dagger when the block is Hermitian. An exact-order decomp
    holds that eigensystem already, anchored: R = I + U and L = I + U~ from
    its planes, with psi = R and psi~ = diag(1/(L R)_ii) L. The eigenpairs
    of a component sit at its own indices, as the matching never leaves a
    component, so the levels' rows and columns are the block's own
    eigensystem.
    H_f[levels, levels] is diagonalized only at orders 1 and 2; a defective
    block, never Hermitian, flows by subdynamics._hilbert_flow instead, two
    n x n exponentials per t.
    """
    if decomp.order == "exact":
        eye = np.eye(levels.shape[0])
        psi, left = (eye + _principal(m, levels) for m in decomp.planes[::2])
        psi_tilde = left / np.einsum("ia,ai->i", left, psi)[:, None]
        z = decomp.z[levels]
    else:
        h = _principal(h, levels)
        try:
            system = eig(h)
        except DefectiveMatrixError:
            def expm_flow(ts):
                kets, bras = zip(*(_hilbert_flow(h, g, t) for t in ts))
                return np.stack(kets), np.stack(bras)
            return False, expm_flow
        psi, psi_tilde, z = system.right_vectors, system.left_vectors, system.values
        hermitian = system.hermitian
    ket_right, bra_left = psi_tilde @ g, g.conj().T @ psi

    def flow(ts):
        ket = psi @ (np.exp((-1j * z) * ts[:, None])[:, :, None] * ket_right)
        if hermitian:
            return ket, ket.conj().transpose(0, 2, 1)
        return ket, (bra_left * np.exp((1j * z) * ts[:, None])[:, None, :]) @ psi_tilde

    return hermitian, flow


def total_space_evidence(decomp: Decomposition, state, times) -> dict[str, float]:
    """Drift of the exact state against free evolution, in the free eigenbasis.

    Free evolution leaves populations and coherence moduli in that basis
    exactly constant, so the drifts are measured against the initial values.
    The state fidelity against the free-evolved state is also recorded when
    the full Hamiltonian is Hermitian (it isolates pure phase error: moduli
    constant but fidelity below 1). The state flows under the H that decomp
    was built from, in the free frame, at every order (see _state_flow).

    Only the n levels of the components of H_f that the state touches are
    walked (_touched_levels): elsewhere every population, coherence and
    free-phase overlap is exactly 0 at every t, so every drift there is 0.
    state is a ket (1-d, length d) or a Hermitian PSD density matrix, which
    is propagated as its rank-r factor rho0 = U U^dagger (see
    subdynamics.state_factor, which refuses any other d x d input), so a
    step costs O(r n^2). A rank-one state (a ket, or a pure density matrix) has
    sigma_ab(t) = k_a(t) b_b(t), so its coherence moduli are the real
    products |k_a| |b_b| and its fidelity is |<phi_free(t)|phi(t)>|; a
    mixed state takes the Uhlmann fidelity ||U_free(t)^dagger U(t)||_tr,
    the singular values of an r x r matrix. The time grid is walked in
    blocks (time_blocks), each reduced to its drifts and its fidelity
    minimum before the next.
    """
    basis = decomp.basis
    h = basis.hamiltonian(decomp.lam)
    hermitian = is_hermitian(h)
    g0 = basis.f_vectors.conj().T @ state_factor(state, basis.dim)
    levels = _touched_levels(h, g0)
    g0, f_values = g0[levels], basis.f_values[levels]
    flow_hermitian, flow = _state_flow(decomp, h, hermitian, levels, g0)
    n, rank = g0.shape
    pure = rank == 1
    if pure:
        g = g0[:, 0]
        pop0 = g * g.conj()
        mod0 = np.outer(np.abs(g), np.abs(g))
    else:
        sigma0 = g0 @ g0.conj().T
        pop0 = np.diagonal(sigma0)
        mod0 = np.abs(sigma0)
    ts = np.asarray(times, dtype=np.float64)
    pop_drift = 0.0
    coh_drift = 0.0
    fid_min = 1.0
    # a step holds the n x n moduli (or sigma) and the n x r flow,
    # populations, moduli and free phases: n (n + 4 r) entries
    for block in time_blocks(ts.shape[0], n * (n + 4 * rank)):
        ket, bra = flow(ts[block])
        if pure:
            k, b = ket[:, :, 0], bra[:, 0, :]
            pops = k * b
            k_mod = np.abs(k)
            b_mod = k_mod if flow_hermitian else np.abs(b)
            gap = k_mod[:, :, None] * b_mod[:, None, :]
        else:
            sigma = ket @ bra
            pops = np.diagonal(sigma, axis1=1, axis2=2)
            gap = np.abs(sigma)
        # a zero state walks no level and drifts by nothing
        pop_drift = max(pop_drift, float(np.max(np.abs(pops - pop0), initial=0.0)))
        gap -= mod0
        gap.reshape(gap.shape[0], -1)[:, :: n + 1] = 0.0
        coh_drift = max(coh_drift, float(np.max(np.abs(gap, out=gap), initial=0.0)))
        if hermitian:
            phases = np.exp((1j * f_values) * ts[block, None])
            overlaps = (g0.conj().T * phases[:, None, :]) @ ket
            if pure:
                fidelities = np.abs(overlaps[:, 0, 0])
            else:
                fidelities = np.linalg.svd(overlaps, compute_uv=False).sum(axis=-1)
            fid_min = float(np.min(fidelities, initial=fid_min))
    return {
        "population_drift": pop_drift,
        "coherence_modulus_drift": coh_drift,
        "fidelity_vs_free_min": fid_min if hermitian else float("nan"),
    }


def projected_space_evidence(decomp: Decomposition) -> dict[str, float]:
    """Kinetic eigenvalue structure split into population dyads, the diagonal
    nu = (i, i) of the energy matrix, and coherence dyads, its off-diagonal."""
    energies = decomp.energies
    shift = spectral_shift(decomp)
    populations = np.diagonal(energies)
    coherence = ~np.eye(decomp.basis.dim, dtype=bool)
    return {
        "population_dyad_shift": float(np.max(np.abs(populations))),
        "coherence_dyad_shift": float(np.max(np.abs(shift[coherence].real))),
        "coherence_dyad_decay": float(np.max(np.abs(energies[coherence].imag))),
        "population_dyad_decay": float(np.max(np.abs(populations.imag))),
    }


def _verdict_total(drift: float) -> str:
    return DECOHERES if drift > DEFAULT_VERDICT_TOL else DF


def _verdict_projected(shift: float, decay: float) -> str:
    if decay > DEFAULT_VERDICT_TOL:
        return DECOHERES
    if shift > DEFAULT_VERDICT_TOL:
        return PHASE_ERROR
    return DF


def classify(ops: ModelOperators, times, order="exact", eta: float = 0.0) -> DFReport:
    """Run the four-cell decoherence-free classification for one model on a time grid.

    The state is the model's canonical initial state and the scale its own
    ModelSpec.lam; total_space_evidence takes any other state. The
    canonical state is pure, so the total-space evidence and the projection
    both read its ket, and no d x d state is formed. The evidence walks the
    levels of the components of H_f that the ket touches: at the exact
    order it reads the decomposition's eigensystem of H on them; orders 1
    and 2 diagonalize H once for it, in the free frame, on those levels.
    """
    ts = np.asarray(times, dtype=np.float64)
    ket = canonical_initial_ket(ops)
    decomp = decompose_model(ops, order=order, eta=eta)

    total = total_space_evidence(decomp, ket, ts)
    projected = projected_space_evidence(decomp)
    diag_cond = check_diagonal_condition(decomp)
    tri_cond = check_triangular_condition(decomp)
    trace = fidelity_trace(decomp.energies, project_density(decomp, ket), ts)

    if diag_cond <= DEFAULT_VERDICT_TOL:
        row = "diagonal"
    elif tri_cond <= DEFAULT_VERDICT_TOL:
        row = "triangular"
    else:
        row = "general"

    evidence = dict(total)
    evidence.update(projected)
    verdicts = {cell: _verdict_total(evidence[value]) if decay is None
                else _verdict_projected(evidence[value], evidence[decay])
                for cell, (value, decay) in CELL_EVIDENCE.items()}
    evidence["diagonal_condition"] = diag_cond
    evidence["triangular_condition"] = tri_cond
    evidence["kinetic_fidelity_deviation"] = trace.max_deviation
    return DFReport(kind=ops.spec.kind, order=decomp.order, lam=decomp.lam, eta=eta,
                    tol=DEFAULT_VERDICT_TOL, verdicts=verdicts, evidence=evidence,
                    interaction_row=row)
