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

from .linalg import as_complex_matrix, is_hermitian, sqrtm_psd
from .models import ModelOperators, canonical_initial_state
from .subdynamics import Decomposition, decompose_model, evolve_grid, project_density

DF = "DF"
PHASE_ERROR = "PE"
DECOHERES = "D"
CELLS = ("stationary_total", "evolution_total", "stationary_proj", "evolution_proj")

DEFAULT_TIMES = np.linspace(0.0, 20.0, 81)
DEFAULT_VERDICT_TOL = 1e-8


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

    def is_unit(self, tol: float = 1e-9) -> bool:
        return self.max_deviation <= tol


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


def fidelity(rho_a, rho_b, tol: float = 1e-9) -> float:
    """Density-matrix fidelity Tr sqrt(sqrt(a) b sqrt(a))."""
    a = as_complex_matrix(rho_a, "rho_a")
    b = as_complex_matrix(rho_b, "rho_b")
    root = sqrtm_psd(a, tol)
    inner = root @ b @ root
    return float(np.trace(sqrtm_psd(inner, tol)).real)


def check_diagonal_condition(decomp: Decomposition) -> float:
    """Residual of P_nu L1 Q_nu = 0 for every nu: largest off-diagonal
    interaction element in the dyad frame.

    The off-diagonal entries of L1 = [h1_f, .] are the off-diagonal entries
    of h1_f and their negatives, so this reads h1_f instead of building L1.
    """
    off = decomp.lam * decomp.h1_f
    np.fill_diagonal(off, 0.0)
    return float(np.max(np.abs(off)))


def spectral_shift(decomp: Decomposition) -> np.ndarray:
    """Per-nu kinetic eigenvalue shift E_nu - E0_nu."""
    return decomp.energies - decomp.basis.e0


def check_triangular_condition(decomp: Decomposition) -> float:
    """Residual of the no-backfeed condition: the interaction may leak dyads
    into the complement, but no dyad's kinetic eigenvalue moves."""
    return float(np.max(np.abs(spectral_shift(decomp))))


def fidelity_trace(decomp: Decomposition, rho0, times=None) -> FidelityTrace:
    """Kinetic fidelity of the projected evolution of rho0."""
    ts = DEFAULT_TIMES if times is None else np.asarray(times, dtype=np.float64)
    coeff = project_density(decomp, rho0).coefficients
    mags = np.abs(coeff)
    total = mags.sum()
    if total <= 0.0:
        raise ValueError("initial state has no weight on any dyad")
    weights = mags / total
    moduli = np.exp(np.outer(ts, decomp.energies.imag))
    return FidelityTrace(times=ts, values=moduli @ weights, weights=weights)


def total_space_evidence(decomp: Decomposition, hamiltonian, rho0, times) -> dict[str, float]:
    """Drift of the exact state against free evolution, in the free eigenbasis.

    Free evolution leaves populations and coherence moduli in that basis
    exactly constant, so the drifts are measured against the initial values.
    The state fidelity against the free-evolved state is also recorded when
    the full Hamiltonian is Hermitian (it isolates pure phase error: moduli
    constant but fidelity below 1).
    """
    basis = decomp.basis
    f = basis.f_vectors
    rhos = evolve_grid(hamiltonian, rho0, times)
    sigma0 = f.conj().T @ as_complex_matrix(rho0, "rho0") @ f
    pop_drift = 0.0
    coh_drift = 0.0
    fid_min = 1.0
    hermitian = is_hermitian(as_complex_matrix(hamiltonian, "hamiltonian"))
    diag_idx = np.arange(basis.dim)
    for k, t in enumerate(np.asarray(times, dtype=np.float64)):
        sigma = f.conj().T @ rhos[k] @ f
        pop_drift = max(pop_drift, float(np.max(np.abs(
            sigma[diag_idx, diag_idx] - sigma0[diag_idx, diag_idx]))))
        gap = np.abs(sigma) - np.abs(sigma0)
        np.fill_diagonal(gap, 0.0)
        coh_drift = max(coh_drift, float(np.max(np.abs(gap))))
        if hermitian:
            phases = np.exp(-1j * basis.f_values * t)
            sigma_free = (phases[:, None] * sigma0) * phases.conj()[None, :]
            rho_free = f @ sigma_free @ f.conj().T
            fid_min = min(fid_min, fidelity(rho_free, rhos[k]))
    return {
        "population_drift": pop_drift,
        "coherence_modulus_drift": coh_drift,
        "fidelity_vs_free_min": fid_min if hermitian else float("nan"),
    }


def projected_space_evidence(decomp: Decomposition) -> dict[str, float]:
    """Kinetic eigenvalue structure split into population and coherence dyads."""
    shift = spectral_shift(decomp)
    pop = np.array([nu.is_population for nu in decomp.basis.nu_indices])
    return {
        "population_dyad_shift": float(np.max(np.abs(decomp.energies[pop]))),
        "coherence_dyad_shift": float(np.max(np.abs(shift[~pop].real))),
        "coherence_dyad_decay": float(np.max(np.abs(decomp.energies[~pop].imag))),
        "population_dyad_decay": float(np.max(np.abs(decomp.energies[pop].imag))),
    }


def _verdict_total(drift: float, tol: float) -> str:
    return DECOHERES if drift > tol else DF


def _verdict_projected(shift: float, decay: float, tol: float) -> str:
    if decay > tol:
        return DECOHERES
    if shift > tol:
        return PHASE_ERROR
    return DF


def classify(ops: ModelOperators, rho0=None, order="exact", eta: float = 0.0,
             lam: float | None = None, times=None,
             tol: float = DEFAULT_VERDICT_TOL) -> DFReport:
    """Run the four-cell decoherence-free classification for one model."""
    ts = DEFAULT_TIMES if times is None else np.asarray(times, dtype=np.float64)
    state = canonical_initial_state(ops) if rho0 is None else as_complex_matrix(rho0, "rho0")
    scale = ops.spec.lam if lam is None else lam
    decomp = decompose_model(ops, order=order, eta=eta, lam=scale)
    h_full = ops.hamiltonian(scale)

    total = total_space_evidence(decomp, h_full, state, ts)
    projected = projected_space_evidence(decomp)
    diag_cond = check_diagonal_condition(decomp)
    tri_cond = check_triangular_condition(decomp)
    trace = fidelity_trace(decomp, state, ts)

    if diag_cond <= tol:
        row = "diagonal"
    elif tri_cond <= tol:
        row = "triangular"
    else:
        row = "general"

    verdicts = {
        "stationary_total": _verdict_total(total["population_drift"], tol),
        "evolution_total": _verdict_total(total["coherence_modulus_drift"], tol),
        "stationary_proj": _verdict_projected(projected["population_dyad_shift"],
                                              projected["population_dyad_decay"], tol),
        "evolution_proj": _verdict_projected(projected["coherence_dyad_shift"],
                                             projected["coherence_dyad_decay"], tol),
    }
    evidence = dict(total)
    evidence.update(projected)
    evidence["diagonal_condition"] = diag_cond
    evidence["triangular_condition"] = tri_cond
    evidence["kinetic_fidelity_deviation"] = trace.max_deviation
    return DFReport(kind=ops.spec.kind, order=decomp.order, lam=scale, eta=eta,
                    tol=tol, verdicts=verdicts, evidence=evidence,
                    interaction_row=row)
