"""Four-cell decoherence-free classification on the reference models."""

import dataclasses
import json
import pathlib

import numpy as np
import pytest
import scipy.linalg

from oracle import (canonical_initial_state, dense_total_space_evidence, fidelity, random_density,
                    unvec, vec)
from subdyn import classify as classify_module
from subdyn import subdynamics
from subdyn.classify import (
    CELLS,
    DEFAULT_VERDICT_TOL,
    check_diagonal_condition,
    check_triangular_condition,
    classify,
    fidelity_trace,
    spectral_shift,
    total_space_evidence,
)
from subdyn.config import load_config
from subdyn.linalg import (DefectiveMatrixError, NonHermitianError,
                           NotPositiveSemidefiniteError, components, eig)
from subdyn.models import ModelSpec, build_model, canonical_initial_ket
from subdyn.subdynamics import (decompose, decompose_model, kinetic_consistency_residual,
                                project_density)

DIAG = ModelSpec(kind="diagonal", omega0=1.0, omega=1.3, g=0.5, lam=1.0,
                 fock_cutoff=2)
TRI = ModelSpec(kind="triangular", omega0=1.0, omega=1.3, g=0.4, lam=1.0,
                fock_cutoff=2, diagonal_in_free=True)
GEN = ModelSpec(kind="general", omega_atoms=(1.0, 1.0), omega=1.0, g=0.5,
                lam=0.05, bath=((0.9, 0.6),), fock_cutoff=1, bath_cutoff=1)
GEN48 = ModelSpec(kind="general", omega_atoms=(1.0, 1.0), omega=1.0, g=0.5,
                  lam=0.05, bath=((0.9, 0.6), (0.97, 0.6)), fock_cutoff=2,
                  bath_cutoff=1)
GENERAL_CONFIG = pathlib.Path(__file__).resolve().parents[1] / "configs" / "general.json"
# 81 points on [0, 20]: late enough for the general model's slow drifts
TIMES = np.linspace(0.0, 20.0, 81)


@pytest.fixture(scope="module")
def reports():
    return {spec.kind: classify(build_model(spec), TIMES) for spec in (DIAG, TRI, GEN)}


def test_reference_rows(reports):
    assert reports["diagonal"].table_row() == ("DF", "DF", "DF", "PE")
    assert reports["triangular"].table_row() == ("DF", "DF", "DF", "DF")
    assert reports["general"].table_row() == ("D", "D", "DF", "PE")


def test_interaction_rows(reports):
    assert reports["diagonal"].interaction_row == "diagonal"
    assert reports["triangular"].interaction_row == "triangular"
    assert reports["general"].interaction_row == "general"


def test_table_row_follows_cell_order(reports):
    rep = reports["general"]
    assert rep.table_row() == tuple(rep.verdicts[c] for c in CELLS)
    assert set(rep.verdicts) == set(CELLS)


def test_evidence_keys_present(reports):
    needed = {"population_drift", "coherence_modulus_drift",
              "population_dyad_shift", "coherence_dyad_shift",
              "coherence_dyad_decay", "population_dyad_decay",
              "diagonal_condition", "triangular_condition",
              "kinetic_fidelity_deviation", "fidelity_vs_free_min"}
    for rep in reports.values():
        assert needed <= set(rep.evidence)


def test_general_decay_evidence_separates_verdicts(reports):
    ev = reports["general"].evidence
    # total space decoheres for real, projected dyads only dephase
    assert ev["population_drift"] > 1e-4
    assert ev["coherence_modulus_drift"] > 1e-4
    assert ev["population_dyad_shift"] <= 1e-10
    assert ev["coherence_dyad_decay"] <= 1e-10
    assert ev["coherence_dyad_shift"] > 1e-8


def test_free_theory_is_decoherence_free_everywhere():
    rep = classify(build_model(dataclasses.replace(GEN, lam=0.0)), TIMES)
    assert rep.table_row() == ("DF",) * 4
    assert rep.interaction_row == "diagonal"


def test_commuting_interaction_only_dephases():
    # H1 is diagonal in the free eigenbasis, so the exact state differs from
    # the free one by phases alone: populations and moduli are pinned while
    # the state fidelity against free evolution genuinely dips
    rep = classify(build_model(DIAG), TIMES)
    assert rep.evidence["population_drift"] <= 1e-12
    assert rep.evidence["coherence_modulus_drift"] <= 1e-12
    assert rep.evidence["fidelity_vs_free_min"] < 0.9
    assert rep.evidence["fidelity_vs_free_min"] >= -1e-12


def test_interaction_conditions_on_reference_models():
    d_diag = decompose_model(build_model(DIAG))
    d_tri = decompose_model(build_model(TRI))
    d_gen = decompose_model(build_model(GEN))
    assert check_diagonal_condition(d_diag) <= 1e-12
    assert check_diagonal_condition(d_tri) > 1e-3
    assert check_triangular_condition(d_tri) <= 1e-10
    assert check_triangular_condition(d_gen) > 1e-8


def test_spectral_shift_vanishes_without_coupling():
    d = decompose_model(build_model(dataclasses.replace(GEN, lam=0.0)))
    np.testing.assert_allclose(spectral_shift(d), 0.0, atol=1e-14)


def test_fidelity_pure_state_overlap():
    rng = np.random.default_rng(11)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    got = fidelity(np.outer(a, a.conj()), np.outer(b, b.conj()))
    # rank-deficient inputs go through the clipped psd square root, which
    # costs a few digits
    assert got == pytest.approx(abs(np.vdot(a, b)), abs=1e-7)


def test_fidelity_of_state_with_itself():
    rng = np.random.default_rng(3)
    rho = random_density(rng, 5)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)
    sigma = random_density(rng, 5)
    assert fidelity(rho, sigma) == pytest.approx(fidelity(sigma, rho), abs=1e-10)


def test_fidelity_trace_unit_for_hermitian_models():
    for spec in (DIAG, TRI, GEN):
        ops = build_model(spec)
        decomp = decompose_model(ops)
        trace = fidelity_trace(decomp.energies,
                               project_density(decomp, canonical_initial_state(ops)), TIMES)
        assert trace.is_unit(), spec.kind
        assert trace.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert trace.values[0] == pytest.approx(1.0, abs=1e-12)


def test_fidelity_trace_of_real_energies_builds_no_table(monkeypatch):
    # with every Im E_nu zero, each term of the table is exactly 0, so the
    # trace skips it and still gives the table formula's bytes
    def no_table(steps, entries_per_step):
        raise AssertionError("the exponent table was built")

    monkeypatch.setattr(classify_module, "time_blocks", no_table)
    rng = np.random.default_rng(17)
    signed = rng.standard_normal(36) + 1j * np.where(rng.uniform(size=36) < 0.5, -0.0, 0.0)
    cases = [(unvec(signed, 6), unvec(rng.standard_normal(36) + 1j * rng.standard_normal(36), 6))]
    for spec, order in ((DIAG, "exact"), (TRI, "exact"), (GEN, "exact"), (GEN, "1")):
        ops = build_model(spec)
        decomp = decompose_model(ops, order=order)
        cases.append((decomp.energies, project_density(decomp, canonical_initial_state(ops))))
    for energies, coefficients in cases:
        assert not energies.imag.any()
        trace = fidelity_trace(energies, coefficients, TIMES)
        # the table formula over the Liouville index i + d j
        mags = np.abs(vec(coefficients))
        weights = mags / mags.sum()
        table = 1.0 + ((np.exp(np.outer(TIMES, vec(energies).imag)) - 1.0)
                       * weights).sum(axis=1)
        assert trace.values.tobytes() == table.tobytes()
        assert trace.weights.ravel(order="F").tobytes() == weights.tobytes()


def _full_table(energies, coefficients, times):
    """The fidelity trace summed over every dyad, zero weights included,
    of Liouville vectors."""
    weights = np.abs(coefficients) / np.abs(coefficients).sum()
    return 1.0 + ((np.exp(np.outer(times, energies.imag)) - 1.0) * weights).sum(axis=1)


def test_fidelity_trace_sums_over_the_nonzero_weights():
    rng = np.random.default_rng(43)
    energies = rng.standard_normal(36) + 0.05j * rng.standard_normal(36)
    coefficients = rng.standard_normal(36) + 1j * rng.standard_normal(36)
    # no zero weight: the full table's bytes
    trace = fidelity_trace(unvec(energies, 6), unvec(coefficients, 6), TIMES)
    assert trace.values.tobytes() == _full_table(energies, coefficients, TIMES).tobytes()
    # zero weights leave the sum, which then rounds in another grouping
    coefficients[::3] = 0.0
    trace = fidelity_trace(unvec(energies, 6), unvec(coefficients, 6), TIMES)
    np.testing.assert_allclose(trace.values, _full_table(energies, coefficients, TIMES),
                               rtol=0, atol=1e-15)
    assert trace.weights.shape == (6, 6)
    assert np.count_nonzero(trace.weights) == 24
    # a zero weight on a growing E_nu costs nothing: the full table would
    # overflow there and read inf * 0 = NaN
    energies[0] = 1j * 50.0
    trace = fidelity_trace(unvec(energies, 6), unvec(coefficients, 6), TIMES)
    assert np.all(np.isfinite(trace.values))


def test_fidelity_trace_decays_with_retarded_regulator():
    ops = build_model(GEN)
    d = decompose_model(ops, order=2, eta=0.3)
    trace = fidelity_trace(d.energies, project_density(d, canonical_initial_state(ops)),
                           np.linspace(0.0, 10.0, 41))
    assert np.all(trace.values <= 1.0 + 1e-12)
    assert trace.max_deviation > 1e-6
    assert not trace.is_unit()


def test_fidelity_trace_rejects_zero_state():
    d = decompose_model(build_model(DIAG))
    with pytest.raises(ValueError, match="weight"):
        fidelity_trace(d.energies, project_density(d, np.zeros((d.basis.dim, d.basis.dim))),
                       TIMES)


def test_total_space_evidence_accepts_explicit_state_and_grid():
    ops = build_model(DIAG)
    rho0 = np.eye(ops.dim) / ops.dim
    ev = total_space_evidence(decompose_model(ops), rho0, np.linspace(0.0, 5.0, 11))
    # the maximally mixed state commutes with everything
    assert ev["population_drift"] <= DEFAULT_VERDICT_TOL
    assert ev["coherence_modulus_drift"] <= DEFAULT_VERDICT_TOL


def test_report_records_run_parameters(reports):
    rep = reports["general"]
    assert rep.kind == "general"
    assert rep.order == "exact"
    assert rep.lam == pytest.approx(0.05)
    assert rep.eta == 0.0


def _shipped_general():
    config = load_config(json.loads(GENERAL_CONFIG.read_text()))
    return config.model, config.times()


@pytest.mark.parametrize("case", ["configs/general.json", "general d=48"])
def test_fidelity_vs_free_min_is_the_pure_state_overlap(case):
    # the canonical state is pure, so the fidelity against free evolution is
    # |<e^{-i H0 t} phi | e^{-i H t} phi>|, here from two expm per point
    spec, times = _shipped_general() if case == "configs/general.json" \
        else (GEN48, np.linspace(0.0, 20.0, 81))
    ops = build_model(spec)
    rho0 = canonical_initial_state(ops)
    phi = np.linalg.eigh(rho0)[1][:, -1]
    h = ops.hamiltonian()
    expected = min(abs(np.vdot(scipy.linalg.expm(-1j * t * ops.h0) @ phi,
                               scipy.linalg.expm(-1j * t * h) @ phi)) for t in times)
    got = classify(ops, times).evidence["fidelity_vs_free_min"]
    assert got == pytest.approx(expected, abs=1e-12)


def _random_state(rng, dim, rank):
    if rank is None:
        return random_density(rng, dim)
    a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _assert_matches_dense(decomp, h, state, times):
    # h is the decomposition's own H in the original basis, which the oracle evolves by expm
    got = total_space_evidence(decomp, state, times)
    rho0 = np.outer(state, state.conj()) if state.ndim == 1 else state
    want = dense_total_space_evidence(decomp, h, rho0, times)
    assert set(got) == set(want)
    for key in ("population_drift", "coherence_modulus_drift"):
        assert got[key] == pytest.approx(want[key], abs=1e-12), key
    # NaN on both sides when H is not Hermitian
    np.testing.assert_allclose(got["fidelity_vs_free_min"],
                               want["fidelity_vs_free_min"], atol=1e-9)


@pytest.mark.parametrize("rank", [1, 2, None, "ket"], ids=["pure", "rank2", "full", "ket"])
@pytest.mark.parametrize("spec", [DIAG, TRI, GEN], ids=lambda s: s.kind)
def test_total_space_evidence_matches_dense_reference(spec, rank):
    ops = build_model(spec)
    rng = np.random.default_rng(17)
    if rank == "ket":
        # the oracle evolves the ket's density matrix np.outer(psi, psi*)
        state = rng.standard_normal(ops.dim) + 1j * rng.standard_normal(ops.dim)
        state /= np.linalg.norm(state)
    else:
        state = _random_state(rng, ops.dim, rank)
        assert np.linalg.matrix_rank(state) == (ops.dim if rank is None else rank)
    _assert_matches_dense(decompose_model(ops), ops.hamiltonian(), state,
                          np.linspace(0.0, 10.0, 41))


def _jordan_decomposition(dim):
    """(order-1 decomposition, H) of H0 = diag(0, 0, 2.5, 4)[:dim] and H1 = E_01.

    Levels 0 and 1 of H0 are degenerate, so eta > 0 regularizes them, and
    H = H_f is a Jordan block at 0: no eigenbasis.
    """
    h0 = np.diag([0.0, 0.0, 2.5, 4.0][:dim])
    h1 = np.zeros((dim, dim))
    h1[0, 1] = 1.0
    return decompose(h0, h1, lam=1.0, order="1", eta=0.05), h0 + h1


@pytest.mark.parametrize("rank", [1, None], ids=["pure", "full"])
def test_total_space_evidence_defective_hamiltonian(rank):
    # the decomposition's own H is defective: the factors take the expm route
    rng = np.random.default_rng(4)
    for dim in (2, 4):
        decomp, h = _jordan_decomposition(dim)
        with pytest.raises(DefectiveMatrixError):
            eig(h)
        _assert_matches_dense(decomp, h, _random_state(rng, dim, rank), np.linspace(0.0, 2.0, 9))


def _touched(decomp, state):
    """Levels of the components of H_f that the state's free-frame factor touches."""
    basis = decomp.basis
    labels = components(np.diag(basis.f_values) + decomp.lam * decomp.h1_f)
    rho = np.outer(state, state.conj()) if state.ndim == 1 else state
    populated = np.diagonal(basis.f_vectors.conj().T @ rho @ basis.f_vectors)
    return np.flatnonzero(np.isin(labels, labels[np.flatnonzero(populated)]))


def _framed(spec, order="exact", eta=0.0):
    """(decomposition, H, component labels) of a model rebuilt in its free
    frame: H0 = diag(eps), so F = I and a state is its own free-frame factor."""
    decomp = decompose_model(build_model(spec), order=order, eta=eta)
    h0 = np.diag(decomp.basis.f_values)
    h = h0 + decomp.lam * decomp.h1_f
    return decompose(h0, decomp.h1_f, lam=decomp.lam, order=order, eta=eta), h, components(h)


def _on_levels(rng, dim, levels, rank):
    """A random ket (rank "ket") or rank-r density matrix on the given levels only."""
    cols = 1 if rank == "ket" else rank
    a = np.zeros((dim, cols), dtype=complex)
    a[levels] = rng.standard_normal((len(levels), cols)) + 1j * rng.standard_normal(
        (len(levels), cols))
    if rank == "ket":
        return a[:, 0] / np.linalg.norm(a)
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("order, eta", [("exact", 0.0), ("1", 0.0), ("2", 0.0), ("2", 0.05)])
@pytest.mark.parametrize("spec", [DIAG, TRI, GEN], ids=lambda s: s.kind)
def test_canonical_ket_walk_matches_dense_reference(spec, order, eta):
    # the canonical ket touches a few components of H_f; the walk reads
    # those levels only, the oracle flows every level
    ops = build_model(spec)
    decomp = decompose_model(ops, order=order, eta=eta)
    ket = canonical_initial_ket(ops)
    assert 0 < _touched(decomp, ket).size < ops.dim
    _assert_matches_dense(decomp, ops.hamiltonian(), ket, np.linspace(0.0, 10.0, 41))


@pytest.mark.parametrize("order", ["exact", "1", "2"])
@pytest.mark.parametrize("spec", [TRI, GEN], ids=lambda s: s.kind)
def test_states_on_some_components_match_dense_reference(spec, order):
    # a random ket on one component and a rank-2 state on two
    decomp, h, labels = _framed(spec, order=order, eta=0.05 if order == "2" else 0.0)
    rng = np.random.default_rng(37)
    first, second = np.unique(labels)[:2]
    one = np.flatnonzero(labels == first)
    two = np.flatnonzero(np.isin(labels, (first, second)))
    for levels, rank in ((one, "ket"), (two, 2)):
        state = _on_levels(rng, h.shape[0], levels, rank)
        np.testing.assert_array_equal(_touched(decomp, state), levels)
        _assert_matches_dense(decomp, h, state, np.linspace(0.0, 10.0, 41))


def test_state_on_the_jordan_block_matches_dense_reference():
    # H_f = H is a Jordan block on levels 0 and 1 and diagonal on 2 and 3:
    # a state on the block takes the expm route on those levels alone
    decomp, h = _jordan_decomposition(4)
    rng = np.random.default_rng(5)
    for levels, rank in (([0, 1], "ket"), ([0, 1], 2), ([0, 1, 2], 2)):
        state = _on_levels(rng, 4, levels, rank)
        np.testing.assert_array_equal(_touched(decomp, state), levels)
        _assert_matches_dense(decomp, h, state, np.linspace(0.0, 2.0, 9))


@pytest.mark.parametrize("order", ["exact", "1"])
@pytest.mark.parametrize("spec", [DIAG, TRI, GEN], ids=lambda s: s.kind)
def test_walk_steps_hold_the_touched_levels_only(monkeypatch, spec, order):
    # a step of the walk holds an n x n table and its n-long side arrays
    # over the n touched levels; a state on every component walks all d
    entries = []
    blocks = classify_module.time_blocks

    def recording(steps, entries_per_step):
        entries.append(entries_per_step)
        return blocks(steps, entries_per_step)

    monkeypatch.setattr(classify_module, "time_blocks", recording)
    ops = build_model(spec)
    decomp = decompose_model(ops, order=order)
    ket = canonical_initial_ket(ops)
    n = _touched(decomp, ket).size
    assert n < ops.dim
    total_space_evidence(decomp, ket, TIMES)
    assert entries == [n * (n + 4)]
    rng = np.random.default_rng(13)
    entries.clear()
    total_space_evidence(decomp, _random_state(rng, ops.dim, 2), TIMES)
    assert entries == [ops.dim * (ops.dim + 8)]


@pytest.mark.parametrize("layout", ["C", "F"])
def test_principal_block_keeps_the_memory_order(layout):
    # BLAS rounds by layout: the block over every level is the matrix's
    # own bytes in its own order, so a state on every component walks
    # exactly what an unsliced walk would
    rng = np.random.default_rng(5)
    m = np.asarray(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)), order=layout)
    whole = classify_module._principal(m, np.arange(6))
    assert whole.flags.c_contiguous == m.flags.c_contiguous
    assert whole.flags.f_contiguous == m.flags.f_contiguous
    assert whole.tobytes(order="A") == m.tobytes(order="A")
    levels = np.array([1, 4, 5])
    np.testing.assert_array_equal(classify_module._principal(m, levels), m[np.ix_(levels, levels)])


@pytest.mark.parametrize("order", ["exact", "1", "2"])
@pytest.mark.parametrize("spec", [DIAG, TRI, GEN], ids=lambda s: s.kind)
def test_zero_state_walks_no_level(spec, order):
    # a zero density matrix touches no component: nothing drifts, and its
    # overlap with the free-evolved state is 0, as over every level
    ops = build_model(spec)
    decomp = decompose_model(ops, order=order)
    evidence = total_space_evidence(decomp, np.zeros((ops.dim, ops.dim)), TIMES)
    assert evidence["population_drift"] == evidence["coherence_modulus_drift"] == 0.0
    if spec is TRI:
        assert np.isnan(evidence["fidelity_vs_free_min"])
    else:
        assert evidence["fidelity_vs_free_min"] == 0.0


@pytest.mark.parametrize("spec", [GEN, TRI], ids=["hermitian_h", "non_hermitian_h"])
@pytest.mark.parametrize("state, error", [
    ("non_hermitian", NonHermitianError),
    ("negative", NotPositiveSemidefiniteError),
    ("short_ket", ValueError),
    ("non_finite_ket", ValueError),
    ("non_finite_matrix", ValueError),
    ("wrong_size_matrix", ValueError),
])
def test_total_space_evidence_rejects_invalid_state(spec, state, error):
    # subdynamics.state_factor is the one boundary every state crosses, so
    # the projection and the kinetic check refuse what the evidence refuses
    ops = build_model(spec)
    rho0 = np.zeros((ops.dim, ops.dim), dtype=complex)
    match = None
    if state == "non_hermitian":
        rho0[0, 0] = 1.0
        rho0[0, 1] = 0.5
    elif state == "negative":
        rho0[0, 0] = 1.5
        rho0[1, 1] = -0.5
    elif state == "short_ket":
        rho0 = np.full(ops.dim - 1, (ops.dim - 1) ** -0.5, dtype=complex)
        match = "ket must have length"
    elif state == "non_finite_ket":
        rho0 = np.zeros(ops.dim, dtype=complex)
        rho0[0] = complex(1.0, np.nan)
        match = "ket contains non-finite"
    elif state == "non_finite_matrix":
        rho0[0, 0] = np.inf
        match = "rho0 contains non-finite"
    else:
        rho0 = np.eye(ops.dim + 1) / (ops.dim + 1)
        match = "rho0 must be"
    for order in ("exact", "1", "2"):
        decomp = decompose_model(ops, order=order)
        with pytest.raises(error, match=match):
            total_space_evidence(decomp, rho0, TIMES)
        with pytest.raises(error, match=match):
            project_density(decomp, rho0)
        with pytest.raises(error, match=match):
            kinetic_consistency_residual(decomp, ops.hamiltonian(), rho0, 1.0)


def test_classify_propagates_the_canonical_ket_unfactored(monkeypatch):
    # the canonical state is pure: classify hands total_space_evidence and
    # project_density its ket, so no density matrix is factored by an eigh
    # at subdynamics.state_factor, the one boundary both cross
    def refuse(matrix):
        raise AssertionError("classify factored a density matrix")

    monkeypatch.setattr(subdynamics, "psd_factor", refuse)
    for spec in (DIAG, TRI, GEN):
        for order in ("exact", "1", "2"):
            classify(build_model(spec), TIMES, order=order)


@pytest.mark.parametrize("order", ["exact", "1", "2"])
def test_classify_diagonalizes_h_once(monkeypatch, order):
    # the decomposition diagonalizes H0 and, at the exact order, H in the
    # free frame; the evidence then reads that eigensystem, so H is
    # diagonalized once per run at every order
    calls = []

    def counted(module):
        inner = module.eig

        def eig(matrix):
            calls.append(module.__name__)
            return inner(matrix)
        return eig

    for module in (subdynamics, classify_module):
        monkeypatch.setattr(module, "eig", counted(module))
    for spec in (DIAG, TRI, GEN):
        calls.clear()
        classify(build_model(spec), TIMES, order=order)
        assert len(calls) == 2
        assert calls.count("subdyn.classify") == (0 if order == "exact" else 1)


@pytest.mark.parametrize("spec", [DIAG, TRI, GEN], ids=lambda s: s.kind)
def test_total_space_evidence_reads_the_exact_eigensystem(spec):
    # every order flows the same free-frame H: at the exact order the
    # decomposition's eigensystem gives the evidence that order 1's fresh
    # eig of H_f gives
    ops = build_model(spec)
    ket = canonical_initial_ket(ops)
    got = total_space_evidence(decompose_model(ops), ket, TIMES)
    want = total_space_evidence(decompose_model(ops, order="1"), ket, TIMES)
    assert got.keys() == want.keys()
    for key in want:
        np.testing.assert_allclose(got[key], want[key], rtol=0, atol=1e-12, err_msg=key)


@pytest.mark.parametrize("order, eta", [("exact", 0.0), ("1", 0.0), ("1", 0.05), ("2", 0.0),
                                        ("2", 0.05)])
@pytest.mark.parametrize("spec", [DIAG, TRI, GEN], ids=lambda s: s.kind)
def test_project_density_reads_a_ket_as_its_pure_state(spec, order, eta):
    ops = build_model(spec)
    decomp = decompose_model(ops, order=order, eta=eta)
    ket = canonical_initial_ket(ops)
    rng = np.random.default_rng(31)
    other = rng.standard_normal(ops.dim) + 1j * rng.standard_normal(ops.dim)
    for psi in (ket, other / np.linalg.norm(other)):
        np.testing.assert_allclose(project_density(decomp, psi),
                                   project_density(decomp, np.outer(psi, psi.conj())),
                                   rtol=0, atol=1e-13)


def _walk_case(case, rank):
    """(decomposition, H, rho0) for a Hermitian, triangular or defective H,
    or a state on one component of a Hermitian H."""
    if case == "defective":
        # a Jordan block in a 4-level space: no eigenbasis, the expm route
        decomp, h = _jordan_decomposition(4)
    elif case == "one_component":
        # the walk reads the component's levels only
        decomp, h, labels = _framed(GEN, order="2", eta=0.05)
        levels = np.flatnonzero(labels == labels[0])
        rho0 = np.zeros(h.shape, dtype=complex)
        rho0[np.ix_(levels, levels)] = _random_state(np.random.default_rng(23), levels.size, rank)
        assert _touched(decomp, rho0).size == levels.size < h.shape[0]
        return decomp, h, rho0
    else:
        ops = build_model(GEN if case == "hermitian" else TRI)
        h, decomp = ops.hamiltonian(), decompose_model(ops, order=2, eta=0.05)
    rho0 = _random_state(np.random.default_rng(23), h.shape[0], rank)
    return decomp, h, rho0


@pytest.mark.parametrize("rank", [1, 2, None], ids=["pure", "rank2", "full"])
@pytest.mark.parametrize("case", ["hermitian", "triangular", "defective", "one_component"])
def test_time_grid_blocks_give_identical_results(monkeypatch, case, rank):
    # one step per block, 4 steps per block of the evidence walk (37 is no
    # multiple of 4), and the whole grid in one block give the same bytes
    decomp, h, rho0 = _walk_case(case, rank)
    times = np.linspace(0.0, 7.0, 37)
    coeff = project_density(decomp, rho0)
    n, r = _touched(decomp, rho0).size, np.linalg.matrix_rank(rho0)
    results = []
    for entries in (1, 4 * n * (n + 4 * r), 2 ** 40):
        monkeypatch.setattr(subdynamics, "_BLOCK_ENTRIES", entries)
        results.append((total_space_evidence(decomp, rho0, times),
                        fidelity_trace(decomp.energies, coeff, times).values))
    (evidence, values), *others = results
    assert np.isnan(evidence["fidelity_vs_free_min"]) == (case in ("triangular", "defective"))
    for other_evidence, other_values in others:
        assert other_evidence.keys() == evidence.keys()
        # NaN fidelity on both sides when H is not Hermitian
        np.testing.assert_array_equal(list(other_evidence.values()), list(evidence.values()))
        assert other_values.tobytes() == values.tobytes()
