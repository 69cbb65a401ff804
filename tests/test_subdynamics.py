"""Projected-subspace engine against brute-force commutator evolution."""

import dataclasses
import pathlib

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import (
    canonical_initial_state,
    columns,
    creation_resolvent,
    dense_perturbative,
    dyad_index,
    evolve_exact,
    free_energies,
    from_frame,
    level_pair,
    hamiltonian_spectral_projectors,
    interaction,
    liouvillian,
    omega,
    pairing,
    projector_sum,
    random_density,
    stationary_residual,
    theta_matrix,
    to_frame,
    total_projector,
    unvec,
    vec,
)
from subdyn import subdynamics
from subdyn.config import load_config, read_config
from subdyn.linalg import DEGENERACY_TOL, NonHermitianError, components, is_hermitian, norm_scale
from subdyn.models import ModelSpec, build_model, canonical_initial_ket
from subdyn.subdynamics import (
    ResonanceError,
    block_residual,
    completeness_residual,
    decompose,
    decompose_model,
    kinetic_consistency_residual,
    liouville_basis,
    normalize_order,
    project_density,
    similarity_residual,
)

GEN_SPEC = ModelSpec(kind="general", omega_atoms=(1.0, 1.0), omega=1.0, g=0.5,
                     lam=0.05, bath=((0.9, 0.6),), fock_cutoff=1, bath_cutoff=1)
TRI_FREE_SPEC = ModelSpec(kind="triangular", omega0=1.0, omega=1.3, g=0.4,
                          lam=1.0, fock_cutoff=2, diagonal_in_free=True)
DIAG_SPEC = ModelSpec(kind="diagonal", omega0=1.0, omega=1.3, g=0.5, lam=1.0,
                      fock_cutoff=2)


@pytest.fixture(scope="module")
def gen_ops():
    return build_model(GEN_SPEC)


@pytest.fixture(scope="module")
def gen_exact(gen_ops):
    return decompose_model(gen_ops, order="exact")


@pytest.fixture(scope="module")
def tri_first():
    return decompose_model(build_model(TRI_FREE_SPEC), order="1")


def test_normalize_order():
    assert normalize_order(1) == "1"
    assert normalize_order("exact") == "exact"
    with pytest.raises(ValueError):
        normalize_order("3")


def test_liouville_basis_layout():
    h0 = np.diag([0.0, 1.0, 2.5])
    basis = liouville_basis(h0, np.zeros((3, 3)))
    np.testing.assert_allclose(basis.f_values, [0.0, 1.0, 2.5])
    assert basis.dim == 3
    # without interaction the energy matrix is E[i, j] = eps_i - eps_j, the
    # dyad (i, j) at Liouville index i + 3 j of the dense routes
    energies = decompose(basis, 0.0).energies
    assert energies.shape == (3, 3)
    e0 = free_energies(basis)
    for j in range(3):
        for i in range(3):
            assert energies[i, j] == e0[i + 3 * j] == basis.f_values[i] - basis.f_values[j]


def test_liouville_basis_rejects_a_non_hermitian_free_hamiltonian():
    # linalg.eig would take its general path on this H0 without complaint:
    # liouville_basis checks hermiticity itself
    h0 = np.array([[0.0, 1.0], [0.0, 1.0]])
    with pytest.raises(NonHermitianError, match="free Hamiltonian must be Hermitian"):
        liouville_basis(h0, np.zeros((2, 2)))


BAD_INTERACTIONS = {
    "non_finite": (np.array([[0.0, np.nan], [np.nan, 0.0]]), "h1 contains non-finite entries"),
    "non_square": (np.zeros((2, 3)), "h1 must be a square 2-d array"),
    "other_shape": (np.zeros((3, 3)), "h1 must have the shape of h0"),
}


@pytest.mark.parametrize("bad", list(BAD_INTERACTIONS))
def test_liouville_basis_rejects_a_bad_interaction(bad):
    # the frame is the one place where H1 enters, so it is checked there
    h1, match = BAD_INTERACTIONS[bad]
    with pytest.raises(ValueError, match=match):
        liouville_basis(np.diag([0.0, 1.0]), h1)


BAD_KETS = {
    "short": (lambda d: np.full(d - 1, (d - 1) ** -0.5, dtype=complex), "ket must have length"),
    "non_finite": (lambda d: np.eye(1, d, dtype=complex)[0] * complex(1.0, np.nan),
                   "ket contains non-finite entries"),
}


@pytest.mark.parametrize("bad", list(BAD_KETS))
def test_projection_and_kinetic_check_reject_a_bad_ket(gen_ops, gen_exact, bad):
    make, match = BAD_KETS[bad]
    ket = make(gen_ops.dim)
    with pytest.raises(ValueError, match=match):
        project_density(gen_exact, ket)
    with pytest.raises(ValueError, match=match):
        kinetic_consistency_residual(gen_exact, gen_ops.hamiltonian(), ket, 1.0)


def test_frame_roundtrip(gen_ops):
    basis = liouville_basis(gen_ops.h0, gen_ops.h1)
    rng = np.random.default_rng(0)
    rho = random_density(rng, gen_ops.dim)
    np.testing.assert_allclose(from_frame(basis, to_frame(basis, rho)), rho,
                               atol=1e-12)


def test_from_frame_of_unit_vector_is_dyad_outer(gen_ops):
    basis = liouville_basis(gen_ops.h0, gen_ops.h1)
    unit = np.zeros(basis.dim ** 2)
    unit[dyad_index(basis, (2, 5))] = 1.0
    m = from_frame(basis, unit)
    expected = np.outer(basis.f_vectors[:, 2], basis.f_vectors[:, 5].conj())
    np.testing.assert_allclose(m, expected)


def test_first_order_creation_frozen_value(tri_first):
    # single hop of amplitude 0.4 between free levels 1 and 5, gap
    # E0(5,0) - E0(1,0) = 5.4 - 0.9, so the only first-order component of
    # the (5,0) creation column is 0.4 / 4.5 on the (1,0) dyad
    basis = tri_first.basis
    np.testing.assert_allclose(np.abs(basis.f_vectors), np.eye(6), atol=1e-12)
    col = columns(tri_first)[0][:, dyad_index(basis, (5, 0))]
    expected = np.zeros(36, dtype=np.complex128)
    expected[1] = 0.4 / 4.5
    np.testing.assert_allclose(col, expected, atol=1e-14)


def test_first_order_destruction_frozen_value(tri_first):
    # mirror row: the (1,0) destruction row sees the (5,0) dyad with the
    # opposite-sign denominator, and one-sidedness kills everything else
    row = columns(tri_first)[1][dyad_index(tri_first.basis, (1, 0)), :]
    expected = np.zeros(36, dtype=np.complex128)
    expected[5] = -0.4 / 4.5
    np.testing.assert_allclose(row, expected, atol=1e-14)


def test_first_order_matches_elementwise_loop(gen_ops):
    # independent oracle: scalar loop over the textbook matrix elements
    decomp = decompose_model(gen_ops, order="1")
    basis, v1, lam = decomp.basis, interaction(decomp), decomp.lam
    c = columns(decomp)[0]
    n = basis.dim ** 2
    e0 = free_energies(basis)
    scale = max(1.0, float(np.max(np.abs(e0))))
    for k in [3, 17, 100, 255]:
        expected = np.zeros(n, dtype=np.complex128)
        for m in range(n):
            gap = e0[k] - e0[m]
            if m == k or abs(gap) <= 1e-8 * scale:
                continue
            expected[m] = lam * v1[m, k] / gap
        np.testing.assert_allclose(c[:, k], expected, atol=1e-13)


def test_second_order_energies_match_textbook_loop(gen_ops):
    decomp = decompose_model(gen_ops, order="1")
    basis, v1, lam = decomp.basis, interaction(decomp), decomp.lam
    n = basis.dim ** 2
    e0 = free_energies(basis)
    scale = max(1.0, float(np.max(np.abs(e0))))
    expected = e0.copy()
    for k in range(n):
        expected[k] += lam * v1[k, k]
        for m in range(n):
            gap = e0[k] - e0[m]
            if m == k or abs(gap) <= 1e-8 * scale:
                continue
            expected[k] += lam ** 2 * v1[k, m] * v1[m, k] / gap
    # order 1's creation columns already give the second-order energies
    np.testing.assert_allclose(vec(decomp.energies), expected, atol=1e-12)


def test_second_order_column_adds_one_resolvent_power(gen_ops):
    one = decompose_model(gen_ops, order="1")
    two = decompose_model(gen_ops, order="2")
    # the order-2 correction is the squared-resolvent term, O(lam^2), on
    # the creation columns and the destruction rows alike
    bound = 10 * one.lam ** 2 * np.linalg.norm(interaction(one)) ** 2
    for dense_two, dense_one in zip(columns(two), columns(one)):
        assert 0 < np.linalg.norm(dense_two - dense_one) < bound


def test_resonance_raises_on_coupled_degeneracy():
    h0 = np.diag([0.0, 0.0, 1.0])
    h1 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    basis = liouville_basis(h0, h1)
    # guard: the degenerate block must not have been rotated away
    np.testing.assert_allclose(np.abs(basis.f_vectors), np.eye(3), atol=1e-12)
    with pytest.raises(ResonanceError) as excinfo:
        decompose(basis, 0.1, order="1")
    # the resonant entries h1[0, 1] and h1[1, 0], in row-major order; each
    # couples the dyads (x, k) <-> (y, k) and (k, y) <-> (k, x)
    assert excinfo.value.pairs == [(0, 1), (1, 0)]
    # the dense mask lists the Liouville pairs (mu, nu) that L1 = [h1, .]
    # couples, 2d per resonant entry: each names one of the level pairs
    dense = [((0, 0), (1, 0)), ((0, 0), (0, 1)), ((1, 0), (0, 0)), ((1, 0), (1, 1)),
             ((2, 0), (2, 1)), ((0, 1), (0, 0)), ((0, 1), (1, 1)), ((1, 1), (1, 0)),
             ((1, 1), (0, 1)), ((2, 1), (2, 0)), ((0, 2), (1, 2)), ((1, 2), (0, 2))]
    assert sorted(set(map(level_pair, dense))) == excinfo.value.pairs
    assert "eta" in str(excinfo.value)


def test_eta_regularizes_resonance():
    h0 = np.diag([0.0, 0.0, 1.0])
    h1 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    decomp = decompose(liouville_basis(h0, h1), 0.1, order="1", eta=1e-3)
    c = columns(decomp)[0]
    assert np.all(np.isfinite(c))
    # retarded denominator: coupling / (E0 gap + i eta)
    k = dyad_index(decomp.basis, (1, 0))
    m = dyad_index(decomp.basis, (0, 0))
    e0 = free_energies(decomp.basis)
    expected = 0.1 * interaction(decomp)[m, k] / (e0[k] - e0[m] + 1e-3j)
    np.testing.assert_allclose(c[m, k], expected, atol=1e-15)


def test_uncoupled_degeneracy_is_dropped():
    h0 = np.diag([0.0, 0.0, 1.0])
    h1 = np.diag([1.0, 2.0, 3.0])  # diagonal: degenerate but never coupled
    decomp = decompose(liouville_basis(h0, h1), 0.1, order="2")
    np.testing.assert_allclose(columns(decomp)[0], np.zeros((9, 9)), atol=1e-15)
    np.testing.assert_allclose(vec(decomp.energies),
                               free_energies(decomp.basis) + 0.1 * np.diag(interaction(decomp)),
                               atol=1e-14)


def test_exact_similarity_relation(gen_exact):
    assert similarity_residual(gen_exact) <= 1e-12


def test_exact_projector_completeness(gen_exact):
    np.testing.assert_allclose(projector_sum(gen_exact),
                               np.eye(gen_exact.basis.dim ** 2), atol=1e-10)


def test_exact_population_dyads_are_stationary(gen_exact):
    for i in range(gen_exact.basis.dim):
        assert abs(gen_exact.energies[i, i]) <= 1e-12


def test_bundle_invariants(gen_exact):
    # C_nu = Q C_nu P and D_nu = P D_nu Q hold exactly when no creation
    # column or destruction row touches its own dyad
    c, d = columns(gen_exact)
    np.testing.assert_array_equal(np.diag(c), 0.0)
    np.testing.assert_array_equal(np.diag(d), 0.0)
    l_full = liouvillian(gen_exact)
    for k in [0, 7, 133, 255]:
        d = gen_exact.basis.dim
        pi = total_projector(gen_exact, (k % d, k // d))
        np.testing.assert_allclose(pi @ pi, pi, atol=1e-10)
        # eigen-relation of the total projector
        np.testing.assert_allclose(l_full @ pi, gen_exact.energies[k % d, k // d] * pi,
                                   atol=1e-8)


def test_total_projectors_are_mutually_orthogonal(gen_exact):
    pi_a = total_projector(gen_exact, (0, 1))
    pi_b = total_projector(gen_exact, (2, 0))
    np.testing.assert_allclose(pi_a @ pi_b, np.zeros_like(pi_a), atol=1e-10)


def test_exact_kinetic_consistency(gen_ops, gen_exact):
    h = gen_ops.hamiltonian()
    rng = np.random.default_rng(42)
    for _ in range(5):
        rho0 = random_density(rng, gen_ops.dim)
        t = float(rng.uniform(0.1, 8.0))
        assert kinetic_consistency_residual(gen_exact, h, rho0, t)[1] <= 1e-8


def test_projected_evolution_reconstructs_projected_exact_state(gen_ops, gen_exact):
    # operator-level form of the consistency oracle: the reconstructed
    # projected densities of the two routes coincide
    h = gen_ops.hamiltonian()
    rng = np.random.default_rng(3)
    rho0 = random_density(rng, gen_ops.dim)
    t = 2.7
    kinetic = np.exp(-1j * gen_exact.energies * t) * project_density(gen_exact, rho0)
    exact = project_density(gen_exact, evolve_exact(h, rho0, t))
    np.testing.assert_allclose(from_frame(gen_exact.basis, vec(kinetic)),
                               from_frame(gen_exact.basis, vec(exact)), atol=1e-10)


def test_perturbative_orders_improve_consistency(gen_ops):
    h = gen_ops.hamiltonian()
    rho0 = canonical_initial_state(gen_ops)
    first, second = (decompose_model(gen_ops, order=order) for order in ("1", "2"))
    res1 = kinetic_consistency_residual(first, h, rho0, 1.5)[1]
    res2 = kinetic_consistency_residual(second, h, rho0, 1.5)[1]
    assert res2 < res1 < 0.1


def test_projected_trace_is_population_sum(gen_ops, gen_exact):
    rng = np.random.default_rng(5)
    rho = random_density(rng, gen_ops.dim)
    coeff = project_density(gen_exact, rho)
    np.testing.assert_allclose(np.trace(from_frame(gen_exact.basis, vec(coeff))),
                               np.trace(coeff), atol=1e-12)


def test_project_density_free_theory(gen_ops):
    # lam = 0: the projection is the plain dyad expansion of rho
    decomp = decompose(liouville_basis(gen_ops.h0, gen_ops.h1), 0.0, order="exact")
    rng = np.random.default_rng(6)
    rho = random_density(rng, gen_ops.dim)
    coeff = vec(project_density(decomp, rho))
    np.testing.assert_allclose(coeff, to_frame(decomp.basis, rho), atol=1e-12)
    np.testing.assert_allclose(from_frame(decomp.basis, coeff), rho, atol=1e-12)
    pure = np.outer(decomp.basis.f_vectors[:, 0], decomp.basis.f_vectors[:, 0].conj())
    coeff = project_density(decomp, pure)
    expected = np.zeros((decomp.basis.dim, decomp.basis.dim))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(coeff, expected, atol=1e-12)


def test_project_density_matches_spectral_projector_oracle(gen_ops, gen_exact):
    rng = np.random.default_rng(7)
    rho = random_density(rng, gen_ops.dim)
    x = unvec(to_frame(gen_exact.basis, rho), gen_ops.dim)
    projs = hamiltonian_spectral_projectors(gen_exact)
    d = gen_exact.basis.dim
    coeff = np.zeros((d, d), dtype=np.complex128)
    for j in range(d):
        for i in range(d):
            coeff[i, j] = (projs[i] @ x @ projs[j])[i, j]
    got = project_density(gen_exact, rho)
    np.testing.assert_allclose(got, coeff, atol=1e-6)


def test_evolve_exact_matches_sandwich():
    rng = np.random.default_rng(8)
    h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = h + h.conj().T
    rho0 = random_density(rng, 5)
    t = 1.9
    u = scipy.linalg.expm(-1j * t * h)
    np.testing.assert_allclose(evolve_exact(h, rho0, t), u @ rho0 @ u.conj().T,
                               atol=1e-12)


def test_creation_resolvent_solves_stationary_equation(gen_ops):
    decomp = decompose_model(gen_ops, order="1")
    basis, v1, lam = decomp.basis, interaction(decomp), decomp.lam
    nu = (1, 0)
    col, z = creation_resolvent(basis, v1, lam, nu)
    assert z == free_energies(basis)[dyad_index(basis, nu)]
    assert stationary_residual(basis, v1, lam, nu, col, z=z) <= 1e-10
    # the plain series column only solves it to O(lam)
    c1 = columns(decomp)[0][:, dyad_index(basis, nu)]
    assert stationary_residual(basis, v1, lam, nu, c1) > 1e-4


def test_self_consistent_resolvent_finds_exact_eigenvalue(gen_ops, gen_exact):
    decomp = decompose_model(gen_ops, order="1")
    basis, v1, lam = decomp.basis, interaction(decomp), decomp.lam
    nu = (1, 0)
    _, z = creation_resolvent(basis, v1, lam, nu, self_consistent=True)
    assert abs(z - gen_exact.energies[nu]) <= 1e-10


def test_resolvent_beats_series_at_small_lambda(gen_ops):
    nu = (1, 0)
    frame = liouville_basis(gen_ops.h0, gen_ops.h1)
    gaps = []
    for lam in (1e-2, 5e-3):
        decomp = decompose(frame, lam, order="1")
        basis, v1 = decomp.basis, interaction(decomp)
        col, _ = creation_resolvent(basis, v1, lam, nu)
        c1 = columns(decomp)[0][:, dyad_index(basis, nu)]
        gaps.append(np.linalg.norm(col - c1))
    # the gap is the second Born term, O(lam^2): halving lam quarters it
    assert 3.5 <= gaps[0] / gaps[1] <= 4.5


def nondegenerate_toy():
    """Well-spaced 4-level toy with a generic Hermitian interaction.

    The canonical models all have structure (one-sidedness, bath parity)
    that kills odd orders in lam; convergence-rate checks need a toy whose
    third-order remainder survives.
    """
    rng = np.random.default_rng(123)
    h0 = np.diag([0.0, 1.1, 2.7, 4.6])
    h1 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return h0, h1 + h1.conj().T


@pytest.mark.parametrize("order", ["1", "2"])
def test_lambda_halving_ratios(order):
    # order k misses the exact columns at O(lam^(k+1)) and the energies at
    # O(lam^(k+2)); h1 has a diagonal, so order 2 reaches these rates only
    # with the renormalization term -lam (L1)_nunu R c1
    c_ratios, e_ratios = {"1": ((3.5, 4.5), (6.0, 10.0)), "2": ((7.0, 9.0), (12.8, 20.0))}[order]
    basis = liouville_basis(*nondegenerate_toy())
    c_gaps, e_gaps = [], []
    for lam in (1e-2, 5e-3, 2.5e-3):
        exact = decompose(basis, lam, order="exact")
        series = decompose(basis, lam, order=order)
        c_gaps.append(np.linalg.norm(columns(exact)[0] - columns(series)[0]))
        e_gaps.append(np.max(np.abs(series.energies - exact.energies)))
    for a, b in zip(c_gaps, c_gaps[1:]):
        assert c_ratios[0] <= a / b <= c_ratios[1], c_gaps
    for a, b in zip(e_gaps, e_gaps[1:]):
        assert e_ratios[0] <= a / b <= e_ratios[1], e_gaps


@pytest.mark.parametrize("hermitian_variant", [False, True])
def test_second_order_similarity_converges_at_order_three_on_triangular_model(hermitian_variant):
    # the model default keeps the interaction's diagonal in H1, so diag(h1_f)
    # is nonzero: without the renormalization term the order-2 residual
    # shrinks only by 4 per halving, as at order 1
    residuals = []
    for lam in (0.04, 0.02, 0.01, 0.005):
        ops = build_model(ModelSpec(kind="triangular", omega0=1.0, omega=1.3, g=0.4, lam=lam,
                                    fock_cutoff=3, hermitian_variant=hermitian_variant))
        decomp = decompose_model(ops, order="2")
        assert np.max(np.abs(np.diag(decomp.basis.h1_f))) > 0.1
        oracle = dense_perturbative(ops.h0, ops.h1, lam, 0.0, "2")
        assert_matches_dense(decomp, oracle, random_density(np.random.default_rng(15), ops.dim))
        l_full = liouvillian(decomp)
        sim = omega(decomp)
        residuals.append(float(np.linalg.norm(l_full @ sim - sim @ theta_matrix(decomp)))
                         / norm_scale(l_full))
    for a, b in zip(residuals, residuals[1:]):
        assert a / b >= 6.4, residuals


def test_second_order_projection_converges_at_order_two_on_general_config():
    # the general model's free spectrum has degenerate dyad pairs off the
    # planes of every nu; order 2 must keep their finite terms, or its
    # projection gap to exact shrinks only by 4 per halving, as at order 1
    config = load_config(read_config(
        pathlib.Path(__file__).resolve().parents[1] / "configs" / "general.json"))
    for state in ("canonical", "random"):
        gaps = []
        for lam in (1e-2, 5e-3, 2.5e-3):
            ops = build_model(dataclasses.replace(config.model, lam=lam))
            rho = canonical_initial_state(ops) if state == "canonical" \
                else random_density(np.random.default_rng(21), ops.dim)
            second, exact = (project_density(decompose_model(ops, order=order), rho)
                             for order in ("2", "exact"))
            gaps.append(np.max(np.abs(second - exact)))
        for a, b in zip(gaps, gaps[1:]):
            assert a / b >= 6.4, (state, gaps)


@pytest.mark.xfail(strict=True, reason=(
    "the perturbative orders keep H0's own frame inside its degenerate eigenspace, not a "
    "Kato frame that diagonalizes h1_f r h1_f there: levels 0 and 2 are degenerate and "
    "coupled only through level 1, a path their resolvent drops, so the order-2 energy "
    "gap shrinks by 4 per halving and nothing raises"))
def test_indirectly_coupled_degenerate_levels_meet_the_order_two_energy_rate():
    h0 = np.diag([0.0, 1.0, 0.0])
    h1 = np.zeros((3, 3))
    h1[0, 1] = h1[1, 0] = h1[1, 2] = h1[2, 1] = 1.0
    basis = liouville_basis(h0, h1)
    gaps = []
    try:
        for lam in (0.1, 0.05, 0.025):
            exact, second = (decompose(basis, lam, order=order) for order in ("exact", "2"))
            gaps.append(np.max(np.abs(second.energies - exact.energies)))
    except ResonanceError:
        return
    # order 2 misses the exact energies at O(lam^4)
    for a, b in zip(gaps, gaps[1:]):
        assert a / b >= 0.8 * 2 ** 4, gaps


def test_exact_columns_reject_lost_anchor():
    # a huge one-sided hop concentrates both eigenvectors on the first
    # dyad, so one branch keeps only ~1/K of weight on its own anchor
    h0 = np.diag([0.0, 1.0])
    h1 = np.array([[0.0, 3e8], [0.0, 0.0]])
    with pytest.raises(ValueError, match="anchor"):
        decompose(liouville_basis(h0, h1), 1.0, order="exact")


def test_diagonal_model_has_no_creation():
    # interaction diagonal in the free frame: Q L1 P = 0, so C = 0 and the
    # kinetic eigenvalues are plain differences of the full diagonal
    ops = build_model(DIAG_SPEC)
    for order in ("1", "2", "exact"):
        decomp = decompose_model(ops, order=order)
        for dense in columns(decomp):
            np.testing.assert_allclose(dense, np.zeros((36, 36)), atol=1e-12)
    h_diag = np.diag(ops.hamiltonian()).real
    decomp = decompose_model(ops, order="exact")
    order_idx = np.argsort(np.diag(ops.h0).real, kind="stable")
    full = h_diag[order_idx]
    np.testing.assert_allclose(decomp.energies, np.subtract.outer(full, full), atol=1e-12)


def test_triangular_theta_is_free():
    # strictly one-sided interaction leaves every kinetic eigenvalue at its
    # free value, at every construction order
    ops = build_model(TRI_FREE_SPEC)
    for order in ("1", "2", "exact"):
        decomp = decompose_model(ops, order=order)
        eps = decomp.basis.f_values
        np.testing.assert_allclose(decomp.energies, np.subtract.outer(eps, eps), atol=1e-10)


def test_triangular_creation_is_one_sided():
    ops = build_model(TRI_FREE_SPEC)
    decomp = decompose_model(ops, order="1")
    c = columns(decomp)[0]
    np.testing.assert_allclose(np.diag(c), np.zeros(36), atol=1e-14)
    # no reciprocal pairs: the hop graph never runs both ways
    np.testing.assert_allclose(c * c.T, np.zeros_like(c), atol=1e-14)
    assert np.max(np.abs(c)) > 1e-3


def test_total_projector_matches_eig_spectral_projector(gen_exact):
    # many Liouville eigenvalues are degenerate (differences collide), so
    # per-dyad eigvectors of L are not well defined; the Hamiltonian-level
    # sandwich A_i X A_j is, and fixes the same projector
    projs = hamiltonian_spectral_projectors(gen_exact)
    for nu in ((1, 0), (0, 0), (2, 5)):
        i, j = nu
        oracle = np.kron(projs[j].T, projs[i])
        np.testing.assert_allclose(total_projector(gen_exact, nu), oracle,
                                   atol=1e-7)


def test_group_spectral_projector_of_l_matches_engine_sum(gen_exact):
    # cluster-summed comparison straight against eig of the full Liouvillian:
    # sum the engine projectors over every dyad sharing one eigenvalue and
    # compare with the group spectral projector, which is basis independent
    from subdyn.linalg import eig

    system = eig(liouvillian(gen_exact))
    d = gen_exact.basis.dim
    target = gen_exact.energies[1, 0]
    members = [(i, j) for j in range(d) for i in range(d)
               if abs(gen_exact.energies[i, j] - target) < 1e-8]
    assert len(members) >= 2
    engine = sum(total_projector(gen_exact, m) for m in members)
    cols = [c for c in range(d ** 2)
            if abs(system.values[c] - target) < 1e-8]
    assert len(cols) == len(members)
    w = system.right_vectors[:, cols]
    l = system.left_vectors[cols, :]
    oracle = w @ np.linalg.solve(l @ w, l)
    np.testing.assert_allclose(engine, oracle, atol=1e-7)


def test_decompose_model_uses_spec_lam(gen_ops):
    d = decompose_model(gen_ops)
    assert d.lam == GEN_SPEC.lam
    other = build_model(dataclasses.replace(GEN_SPEC, lam=0.01))
    assert decompose_model(other).lam == 0.01


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 5))
def test_exact_decomposition_properties_random(seed, dim):
    rng = np.random.default_rng(seed)
    h0 = np.diag(np.sort(rng.uniform(0.0, 1.0, dim) + 2.0 * np.arange(dim)))
    h1 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h1 = h1 + h1.conj().T
    decomp = decompose(liouville_basis(h0, h1), 0.05, order="exact")
    assert similarity_residual(decomp) <= 1e-8
    np.testing.assert_allclose(projector_sum(decomp), np.eye(dim * dim),
                               atol=1e-8)
    rho = random_density(rng, dim)
    t = float(rng.uniform(0.0, 4.0))
    res = kinetic_consistency_residual(decomp, h0 + 0.05 * h1, rho, t)[1]
    assert res <= 1e-8


# Dense-route oracles for the factored exact order: every kind at d = 16,
# the dense d^2 x d^2 matrices built by the oracle module from the stored
# eigensystem.
ORACLE_SPECS = {
    "general": GEN_SPEC,
    "triangular": ModelSpec(kind="triangular", omega0=1.0, omega=1.3, g=0.4, lam=1.0,
                            fock_cutoff=7, diagonal_in_free=True),
    "triangular_hermitian": ModelSpec(kind="triangular", omega0=1.0, omega=1.3, g=0.4,
                                      lam=0.3, fock_cutoff=7, hermitian_variant=True),
    "diagonal": ModelSpec(kind="diagonal", omega0=1.0, omega=1.3, g=0.5, lam=1.0,
                          fock_cutoff=7),
}


@pytest.fixture(scope="module", params=sorted(ORACLE_SPECS))
def oracle_case(request):
    ops = build_model(ORACLE_SPECS[request.param])
    assert ops.dim == 16
    return ops, decompose_model(ops, order="exact")


def test_factored_pairing_matches_dense(oracle_case):
    _, decomp = oracle_case
    np.testing.assert_allclose(vec(decomp.kappa), pairing(decomp), rtol=0, atol=1e-12)


def test_kappa_is_reread_from_the_stored_factors(gen_exact):
    kappa = gen_exact.kappa
    # tripling column 1 of U = R - I, read by the planes and off the planes
    # alike, triples s_1 = (U~ U)_11; the replaced decomposition reads
    # kappa_nu = (1 + s_i)(1 + s_j) from its own factors, nothing cached
    u, u_dual, _, _ = gen_exact.planes
    tripled = u.copy()
    tripled[:, 1] *= 3.0
    planes = (tripled, u_dual, u_dual, tripled)
    rescaled = dataclasses.replace(gen_exact, planes=planes, off_plane=planes)
    s = np.einsum("ia,ai->i", u_dual, u)
    s[1] *= 3.0
    np.testing.assert_allclose(rescaled.kappa, np.outer(1 + s, 1 + s), rtol=1e-14, atol=0)
    # nu = (1, 1) carries the tripled sum twice; the original is untouched
    assert abs(rescaled.kappa[1, 1] - kappa[1, 1]) > 1e-6
    np.testing.assert_array_equal(gen_exact.kappa, kappa)


def one_form_columns(decomp):
    """Dense (c, d) read from the stored factors as the one form says.

    Column nu = (i, j) at mu = (a, b) is U[a, i] on b = j, V[j, b] on a = i
    and Uo[a, i] Vo[j, b] elsewhere; row nu reads U~[i, a], V~[b, j] and
    U~o[i, a] V~o[b, j]. Axes [b, a, j, i] and [j, i, b, a] before the
    reshape; the zero diagonals keep each term on its own place.
    """
    n = decomp.basis.dim
    u, v, u_dual, v_dual = decomp.planes
    eye = np.eye(n)
    c = np.einsum("ai,bj->baji", u, eye) + np.einsum("ai,jb->baji", eye, v)
    d = np.einsum("ia,bj->jiba", u_dual, eye) + np.einsum("ia,bj->jiba", eye, v_dual)
    if decomp.off_plane is not None:
        uo, vo, uo_dual, vo_dual = decomp.off_plane
        c += np.einsum("ai,jb->baji", uo, vo)
        d += np.einsum("ia,bj->jiba", uo_dual, vo_dual)
    return c.reshape(n * n, n * n), d.reshape(n * n, n * n)


@pytest.mark.parametrize("order", ["exact", "1", "2"])
@pytest.mark.parametrize("eta", [0.0, 0.05])
def test_every_order_stores_the_one_factor_form(gen_ops, order, eta):
    decomp = decompose_model(gen_ops, order=order, eta=eta)
    factors = [*decomp.planes, *(decomp.off_plane or ())]
    for m in factors:
        assert m.shape == (gen_ops.dim, gen_ops.dim)
        assert not np.diag(m).any()
    if order == "exact":
        # the planes are the anchored eigenvectors of H_f less the identity,
        # and the same arrays serve off the planes
        assert decomp.off_plane is decomp.planes
        u, u_dual, _, _ = decomp.planes
        eye = np.eye(gen_ops.dim)
        right, left = eye + u, eye + u_dual
        h = np.diag(decomp.basis.f_values) + decomp.lam * decomp.basis.h1_f
        scale = np.linalg.norm(h) * max(np.linalg.norm(right), np.linalg.norm(left))
        assert np.linalg.norm(h @ right - right * decomp.z) <= 1e-12 * scale
        assert np.linalg.norm(left @ h - decomp.z[:, None] * left) <= 1e-12 * scale
        assert decomp.planes[2] is u_dual and decomp.planes[3] is u
    elif order == "1":
        assert decomp.off_plane is None
    else:
        r = subdynamics._free_resolvent(decomp.basis, decomp.lam, eta)
        h1_f = decomp.basis.h1_f
        a, a_dual = decomp.lam * h1_f * r, decomp.lam * h1_f * r.T
        for got, want in zip(decomp.off_plane, (a, -a, a_dual, -a_dual)):
            np.testing.assert_array_equal(got, want)
    if eta == 0.0:
        # the dense oracle's columns and rows, read back from the factors;
        # at eta > 0 order 2 adds its gathered remainder on top
        for got, want in zip(one_form_columns(decomp), columns(decomp)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_stored_factors_read_as_the_dense_columns(oracle_case):
    # the dense columns and rows come from the raw matched eigensystem, so
    # the anchoring R = psi diag(1/psi_ii), L = diag(1/psi~_ii) psi~ and the
    # one form's reading of it are checked against an independent route
    _, decomp = oracle_case
    for got, want in zip(one_form_columns(decomp), columns(decomp)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_factored_projection_matches_dense(oracle_case):
    ops, decomp = oracle_case
    rho = random_density(np.random.default_rng(11), ops.dim)
    left = np.eye(decomp.basis.dim ** 2) + columns(decomp)[1]
    dense = (left @ to_frame(decomp.basis, rho)) / pairing(decomp)
    np.testing.assert_allclose(vec(project_density(decomp, rho)), dense, rtol=0, atol=1e-12)


def test_factored_similarity_residual_matches_dense(oracle_case):
    _, decomp = oracle_case
    l_full = liouvillian(decomp)
    sim = omega(decomp)
    dense = float(np.linalg.norm(l_full @ sim - sim @ theta_matrix(decomp))) \
        / norm_scale(l_full)
    assert abs(similarity_residual(decomp) - dense) <= 1e-12


def test_factored_completeness_matches_dense(oracle_case):
    _, decomp = oracle_case
    c, d = columns(decomp)
    right = (np.eye(decomp.basis.dim ** 2) + c) / pairing(decomp)
    dense = float(np.linalg.norm(right @ (np.eye(decomp.basis.dim ** 2) + d) - np.eye(decomp.basis.dim ** 2)))
    assert abs(completeness_residual(decomp) - dense) <= 1e-12


def test_factored_block_residual_matches_dense(oracle_case):
    _, decomp = oracle_case
    dense = max(np.max(np.abs(np.diag(m))) for m in columns(decomp))
    assert abs(block_residual(decomp) - dense) <= 1e-12


def test_factored_kinetic_consistency_matches_liouville_route(oracle_case):
    ops, decomp = oracle_case
    h = ops.hamiltonian()
    rng = np.random.default_rng(12)
    rho0 = random_density(rng, ops.dim)
    t = 2.3
    left = np.eye(decomp.basis.dim ** 2) + columns(decomp)[1]
    kappa = pairing(decomp)
    exact = (left @ to_frame(decomp.basis, evolve_exact(h, rho0, t))) / kappa
    kinetic = np.exp(-1j * vec(decomp.energies) * t) * (left @ to_frame(decomp.basis, rho0)) / kappa
    dense = float(np.linalg.norm(from_frame(decomp.basis, exact - kinetic), ord=2))
    assert abs(kinetic_consistency_residual(decomp, h, rho0, t)[1] - dense) <= 1e-12


@pytest.mark.parametrize("order", ["1", "2"])
def test_verify_residuals_refuse_perturbative_orders(gen_ops, order):
    # the residuals read (psi, psi~, z); a perturbative order has none
    decomp = decompose_model(gen_ops, order=order)
    for residual in (similarity_residual, completeness_residual, block_residual):
        with pytest.raises(ValueError, match=f"{residual.__name__} .* order {order}$"):
            residual(decomp)


def _traced_peak_mb(fn) -> float:
    import tracemalloc

    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _general_ops(fock_cutoff):
    """General model with two bath modes: d = 32 at fock_cutoff 1, 48 at 2, 64 at 3."""
    return build_model(ModelSpec(kind="general", omega_atoms=(1.0, 1.0), omega=1.0, g=0.5,
                                 lam=0.05, bath=((0.9, 0.6), (0.97, 0.6)),
                                 fock_cutoff=fock_cutoff, bath_cutoff=1))


def _decompose_and_classify_peak_mb(ops, order) -> float:
    from subdyn.classify import classify

    def run():
        decompose_model(ops, order=order)
        classify(ops, np.linspace(0.0, 20.0, 81), order=order)

    return _traced_peak_mb(run)


def test_exact_decompose_and_classify_stay_small_at_d48():
    # one dense d^2 x d^2 complex matrix at d = 48 is 85 MB
    ops = _general_ops(2)
    assert ops.dim == 48
    assert _decompose_and_classify_peak_mb(ops, "exact") < 40


def test_first_order_decompose_and_classify_stay_small_at_d48():
    # order 1 keeps two d x d factors where the dense route builds L1 and
    # the creation columns and destruction rows, 85 MB each
    ops = _general_ops(2)
    assert ops.dim == 48
    assert _decompose_and_classify_peak_mb(ops, "1") < 40


def test_second_order_swap_calibration_stays_small_at_d48():
    # the whole swap-calibrate run: one frame, then order 1 and the exact order
    from subdyn.config import ScenarioConfig
    from subdyn.runner import run

    ops = _general_ops(2)
    assert ops.dim == 48
    peak = _traced_peak_mb(lambda: run(ScenarioConfig(scenario="swap-calibrate",
                                                      model=ops.spec)))
    assert peak < 40


def test_second_order_decompose_holds_no_dense_array_at_d32():
    # one dense d^2 x d^2 complex array at d = 32 is 16 MB; order 2 keeps
    # d x d factors and gathers its off-plane sums over chunks of pairs
    ops = _general_ops(1)
    assert ops.dim == 32
    assert _traced_peak_mb(lambda: decompose_model(ops, order="2")) < 16


def test_second_order_classify_stays_under_100_mb_at_d64():
    # the dense columns and rows at d = 64 took 4 x 268 MB; a gather chunk
    # holds about 2^15 kernel entries
    ops = _general_ops(3)
    assert ops.dim == 64
    assert _decompose_and_classify_peak_mb(ops, "2") < 100


@pytest.mark.parametrize("eta", [0.0, 0.05])
def test_second_order_stream_matches_broadcast_oracle_at_d32(eta):
    # at d = 32 the gather takes kappa's 238 x 238 pairs in two chunks
    ops = _general_ops(1)
    assert ops.dim == 32
    decomp = decompose_model(ops, order="2", eta=eta)
    c, d = columns(decomp)
    rng = np.random.default_rng(14)
    states = [canonical_initial_state(ops), random_density(rng, ops.dim)]
    pairs = {
        "energies": (vec(decomp.energies),
                     free_energies(decomp.basis) + decomp.lam * np.diag(interaction(decomp))
                     + decomp.lam * np.einsum("ij,ji->i", interaction(decomp), c)),
        "pairing": (vec(decomp.kappa), 1.0 + np.einsum("ij,ji->i", d, c)),
    }
    for k, rho in enumerate(states):
        rho_f = to_frame(decomp.basis, rho)
        pairs[f"project_density {k}"] = (vec(project_density(decomp, rho)),
                                         (rho_f + d @ rho_f) / pairs["pairing"][1])
    for name, (got, want) in pairs.items():
        gap = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        assert np.max(gap) <= 1e-12, (name, np.max(gap))


def assert_matches_dense(decomp, oracle, rho, scaled=False):
    """Every perturbative quantity within 1e-12 of the oracle's, times
    max(1, cond) entry by entry when scaled. For kappa and the projection,
    cond is the conditioning of the sum that forms the entry, from the
    oracle's dense (c, d): 1 + sum_mu |d_nu(mu) c_nu(mu)| for kappa_nu, and
    (|rho_f| + |d| @ |rho_f|) / |kappa| for the projection; for the other
    quantities it is max|oracle value|. rho is a density matrix, or a
    ket the engine projects as it stands and the oracle as |rho><rho|."""
    c, d, energies, kappa = oracle
    dense = np.outer(rho, rho.conj()) if rho.ndim == 1 else rho
    rho_f = to_frame(decomp.basis, dense)
    pairs = {
        "creation columns": (columns(decomp)[0], c),
        "destruction rows": (columns(decomp)[1], d),
        "energies": (vec(decomp.energies), energies),
        "pairing": (vec(decomp.kappa), kappa),
        "project_density": (vec(project_density(decomp, rho)), (rho_f + d @ rho_f) / kappa),
    }
    conditioning = {
        "pairing": 1.0 + np.einsum("ij,ji->i", np.abs(d), np.abs(c)),
        "project_density": (np.abs(rho_f) + np.abs(d) @ np.abs(rho_f)) / np.abs(kappa),
    }
    for name, (got, want) in pairs.items():
        cond = conditioning.get(name, np.max(np.abs(want))) if scaled else 1.0
        assert got.shape == want.shape, name
        excess = np.abs(got - want) / (1e-12 * np.maximum(1.0, cond))
        assert np.max(excess) <= 1.0, (name, float(np.max(excess)))


@pytest.mark.parametrize("eta", [0.0, 0.05])
@pytest.mark.parametrize("order", ["1", "2"])
@pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
def test_perturbative_orders_match_dense_oracle(name, order, eta):
    ops = build_model(ORACLE_SPECS[name])
    assert ops.dim == 16
    decomp = decompose_model(ops, order=order, eta=eta)
    oracle = dense_perturbative(ops.h0, ops.h1, ops.spec.lam, eta, order)
    rho = random_density(np.random.default_rng(13), ops.dim)
    assert_matches_dense(decomp, oracle, rho)


def test_partly_weighted_gather_matches_dense_oracle():
    # the Hermitian triangular model at d = 8 and eta > 0: kappa's pairs are
    # 4 of the 8 dyad indices, the canonical ket has no row pair and a full
    # state gathers x[a, b] over every nonzero of A'; whatever the gather
    # leaves out must have held only zeros
    ops = build_model(ModelSpec(kind="triangular", omega0=1.0, omega=1.3, g=0.4, lam=0.3,
                                fock_cutoff=3, hermitian_variant=True))
    assert ops.dim == 8
    decomp = decompose_model(ops, order="2", eta=0.05)
    oracle = dense_perturbative(ops.h0, ops.h1, ops.spec.lam, 0.05, "2")
    canonical = canonical_initial_state(ops)
    full = random_density(np.random.default_rng(16), 8)
    for rho in (canonical, canonical_initial_ket(ops), full):
        assert_matches_dense(decomp, oracle, rho)
    c, d, _, kappa = oracle
    rho_f = to_frame(decomp.basis, full)
    coeff0, _ = kinetic_consistency_residual(decomp, ops.hamiltonian(), full, 1.5)
    np.testing.assert_allclose(vec(coeff0), (rho_f + d @ rho_f) / kappa, rtol=0, atol=1e-12)


@pytest.mark.parametrize("order, eta", [("exact", 0.0), ("1", 0.0), ("2", 0.0), ("2", 0.05)])
@pytest.mark.parametrize("spec, hermitian", [(GEN_SPEC, True), (TRI_FREE_SPEC, False)],
                         ids=["general", "triangular"])
def test_kinetic_check_of_a_ket_matches_its_density_matrix(spec, hermitian, order, eta):
    # a ket and its density matrix are the same rank-one factor pair, up to
    # the phase of psd_factor's eigenvector, and so is their flow under a
    # Hermitian H and a non-Hermitian one alike
    ops = build_model(spec)
    h = ops.hamiltonian()
    assert is_hermitian(h) == hermitian
    decomp = decompose_model(ops, order=order, eta=eta)
    rng = np.random.default_rng(37)
    drawn = rng.standard_normal(ops.dim) + 1j * rng.standard_normal(ops.dim)
    for ket in (canonical_initial_ket(ops), drawn / np.linalg.norm(drawn)):
        coeff_ket, residual_ket = kinetic_consistency_residual(decomp, h, ket, 1.5)
        coeff_rho, residual_rho = kinetic_consistency_residual(
            decomp, h, np.outer(ket, ket.conj()), 1.5)
        np.testing.assert_allclose(coeff_ket, coeff_rho, rtol=0, atol=1e-12)
        assert abs(residual_ket - residual_rho) <= 1e-12
        assert coeff_ket.tobytes() == project_density(decomp, ket).tobytes()
    with pytest.raises(ValueError, match="ket"):
        kinetic_consistency_residual(decomp, h, np.ones(ops.dim + 1), 1.5)


@pytest.mark.parametrize("order, eta", [("exact", 0.0), ("1", 0.0), ("2", 0.0), ("2", 0.05)])
def test_non_hermitian_flow_stays_rank_one(monkeypatch, order, eta):
    # the one-sided triangular H is not Hermitian: a ket still flows as one
    # column K = e^{-iHt} psi and one row B = psi^dagger e^{+iHt}
    ops = build_model(TRI_FREE_SPEC)
    h = ops.hamiltonian()
    assert not is_hermitian(h)
    decomp = decompose_model(ops, order=order, eta=eta)
    shapes = []
    project = subdynamics._project_frame

    def recorded(decomp, states):
        shapes.extend((k.shape, b.shape) for k, b in states)
        return project(decomp, states)

    monkeypatch.setattr(subdynamics, "_project_frame", recorded)
    kinetic_consistency_residual(decomp, h, canonical_initial_ket(ops), 1.5)
    assert shapes == [((ops.dim, 1), (1, ops.dim))] * 2


def test_rank_two_density_at_order_two_matches_dense_oracle(monkeypatch):
    # order 2 at eta > 0 gathers each of the factor's r columns in turn:
    # kappa takes one gather and a rank-2 state two more
    ops = build_model(GEN_SPEC)
    decomp = decompose_model(ops, order="2", eta=0.05)
    oracle = dense_perturbative(ops.h0, ops.h1, ops.spec.lam, 0.05, "2")
    rho = _rank_two_density(np.random.default_rng(41), ops.dim)
    assert np.linalg.matrix_rank(rho) == 2
    gathers = []
    gather = subdynamics._pair_sums

    def counted(*args, **kwargs):
        gathers.append(args)
        return gather(*args, **kwargs)

    monkeypatch.setattr(subdynamics, "_pair_sums", counted)
    assert_matches_dense(decomp, oracle, rho)
    gathers.clear()
    project_density(decomp, rho)
    assert len(gathers) == 3


def _rank_two_density(rng, dim):
    u = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
    rho = u @ u.conj().T
    return rho / np.trace(rho).real


# eta halving from 1e-3: the remainder of order 2 at eta > 0 is linear in eta
ETA_HALVINGS = (1e-3, 5e-4, 2.5e-4, 1.25e-4, 6.25e-5)


def assert_halves_to_the_eta_limit(decomp, rho, routes):
    """routes(eta) -> (kappa, c), d x d matrices, of order 2 approach, as eta halves, the
    limit from above kappa(0) + 3 S and (y(0) - R) / (kappa(0) + 3 S),
    with y = c kappa, read at eta = 0 from routes(0).

    A resonant off-plane dyad pair mu = (a, b) of nu = (i, j), a != i and
    b != j with eps_i - eps_a = eps_j - eps_b within DEGENERACY_TOL, has
    W = 1 + i eta R = 1 at eta = 0 but W = 2 at every eta > 0. kappa sums
    W^2 and the rows -W, so the limit exceeds eta = 0 by 3 S in kappa and
    by -R in y, with S[i, j] = sum P[a, i] Q[j, b] (P = A'^T * A,
    Q = A * A'^T) and R[i, j] = sum A'[i, a] rho_f[a, b] A'[b, j] over
    those pairs, summed here over all d^4 pairs. decomp is order 2 at
    eta = 0 and rho a density matrix.
    """
    eps, d = decomp.basis.f_values, decomp.basis.dim
    a, _, a_dual, _ = decomp.off_plane
    i, j, k, m = np.ix_(*[np.arange(d)] * 4)
    tol = DEGENERACY_TOL * max(1.0, float(np.max(np.abs(free_energies(decomp.basis)))))
    resonant = (np.abs((eps[i] - eps[k]) - (eps[j] - eps[m])) <= tol) & (k != i) & (m != j)
    rho_f = unvec(to_frame(decomp.basis, rho), d)
    s = np.einsum("ijab,ai,jb->ij", resonant, a_dual.T * a, a * a_dual.T)
    r = np.einsum("ijab,ia,ab,bj->ij", resonant, a_dual, rho_f, a_dual)
    kappa0, c0 = routes(0.0)
    kappa_limit = kappa0 + 3 * s
    c_limit = (c0 * kappa0 - r) / kappa_limit
    # the limit is a jump away from eta = 0, not eta = 0's value
    assert np.max(np.abs(kappa_limit - kappa0)) > 1e-2
    assert np.max(np.abs(c_limit - c0)) > 1e-3
    gaps = []
    for eta in ETA_HALVINGS:
        kappa, c = routes(eta)
        gaps.append((np.max(np.abs(kappa - kappa_limit)), np.max(np.abs(c - c_limit))))
    for before, after in zip(gaps, gaps[1:]):
        for x, y in zip(before, after):
            assert 1.95 <= x / y <= 2.05, gaps


@pytest.mark.parametrize("state", ["canonical_ket", "rank_two"])
def test_order_two_halves_to_its_eta_limit_on_general_config(state):
    # configs/general.json has resonant off-plane dyad pairs: eta -> 0+ is
    # a limit of its own, not the eta = 0 value
    config = load_config(read_config(
        pathlib.Path(__file__).resolve().parents[1] / "configs" / "general.json"))
    ops = build_model(config.model)
    rho = canonical_initial_ket(ops) if state == "canonical_ket" \
        else _rank_two_density(np.random.default_rng(43), ops.dim)

    def routes(eta):
        decomp = decompose_model(ops, order="2", eta=eta)
        return decomp.kappa, project_density(decomp, rho)

    dense = np.outer(rho, rho.conj()) if rho.ndim == 1 else rho
    assert_halves_to_the_eta_limit(decompose_model(ops, order="2"), dense, routes)


@pytest.mark.parametrize("state", ["ket", "rank_two"])
@pytest.mark.parametrize("route", ["factored", "dense"])
def test_dense_oracle_halves_to_the_same_eta_limit(route, state):
    # evenly spaced free levels at d = 5 make resonant off-plane dyad pairs
    # (eps_1 - eps_0 = eps_2 - eps_1, ...) with no degenerate level, so no
    # one-index resonance; the dense d^2 x d^2 columns and rows reach the
    # limit that the factored sums name
    rng = np.random.default_rng(53)
    h0 = np.diag([0.0, 1.0, 2.0, 3.0, 4.5])
    h1 = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h1 = h1 + h1.conj().T
    if state == "ket":
        ket = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        rho = np.outer(ket, ket.conj()) / np.vdot(ket, ket).real
    else:
        rho = _rank_two_density(rng, 5)
    basis = liouville_basis(h0, h1)

    def routes(eta):
        if route == "factored":
            decomp = decompose(basis, 0.1, order="2", eta=eta)
            return decomp.kappa, project_density(decomp, rho)
        _, rows, _, kappa = dense_perturbative(h0, h1, 0.1, eta, "2")
        rho_f = to_frame(basis, rho)
        return unvec(kappa, 5), unvec((rho_f + rows @ rho_f) / kappa, 5)

    assert_halves_to_the_eta_limit(decompose(basis, 0.1, order="2"), rho, routes)


@pytest.mark.parametrize("entries", [1, 7, 40, 2**15])
@pytest.mark.parametrize("one_sided", [False, True])
def test_gather_over_several_chunks_matches_dense_oracle(monkeypatch, entries, one_sided):
    # a dense random interaction at d = 5: A' has 20 nonzeros (10 when
    # one-sided), so a chunk of 1 or 7 entries takes one left entry, 40
    # entries two (four), which splits an i across two chunks, and 2^15
    # takes them all at once
    monkeypatch.setattr(subdynamics, "_BLOCK_ENTRIES", entries)
    rng = np.random.default_rng(29)
    levels = np.array([0.0, 0.35, 0.8, 1.3, 1.9])
    h1 = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h1 = np.triu(h1, 1) if one_sided else h1 + h1.conj().T
    decomp = decompose(liouville_basis(np.diag(levels), h1), 0.2, order="2", eta=0.03)
    assert np.count_nonzero(decomp.off_plane[2]) == (10 if one_sided else 20)
    oracle = dense_perturbative(np.diag(levels), h1, 0.2, 0.03, "2")
    ket = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    for rho in (random_density(rng, 5), ket / np.linalg.norm(ket)):
        assert_matches_dense(decomp, oracle, rho)


def test_general_free_frame_is_exactly_block_sparse_at_d32():
    # the free frame is built block by block from H0's components, so
    # h1_f = F^dagger H1 F is exactly 0 between components that H1 does not
    # couple; LAPACK's frame of the whole H0 filled all 1024 entries
    ops = _general_ops(1)
    assert ops.dim == 32
    decomp = decompose_model(ops, order="2", eta=0.05)
    f = decomp.basis.f_vectors
    labels = components(ops.h0)
    # each free eigenvector lies in one component of H0
    owner = np.empty(32, dtype=int)
    for k in range(32):
        support = np.unique(labels[np.flatnonzero(f[:, k])])
        assert support.size == 1
        owner[k] = support[0]
    coupled = np.zeros((32, 32), dtype=bool)
    for x, y in zip(*np.nonzero(ops.h1)):
        coupled[labels[x], labels[y]] = True
    outside = ~coupled[owner[:, None], owner[None, :]]
    assert outside.any()
    assert not decomp.basis.h1_f[outside].any()
    assert np.count_nonzero(decomp.basis.h1_f) == 238
    # so A, A' and the pair weights P = A'^T * A and Q = A * A'^T carry the same zeros
    a, _, a_dual, _ = decomp.off_plane
    for m in (a, a_dual, a_dual.T * a, a * a_dual.T):
        assert not m[outside].any()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 5),
       one_sided=st.booleans(), eta=st.sampled_from([0.0, 0.03]),
       order=st.sampled_from(["1", "2"]))
# near-degenerate free levels at eta > 0, where the order-2 projection sums
# ill-conditioned entries closest to the bound
@example(seed=2117, dim=4, one_sided=False, eta=0.03, order="2")
def test_factored_orders_match_dense_oracle_random(seed, dim, one_sided, eta, order):
    rng = np.random.default_rng(seed)
    levels = np.sort(rng.uniform(0.0, 2.0, dim))
    # force degeneracies: copy some levels onto their lower neighbour
    for k in range(1, dim):
        if rng.uniform() < 0.4:
            levels[k] = levels[k - 1]
    h1 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h1 = np.triu(h1, 1) if one_sided else h1 + h1.conj().T
    h0 = np.diag(levels)
    lam = float(rng.uniform(0.01, 0.3))
    basis = liouville_basis(h0, h1)
    try:
        oracle = dense_perturbative(h0, h1, lam, eta, order)
    except ResonanceError as dense_error:
        with pytest.raises(ResonanceError) as excinfo:
            decompose(basis, lam, order=order, eta=eta)
        # the dense mask lists every Liouville pair that a resonant entry of
        # h1_f couples; the engine lists the entries themselves
        assert excinfo.value.pairs == sorted(set(map(level_pair, dense_error.pairs)))
        return
    decomp = decompose(basis, lam, order=order, eta=eta)
    # near-degenerate dyad pairs give large, ill-conditioned entries; the
    # two routes round the free gaps differently, so the bound scales
    assert_matches_dense(decomp, oracle, random_density(rng, dim), scaled=True)
