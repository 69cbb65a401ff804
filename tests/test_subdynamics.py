"""Projected-subspace engine against brute-force commutator evolution."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from subdyn.linalg import norm_scale, random_density, unvec
from subdyn.models import ModelSpec, build_model, canonical_initial_state
from subdyn.subdynamics import (
    NuIndex,
    ResonanceError,
    block_residual,
    completeness_residual,
    creation_resolvent,
    decompose,
    decompose_model,
    evolve_exact,
    evolve_grid,
    evolve_projected,
    kinetic_consistency_residual,
    liouville_basis,
    normalize_order,
    project_density,
    similarity_residual,
    stationary_residual,
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
    basis = liouville_basis(h0)
    np.testing.assert_allclose(basis.f_values, [0.0, 1.0, 2.5])
    assert basis.dim == 3 and basis.dim2 == 9
    for k, nu in enumerate(basis.nu_indices):
        assert basis.liouville_index(nu) == k
        assert k == nu.row + 3 * nu.col
        assert basis.e0[k] == basis.f_values[nu.row] - basis.f_values[nu.col]
    assert basis.nu_indices[0].is_population
    assert not basis.nu_indices[1].is_population


def test_frame_roundtrip(gen_ops):
    basis = liouville_basis(gen_ops.h0)
    rng = np.random.default_rng(0)
    rho = random_density(rng, gen_ops.dim)
    np.testing.assert_allclose(basis.from_frame(basis.to_frame(rho)), rho,
                               atol=1e-12)


def test_from_frame_of_unit_vector_is_dyad_outer(gen_ops):
    basis = liouville_basis(gen_ops.h0)
    unit = np.zeros(basis.dim2)
    unit[basis.liouville_index(NuIndex(2, 5))] = 1.0
    m = basis.from_frame(unit)
    expected = np.outer(basis.f_vectors[:, 2], basis.f_vectors[:, 5].conj())
    np.testing.assert_allclose(m, expected)


def test_first_order_creation_frozen_value(tri_first):
    # single hop of amplitude 0.4 between free levels 1 and 5, gap
    # E0(5,0) - E0(1,0) = 5.4 - 0.9, so the only first-order component of
    # the (5,0) creation column is 0.4 / 4.5 on the (1,0) dyad
    basis = tri_first.basis
    np.testing.assert_allclose(np.abs(basis.f_vectors), np.eye(6), atol=1e-12)
    col = tri_first.c_cols[:, basis.liouville_index(NuIndex(5, 0))]
    expected = np.zeros(36, dtype=np.complex128)
    expected[1] = 0.4 / 4.5
    np.testing.assert_allclose(col, expected, atol=1e-14)


def test_first_order_destruction_frozen_value(tri_first):
    # mirror row: the (1,0) destruction row sees the (5,0) dyad with the
    # opposite-sign denominator, and one-sidedness kills everything else
    row = tri_first.d_rows[tri_first.basis.liouville_index(NuIndex(1, 0)), :]
    expected = np.zeros(36, dtype=np.complex128)
    expected[5] = -0.4 / 4.5
    np.testing.assert_allclose(row, expected, atol=1e-14)


def test_first_order_matches_elementwise_loop(gen_ops):
    # independent oracle: scalar loop over the textbook matrix elements
    decomp = decompose_model(gen_ops, order="1")
    basis, v1, lam = decomp.basis, decomp.v1, decomp.lam
    n = basis.dim2
    scale = max(1.0, float(np.max(np.abs(basis.e0))))
    for k in [3, 17, 100, 255]:
        expected = np.zeros(n, dtype=np.complex128)
        for m in range(n):
            gap = basis.e0[k] - basis.e0[m]
            if m == k or abs(gap) <= 1e-8 * scale:
                continue
            expected[m] = lam * v1[m, k] / gap
        np.testing.assert_allclose(decomp.c_cols[:, k], expected, atol=1e-13)


def test_second_order_energies_match_textbook_loop(gen_ops):
    decomp = decompose_model(gen_ops, order="1")
    basis, v1, lam = decomp.basis, decomp.v1, decomp.lam
    n = basis.dim2
    scale = max(1.0, float(np.max(np.abs(basis.e0))))
    expected = np.array(basis.e0, dtype=np.complex128)
    for k in range(n):
        expected[k] += lam * v1[k, k]
        for m in range(n):
            gap = basis.e0[k] - basis.e0[m]
            if m == k or abs(gap) <= 1e-8 * scale:
                continue
            expected[k] += lam ** 2 * v1[k, m] * v1[m, k] / gap
    # order 1's creation columns already give the second-order energies
    np.testing.assert_allclose(decomp.energies, expected, atol=1e-12)


def test_second_order_column_adds_one_resolvent_power(gen_ops):
    one = decompose_model(gen_ops, order="1")
    two = decompose_model(gen_ops, order="2")
    # the order-2 correction is the squared-resolvent term, O(lam^2), on
    # the creation columns and the destruction rows alike
    bound = 10 * one.lam ** 2 * np.linalg.norm(one.v1) ** 2
    assert 0 < np.linalg.norm(two.c_cols - one.c_cols) < bound
    assert 0 < np.linalg.norm(two.d_rows - one.d_rows) < bound


def test_resonance_raises_on_coupled_degeneracy():
    h0 = np.diag([0.0, 0.0, 1.0])
    h1 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    basis = liouville_basis(h0)
    # guard: the degenerate block must not have been rotated away
    np.testing.assert_allclose(np.abs(basis.f_vectors), np.eye(3), atol=1e-12)
    with pytest.raises(ResonanceError) as excinfo:
        decompose(h0, h1, lam=0.1, order="1")
    assert len(excinfo.value.pairs) > 0
    assert "eta" in str(excinfo.value)


def test_eta_regularizes_resonance():
    h0 = np.diag([0.0, 0.0, 1.0])
    h1 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    decomp = decompose(h0, h1, lam=0.1, order="1", eta=1e-3)
    assert np.all(np.isfinite(decomp.c_cols))
    # retarded denominator: coupling / (E0 gap + i eta)
    k = decomp.basis.liouville_index(NuIndex(1, 0))
    m = decomp.basis.liouville_index(NuIndex(0, 0))
    expected = 0.1 * decomp.v1[m, k] / (decomp.basis.e0[k] - decomp.basis.e0[m] + 1e-3j)
    np.testing.assert_allclose(decomp.c_cols[m, k], expected, atol=1e-15)


def test_uncoupled_degeneracy_is_dropped():
    h0 = np.diag([0.0, 0.0, 1.0])
    h1 = np.diag([1.0, 2.0, 3.0])  # diagonal: degenerate but never coupled
    decomp = decompose(h0, h1, lam=0.1, order="2")
    np.testing.assert_allclose(decomp.c_cols, np.zeros((9, 9)), atol=1e-15)
    np.testing.assert_allclose(decomp.energies,
                               decomp.basis.e0 + 0.1 * np.diag(decomp.v1),
                               atol=1e-14)


def test_exact_similarity_relation(gen_exact):
    assert similarity_residual(gen_exact) <= 1e-12


def test_exact_projector_completeness(gen_exact):
    np.testing.assert_allclose(gen_exact.projector_sum(),
                               np.eye(gen_exact.dim2), atol=1e-10)


def test_exact_population_dyads_are_stationary(gen_exact):
    for nu in gen_exact.basis.nu_indices:
        if nu.is_population:
            k = gen_exact.basis.liouville_index(nu)
            assert abs(gen_exact.energies[k]) <= 1e-12


def test_bundle_invariants(gen_exact):
    # C_nu = Q C_nu P and D_nu = P D_nu Q hold exactly when no creation
    # column or destruction row touches its own dyad
    np.testing.assert_array_equal(np.diag(gen_exact.c_cols), 0.0)
    np.testing.assert_array_equal(np.diag(gen_exact.d_rows), 0.0)
    l_full = gen_exact.liouvillian()
    for k in [0, 7, 133, 255]:
        pi = gen_exact.total_projector(gen_exact.basis.nu_indices[k])
        np.testing.assert_allclose(pi @ pi, pi, atol=1e-10)
        # eigen-relation of the total projector
        np.testing.assert_allclose(l_full @ pi, gen_exact.energies[k] * pi, atol=1e-8)


def test_total_projectors_are_mutually_orthogonal(gen_exact):
    pi_a = gen_exact.total_projector(NuIndex(0, 1))
    pi_b = gen_exact.total_projector(NuIndex(2, 0))
    np.testing.assert_allclose(pi_a @ pi_b, np.zeros_like(pi_a), atol=1e-10)


def test_exact_kinetic_consistency(gen_ops, gen_exact):
    h = gen_ops.hamiltonian()
    rng = np.random.default_rng(42)
    for _ in range(5):
        rho0 = random_density(rng, gen_ops.dim)
        t = float(rng.uniform(0.1, 8.0))
        assert kinetic_consistency_residual(gen_exact, h, rho0, t) <= 1e-8


def test_projected_evolution_reconstructs_projected_exact_state(gen_ops, gen_exact):
    # operator-level form of the consistency oracle: the reconstructed
    # projected densities of the two routes coincide
    h = gen_ops.hamiltonian()
    rng = np.random.default_rng(3)
    rho0 = random_density(rng, gen_ops.dim)
    t = 2.7
    kinetic = evolve_projected(project_density(gen_exact, rho0),
                               gen_exact.energies, t)
    exact = project_density(gen_exact, evolve_exact(h, rho0, t))
    np.testing.assert_allclose(kinetic.reconstruct(), exact.reconstruct(),
                               atol=1e-10)


def test_perturbative_orders_improve_consistency(gen_ops):
    h = gen_ops.hamiltonian()
    rho0 = canonical_initial_state(gen_ops)
    res1 = kinetic_consistency_residual(decompose_model(gen_ops, order="1"),
                                        h, rho0, 1.5)
    res2 = kinetic_consistency_residual(decompose_model(gen_ops, order="2"),
                                        h, rho0, 1.5)
    assert res2 < res1 < 0.1


def test_projected_trace_is_population_sum(gen_ops, gen_exact):
    rng = np.random.default_rng(5)
    rho = random_density(rng, gen_ops.dim)
    projected = project_density(gen_exact, rho)
    np.testing.assert_allclose(np.trace(projected.reconstruct()),
                               projected.trace, atol=1e-12)


def test_project_density_free_theory(gen_ops):
    # lam = 0: the projection is the plain dyad expansion of rho
    decomp = decompose_model(gen_ops, lam=0.0, order="exact")
    rng = np.random.default_rng(6)
    rho = random_density(rng, gen_ops.dim)
    projected = project_density(decomp, rho)
    np.testing.assert_allclose(projected.coefficients,
                               decomp.basis.to_frame(rho), atol=1e-12)
    np.testing.assert_allclose(projected.reconstruct(), rho, atol=1e-12)
    pure = np.outer(decomp.basis.f_vectors[:, 0], decomp.basis.f_vectors[:, 0].conj())
    coeff = project_density(decomp, pure).coefficients
    expected = np.zeros(decomp.dim2)
    expected[0] = 1.0
    np.testing.assert_allclose(coeff, expected, atol=1e-12)


def hamiltonian_spectral_projectors(decomp):
    """Independent oracle route: A_i = |psi_i><psi~_i| from a direct
    eigendecomposition of the phi-frame Hamiltonian, assigned to free
    levels by dominant component. The Liouville eigenprojector for the
    dyad (i, j) then acts as X -> A_i X A_j."""
    from subdyn.linalg import eig

    h = np.diag(decomp.basis.f_values).astype(complex) + decomp.lam * decomp.h1_f
    system = eig(h, hermitian=False)
    assign = {}
    for col in range(h.shape[0]):
        k = int(np.argmax(np.abs(system.right_vectors[:, col])))
        assert k not in assign, "branch assignment ambiguous at this coupling"
        assign[k] = col
    return [np.outer(system.right_vectors[:, assign[i]],
                     system.left_vectors[assign[i], :])
            for i in range(h.shape[0])]


def test_project_density_matches_spectral_projector_oracle(gen_ops, gen_exact):
    rng = np.random.default_rng(7)
    rho = random_density(rng, gen_ops.dim)
    x = unvec(gen_exact.basis.to_frame(rho), gen_ops.dim)
    projs = hamiltonian_spectral_projectors(gen_exact)
    coeff = np.zeros(gen_exact.dim2, dtype=np.complex128)
    for nu in gen_exact.basis.nu_indices:
        k = gen_exact.basis.liouville_index(nu)
        coeff[k] = (projs[nu.row] @ x @ projs[nu.col])[nu.row, nu.col]
    got = project_density(gen_exact, rho).coefficients
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


@pytest.mark.parametrize("hermitian", [True, False])
def test_evolve_grid_matches_pointwise_exact(hermitian):
    rng = np.random.default_rng(9)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    if hermitian:
        h = h + h.conj().T
    rho0 = random_density(rng, 4)
    times = np.linspace(0.0, 3.0, 7)
    grid = evolve_grid(h, rho0, times)
    for k, t in enumerate(times):
        np.testing.assert_allclose(grid[k], evolve_exact(h, rho0, float(t)),
                                   atol=1e-9)


def test_evolve_grid_defective_fallback():
    h = np.array([[0.0, 1.0], [0.0, 0.0]])  # Jordan block, defective
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    times = np.array([0.0, 0.5])
    grid = evolve_grid(h, rho0, times)
    for k, t in enumerate(times):
        np.testing.assert_allclose(grid[k], evolve_exact(h, rho0, float(t)),
                                   atol=1e-12)


def test_evolve_grid_defective_fallback_is_the_expm_sandwich():
    # a Jordan block has no eigenbasis, so the grid takes the per-point
    # route; the right factor is the inverse of the left one, not its adjoint
    h = np.array([[0.5, 1.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, 0.5]], dtype=complex)
    rho0 = random_density(np.random.default_rng(10), 3)
    times = np.linspace(0.0, 2.0, 5)
    grid = evolve_grid(h, rho0, times)
    for k, t in enumerate(times):
        u = scipy.linalg.expm(-1j * t * h)
        np.testing.assert_allclose(grid[k], u @ rho0 @ np.linalg.inv(u), atol=1e-12)


def test_creation_resolvent_solves_stationary_equation(gen_ops):
    decomp = decompose_model(gen_ops, order="1")
    basis, v1, lam = decomp.basis, decomp.v1, decomp.lam
    nu = NuIndex(1, 0)
    col, z = creation_resolvent(basis, v1, lam, nu)
    assert z == basis.e0[basis.liouville_index(nu)]
    assert stationary_residual(basis, v1, lam, nu, col, z=z) <= 1e-10
    # the plain series column only solves it to O(lam)
    c1 = decomp.c_cols[:, basis.liouville_index(nu)]
    assert stationary_residual(basis, v1, lam, nu, c1) > 1e-4


def test_self_consistent_resolvent_finds_exact_eigenvalue(gen_ops, gen_exact):
    decomp = decompose_model(gen_ops, order="1")
    basis, v1, lam = decomp.basis, decomp.v1, decomp.lam
    nu = NuIndex(1, 0)
    k = basis.liouville_index(nu)
    _, z = creation_resolvent(basis, v1, lam, nu, self_consistent=True)
    assert abs(z - gen_exact.energies[k]) <= 1e-10


def test_resolvent_beats_series_at_small_lambda(gen_ops):
    nu = NuIndex(1, 0)
    gaps = []
    for lam in (1e-2, 5e-3):
        decomp = decompose_model(gen_ops, order="1", lam=lam)
        basis, v1 = decomp.basis, decomp.v1
        col, _ = creation_resolvent(basis, v1, lam, nu)
        c1 = decomp.c_cols[:, basis.liouville_index(nu)]
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


def test_lambda_halving_ratios():
    h0, h1 = nondegenerate_toy()
    c_gaps, e_gaps = [], []
    for lam in (1e-2, 5e-3, 2.5e-3):
        exact = decompose(h0, h1, lam=lam, order="exact")
        first = decompose(h0, h1, lam=lam, order="1")
        c_gaps.append(np.linalg.norm(exact.c_cols - first.c_cols))
        e_gaps.append(np.max(np.abs(first.energies - exact.energies)))
    for a, b in zip(c_gaps, c_gaps[1:]):
        assert 3.5 <= a / b <= 4.5
    for a, b in zip(e_gaps, e_gaps[1:]):
        assert 6.0 <= a / b <= 10.0


def test_exact_columns_reject_lost_anchor():
    # a huge one-sided hop concentrates both eigenvectors on the first
    # dyad, so one branch keeps only ~1/K of weight on its own anchor
    h0 = np.diag([0.0, 1.0])
    h1 = np.array([[0.0, 3e8], [0.0, 0.0]])
    with pytest.raises(ValueError, match="anchor"):
        decompose(h0, h1, lam=1.0, order="exact")


def test_diagonal_model_has_no_creation():
    # interaction diagonal in the free frame: Q L1 P = 0, so C = 0 and the
    # kinetic eigenvalues are plain differences of the full diagonal
    ops = build_model(DIAG_SPEC)
    for order in ("1", "2", "exact"):
        decomp = decompose_model(ops, order=order)
        np.testing.assert_allclose(decomp.c_cols, np.zeros((36, 36)), atol=1e-12)
        np.testing.assert_allclose(decomp.d_rows, np.zeros((36, 36)), atol=1e-12)
    h_diag = np.diag(ops.hamiltonian()).real
    decomp = decompose_model(ops, order="exact")
    order_idx = np.argsort(np.diag(ops.h0).real, kind="stable")
    full = h_diag[order_idx]
    expected = np.subtract.outer(full, full).reshape(-1, order="F")
    np.testing.assert_allclose(decomp.energies, expected, atol=1e-12)


def test_triangular_theta_is_free():
    # strictly one-sided interaction leaves every kinetic eigenvalue at its
    # free value, at every construction order
    ops = build_model(TRI_FREE_SPEC)
    for order in ("1", "2", "exact"):
        decomp = decompose_model(ops, order=order)
        np.testing.assert_allclose(decomp.energies, decomp.basis.e0, atol=1e-10)


def test_triangular_creation_is_one_sided():
    ops = build_model(TRI_FREE_SPEC)
    decomp = decompose_model(ops, order="1")
    c = decomp.c_cols
    np.testing.assert_allclose(np.diag(c), np.zeros(36), atol=1e-14)
    # no reciprocal pairs: the hop graph never runs both ways
    np.testing.assert_allclose(c * c.T, np.zeros_like(c), atol=1e-14)
    assert np.max(np.abs(c)) > 1e-3


def test_total_projector_matches_eig_spectral_projector(gen_exact):
    # many Liouville eigenvalues are degenerate (differences collide), so
    # per-dyad eigvectors of L are not well defined; the Hamiltonian-level
    # sandwich A_i X A_j is, and fixes the same projector
    projs = hamiltonian_spectral_projectors(gen_exact)
    for nu in (NuIndex(1, 0), NuIndex(0, 0), NuIndex(2, 5)):
        oracle = np.kron(projs[nu.col].T, projs[nu.row])
        np.testing.assert_allclose(gen_exact.total_projector(nu), oracle,
                                   atol=1e-7)


def test_group_spectral_projector_of_l_matches_engine_sum(gen_exact):
    # cluster-summed comparison straight against eig of the full Liouvillian:
    # sum the engine projectors over every dyad sharing one eigenvalue and
    # compare with the group spectral projector, which is basis independent
    from subdyn.linalg import eig

    system = eig(gen_exact.liouvillian())
    nu = NuIndex(1, 0)
    target = gen_exact.energies[gen_exact.basis.liouville_index(nu)]
    members = [m for m in gen_exact.basis.nu_indices
               if abs(gen_exact.energies[gen_exact.basis.liouville_index(m)]
                      - target) < 1e-8]
    assert len(members) >= 2
    engine = sum(gen_exact.total_projector(m) for m in members)
    cols = [c for c in range(gen_exact.dim2)
            if abs(system.values[c] - target) < 1e-8]
    assert len(cols) == len(members)
    w = system.right_vectors[:, cols]
    l = system.left_vectors[cols, :]
    oracle = w @ np.linalg.solve(l @ w, l)
    np.testing.assert_allclose(engine, oracle, atol=1e-7)


def test_decompose_model_uses_spec_lam(gen_ops):
    d = decompose_model(gen_ops)
    assert d.lam == GEN_SPEC.lam
    assert decompose_model(gen_ops, lam=0.01).lam == 0.01


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 5))
def test_exact_decomposition_properties_random(seed, dim):
    rng = np.random.default_rng(seed)
    h0 = np.diag(np.sort(rng.uniform(0.0, 1.0, dim) + 2.0 * np.arange(dim)))
    h1 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h1 = h1 + h1.conj().T
    decomp = decompose(h0, h1, lam=0.05, order="exact")
    assert similarity_residual(decomp) <= 1e-8
    np.testing.assert_allclose(decomp.projector_sum(), np.eye(dim * dim),
                               atol=1e-8)
    rho = random_density(rng, dim)
    t = float(rng.uniform(0.0, 4.0))
    res = kinetic_consistency_residual(decomp, h0 + 0.05 * h1, rho, t)
    assert res <= 1e-8


# Dense-route oracles for the factored exact order: every kind at d = 16,
# the dense d^2 x d^2 matrices built on request from the stored eigensystem.
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


def _dense_pairing(decomp):
    return 1.0 + np.einsum("ij,ji->i", decomp.d_rows, decomp.c_cols)


def test_factored_pairing_matches_dense(oracle_case):
    _, decomp = oracle_case
    np.testing.assert_allclose(decomp.pairing(), _dense_pairing(decomp), rtol=0, atol=1e-12)


def test_factored_projection_matches_dense(oracle_case):
    ops, decomp = oracle_case
    rho = random_density(np.random.default_rng(11), ops.dim)
    left = np.eye(decomp.dim2) + decomp.d_rows
    dense = (left @ decomp.basis.to_frame(rho)) / _dense_pairing(decomp)
    np.testing.assert_allclose(project_density(decomp, rho).coefficients, dense,
                               rtol=0, atol=1e-12)


def test_factored_similarity_residual_matches_dense(oracle_case):
    _, decomp = oracle_case
    l_full = decomp.liouvillian()
    omega = decomp.omega()
    dense = float(np.linalg.norm(l_full @ omega - omega @ decomp.theta_matrix())) \
        / norm_scale(l_full)
    assert abs(similarity_residual(decomp) - dense) <= 1e-12


def test_factored_completeness_matches_dense(oracle_case):
    _, decomp = oracle_case
    right = (np.eye(decomp.dim2) + decomp.c_cols) / _dense_pairing(decomp)
    dense = float(np.linalg.norm(right @ (np.eye(decomp.dim2) + decomp.d_rows)
                                 - np.eye(decomp.dim2)))
    assert abs(completeness_residual(decomp) - dense) <= 1e-12


def test_factored_block_residual_matches_dense(oracle_case):
    _, decomp = oracle_case
    dense = max(np.max(np.abs(np.diag(decomp.c_cols))), np.max(np.abs(np.diag(decomp.d_rows))))
    assert abs(block_residual(decomp) - dense) <= 1e-12


def test_factored_kinetic_consistency_matches_liouville_route(oracle_case):
    ops, decomp = oracle_case
    h = ops.hamiltonian()
    rng = np.random.default_rng(12)
    rho0 = random_density(rng, ops.dim)
    t = 2.3
    left = np.eye(decomp.dim2) + decomp.d_rows
    kappa = _dense_pairing(decomp)
    exact = (left @ decomp.basis.to_frame(evolve_exact(h, rho0, t))) / kappa
    kinetic = np.exp(-1j * decomp.energies * t) * (left @ decomp.basis.to_frame(rho0)) / kappa
    dense = float(np.linalg.norm(decomp.basis.from_frame(exact - kinetic), ord=2))
    assert abs(kinetic_consistency_residual(decomp, h, rho0, t) - dense) <= 1e-12


def test_exact_decompose_and_classify_stay_small_at_d48():
    # one dense d^2 x d^2 complex matrix at d = 48 is 85 MB
    import tracemalloc

    from subdyn.classify import classify

    ops = build_model(ModelSpec(kind="general", omega_atoms=(1.0, 1.0), omega=1.0, g=0.5,
                                lam=0.05, bath=((0.9, 0.6), (0.97, 0.6)), fock_cutoff=2,
                                bath_cutoff=1))
    assert ops.dim == 48
    tracemalloc.start()
    try:
        decompose_model(ops, order="exact")
        classify(ops, order="exact")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20
