"""Vectorization and eigensystem primitives, and the oracle's dense helpers."""

import re

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import commutator_superop, propagator, random_density, sqrtm_psd, unvec, vec
from subdyn.linalg import (
    DefectiveMatrixError,
    NonHermitianError,
    NotPositiveSemidefiniteError,
    components,
    eig,
    expm,
    max_overlap_matching,
    psd_factor,
    tensor,
)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_vec_unvec_roundtrip():
    rng = np.random.default_rng(0)
    m = random_complex(rng, (5, 5))
    np.testing.assert_allclose(unvec(vec(m), 5), m)


def test_vec_is_column_stacking():
    m = np.array([[1, 2], [3, 4]])
    np.testing.assert_allclose(vec(m), [1, 3, 2, 4])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 5))
def test_vec_kron_identity(seed, dim):
    # vec(A X B) = (B^T kron A) vec(X), the convention every superoperator relies on
    rng = np.random.default_rng(seed)
    a, x, b = (random_complex(rng, (dim, dim)) for _ in range(3))
    lhs = vec(a @ x @ b)
    rhs = np.kron(b.T, a) @ vec(x)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12 * dim)


def test_vec_of_basis_dyad_is_column_stacking_index():
    d = 4
    eye = np.eye(d)
    for i in range(d):
        for j in range(d):
            v = vec(np.outer(eye[i], eye[j]))
            expected = np.zeros(d * d)
            expected[i + d * j] = 1.0
            np.testing.assert_allclose(v, expected)


def test_vec_of_dyad_is_conjugate_bra_kron_ket():
    # vec(|u><w|) = conj(w) kron u under column stacking
    u = np.array([1.0, 0.0])
    w = np.array([0.0, 1.0j])
    np.testing.assert_allclose(vec(np.outer(u, w.conj())), np.kron(w.conj(), u))


def test_commutator_superop_matches_direct():
    rng = np.random.default_rng(1)
    h = random_complex(rng, (4, 4))
    h = h + h.conj().T
    x = random_complex(rng, (4, 4))
    lhs = unvec(commutator_superop(h) @ vec(x), 4)
    np.testing.assert_allclose(lhs, h @ x - x @ h, atol=1e-12)


def test_commutator_spectrum_is_differences():
    e = np.array([0.3, 1.1, 2.0])
    ell = commutator_superop(np.diag(e))
    expected = np.sort(np.subtract.outer(e, e).ravel(order="F"))
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(ell)), expected, atol=1e-12)


def test_eig_hermitian_path():
    rng = np.random.default_rng(2)
    m = random_complex(rng, (6, 6))
    m = m + m.conj().T
    system = eig(m)
    assert system.hermitian
    np.testing.assert_allclose(system.left_vectors @ system.right_vectors,
                               np.eye(6), atol=1e-12)
    rebuilt = (system.right_vectors * system.values) @ system.left_vectors
    np.testing.assert_allclose(rebuilt, m, atol=1e-12)
    assert np.all(np.diff(system.values.real) >= -1e-12)


def test_eig_of_an_empty_matrix_is_empty():
    # a walk over no level diagonalizes a 0 x 0 block
    system = eig(np.zeros((0, 0)))
    assert system.values.shape == (0,)
    assert system.right_vectors.shape == system.left_vectors.shape == (0, 0)


def test_eig_general_left_right():
    rng = np.random.default_rng(3)
    m = random_complex(rng, (6, 6))
    system = eig(m)
    assert not system.hermitian
    np.testing.assert_allclose(system.left_vectors @ system.right_vectors,
                               np.eye(6), atol=1e-12)
    rebuilt = (system.right_vectors * system.values) @ system.left_vectors
    np.testing.assert_allclose(rebuilt, m, atol=1e-10)


def test_eig_defective_raises():
    with pytest.raises(DefectiveMatrixError):
        eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _permuted_block_diagonal(rng, sizes, hermitian):
    """Random blocks of the given sizes on the diagonal, indices randomly permuted."""
    d = sum(sizes)
    m = np.zeros((d, d), dtype=complex)
    start = 0
    for s in sizes:
        block = random_complex(rng, (s, s))
        m[start:start + s, start:start + s] = block + block.conj().T if hermitian else block
        start += s
    perm = rng.permutation(d)
    return m[np.ix_(perm, perm)]


def test_components_label_each_index_by_its_least_linked_index():
    # 0-3 linked through M[3, 0] only, 1-4-2 a chain, 5 alone
    m = np.zeros((6, 6))
    m[3, 0] = m[1, 4] = m[4, 2] = 1.0
    np.testing.assert_array_equal(components(m), [0, 1, 1, 0, 1, 5])
    np.testing.assert_array_equal(components(np.diag([1.0, 0.0, 2.0])), [0, 1, 2])
    np.testing.assert_array_equal(components(np.ones((3, 3))), [0, 0, 0])


@pytest.mark.parametrize("hermitian", [True, False])
def test_eig_of_permuted_block_diagonal_matrix_matches_one_block(hermitian):
    # two singletons (no LAPACK call), two blocks of 2 (one batched call)
    # and one of 3, against one LAPACK call on the whole matrix
    rng = np.random.default_rng(7)
    m = _permuted_block_diagonal(rng, (1, 2, 3, 2, 1), hermitian)
    labels = components(m)
    assert np.unique(labels).size == 5
    split = eig(m)
    assert split.hermitian == hermitian
    if hermitian:
        values, right = np.linalg.eigh(m)
        left = right.conj().T
    else:
        values, right = scipy.linalg.eig(m)
        left = np.linalg.inv(right)
    order = np.lexsort((values.imag, values.real))
    np.testing.assert_allclose(split.values, values[order], rtol=0, atol=1e-12)
    for k, o in enumerate(order):
        np.testing.assert_allclose(np.outer(split.right_vectors[:, k], split.left_vectors[k]),
                                   np.outer(right[:, o], left[o]), rtol=0, atol=1e-12)
    np.testing.assert_allclose(split.left_vectors @ split.right_vectors, np.eye(9),
                               rtol=0, atol=1e-12)
    # each eigenvector is exactly zero outside its own component
    for k in range(9):
        assert np.unique(labels[np.flatnonzero(split.right_vectors[:, k])]).size == 1
        assert np.unique(labels[np.flatnonzero(split.left_vectors[k])]).size == 1


def test_eig_refuses_a_defective_block():
    m = np.zeros((4, 4))
    m[0, 1] = 1.0
    m[2:, 2:] = [[1.0, 2.0], [0.5, 3.0]]
    with pytest.raises(DefectiveMatrixError):
        eig(m)


def test_eig_refusal_reads_the_assembled_condition_number():
    # A's eigenvectors are well conditioned but correlated (sigma_max 2.42);
    # B's are nearly parallel, condition 6.7e8, below the 1e9 refusal alone.
    # The assembled basis has the singular values of both, so its
    # condition number is max sigma_max / min sigma_min = 1.1e9
    a = np.triu(np.ones((8, 8)), 1) + np.diag(np.arange(10.0, 18.0))
    b = np.array([[0.0, 1.0], [0.0, 3e-9]])
    sigmas = [np.linalg.svd(np.linalg.eig(x)[1], compute_uv=False) for x in (a, b)]
    assembled = max(s.max() for s in sigmas) / min(s.min() for s in sigmas)
    assert all(s.max() / s.min() < 1e9 for s in sigmas) and assembled > 1e9
    eig(a)
    eig(b)
    refusal = re.escape(f"condition estimate {assembled:.3e}")
    with pytest.raises(DefectiveMatrixError, match=refusal):
        eig(scipy.linalg.block_diag(a, b))


@pytest.mark.parametrize("hermitian", [True, False])
def test_propagator_matches_dense_exponential(hermitian):
    rng = np.random.default_rng(4)
    m = random_complex(rng, (5, 5))
    if hermitian:
        m = m + m.conj().T
    expected = scipy.linalg.expm(-1j * 0.7 * m)
    np.testing.assert_allclose(propagator(m, 0.7), expected, atol=1e-10)


@pytest.mark.parametrize("hermitian", [True, False])
@pytest.mark.parametrize("norm", [1e-3, 1e-2, 0.2, 0.8, 2.0, 5.0, 50.0, 1e3])
def test_expm_matches_scipy(hermitian, norm):
    # the 1-norms straddle theta_13 = 5.37: below it the [13/13] Pade
    # approximant serves unscaled, above it after up to 8 squarings; -i M
    # is the flow of M, which a non-Hermitian part of a tenth of M's size
    # keeps within overflow at every norm
    rng = np.random.default_rng(8)
    dense = random_complex(rng, (7, 7))
    for m in (dense + dense.conj().T, _permuted_block_diagonal(rng, (1, 3, 1, 2, 3), True)):
        if not hermitian:
            m = m + 0.1 * np.where(m != 0, random_complex(rng, m.shape), 0.0)
        a = -1j * m * (norm / np.abs(m).sum(axis=0).max())
        expected = scipy.linalg.expm(a)
        got = expm(a)
        assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)
        # exactly block diagonal in the components, singletons included
        labels = components(a)
        assert not got[labels[:, None] != labels[None, :]].any()


def _assignment_perm(overlap):
    rows, cols = scipy.optimize.linear_sum_assignment(-overlap)
    perm = np.empty(overlap.shape[0], dtype=int)
    perm[rows] = cols
    return perm


@pytest.mark.parametrize("case", ["random", "near_identity", "block_diagonal", "tied"])
def test_max_overlap_matching_matches_linear_sum_assignment(case):
    rng = np.random.default_rng(9)
    for trial in range(40):
        n = int(rng.integers(2, 13))
        matrix = np.ones((n, n))
        if case == "random":
            overlap = rng.random((n, n))
        elif case == "near_identity":
            overlap = np.eye(n) + 0.6 * rng.random((n, n))
        elif case == "block_diagonal":
            matrix = _permuted_block_diagonal(rng, tuple(rng.integers(1, 4, 4)), trial % 2 == 0)
            overlap = np.abs(eig(matrix).right_vectors)
            n = overlap.shape[0]
        else:
            # a few distinct values, so most rows and totals tie exactly
            overlap = rng.integers(1, 4, (n, n)) / 4.0
        perm = max_overlap_matching(overlap, matrix)
        expected = _assignment_perm(overlap)
        assert sorted(perm.tolist()) == list(range(n))
        total = overlap[np.arange(n), perm].sum()
        assert abs(total - overlap[np.arange(n), expected].sum()) <= 1e-12 * n
        if case != "tied":
            # a continuous draw has one optimum
            assert perm.tolist() == expected.tolist()


def test_propagator_unitary_for_hermitian():
    rng = np.random.default_rng(5)
    m = random_complex(rng, (4, 4))
    m = m + m.conj().T
    u = propagator(m, 1.3)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)


def test_sqrtm_psd_squares_back():
    rng = np.random.default_rng(6)
    rho = random_density(rng, 5)
    root = sqrtm_psd(rho)
    np.testing.assert_allclose(root @ root, rho, atol=1e-12)


def test_sqrtm_psd_rejects_negative():
    with pytest.raises(NotPositiveSemidefiniteError):
        sqrtm_psd(np.diag([1.0, -0.5]))


def test_sqrtm_psd_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        sqrtm_psd(np.array([[1.0, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize("rank", [1, 3, 5])
def test_psd_factor_has_the_numerical_rank(rank):
    rng = np.random.default_rng(12)
    a = random_complex(rng, (5, rank))
    rho = a @ a.conj().T
    u = psd_factor(rho)
    assert u.shape == (5, np.linalg.matrix_rank(rho)) == (5, rank)
    np.testing.assert_allclose(u @ u.conj().T, rho, atol=1e-12)


def test_psd_factor_is_exactly_zero_off_the_state_levels():
    # an eigh of the whole matrix leaves rounding (about 5e-17) on the zero
    # rows of some such states; the factor is zero there to the bit
    rng = np.random.default_rng(37)
    for levels in ([0, 1, 5], [2, 3, 7, 9]):
        a = np.zeros((12, 2), dtype=complex)
        a[levels] = random_complex(rng, (len(levels), 2))
        rho = a @ a.conj().T
        u = psd_factor(rho)
        assert u.shape == (12, 2)
        assert np.flatnonzero(np.abs(u).sum(axis=1)).tolist() == levels
        np.testing.assert_allclose(u @ u.conj().T, rho, atol=1e-12)


def test_psd_factor_rejects_negative_and_non_hermitian():
    with pytest.raises(NotPositiveSemidefiniteError):
        psd_factor(np.diag([1.0, -0.5]))
    with pytest.raises(NonHermitianError):
        psd_factor(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_random_density_is_state():
    rng = np.random.default_rng(7)
    rho = random_density(rng, 6)
    np.testing.assert_allclose(np.trace(rho), 1.0, atol=1e-14)
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-14)
    assert np.linalg.eigvalsh(rho).min() > 0


def test_tensor_matches_kron_chain():
    # bit for bit, against the left fold np.kron(np.kron(a, b), c)
    rng = np.random.default_rng(17)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    signed_zeros = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)],
                             [complex(-0.0, -0.0), complex(-1.5, 0.0)]])
    cases = [
        (np.eye(2), np.diag([1.0, 2.0]), np.ones((2, 2))),
        (cplx(3), cplx(2)),                                  # kets
        (cplx(2), cplx(3), cplx(2), signed_zeros[1]),        # bras, four factors
        (cplx(2, 3), cplx(3, 1), cplx(1, 2)),                # rectangular
        (signed_zeros, cplx(2, 2), signed_zeros),
        (cplx(2, 2), signed_zeros, np.eye(2), cplx(3, 3)),
    ]
    for factors in cases:
        expected = np.asarray(factors[0], dtype=np.complex128)
        for f in factors[1:]:
            expected = np.kron(expected, np.asarray(f, dtype=np.complex128))
        got = tensor(*factors)
        assert got.shape == expected.shape
        assert got.dtype == np.complex128
        assert got.tobytes() == expected.tobytes()
    with pytest.raises(ValueError, match="all be 1-d"):
        tensor(cplx(2), cplx(2, 2))
