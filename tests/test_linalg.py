"""Vectorization, eigensystems, and propagator primitives."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from subdyn.linalg import (
    DefectiveMatrixError,
    NonHermitianError,
    NotPositiveSemidefiniteError,
    TensorSpace,
    commutator_superop,
    degenerate_groups,
    eig,
    expm_action,
    propagator,
    random_density,
    sqrtm_psd,
    tensor,
    unvec,
    vec,
)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_vec_unvec_roundtrip():
    rng = np.random.default_rng(0)
    m = random_complex(rng, (5, 5))
    np.testing.assert_allclose(unvec(vec(m)), m)


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
    lhs = unvec(commutator_superop(h) @ vec(x))
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
    np.testing.assert_allclose(system.reconstruct(), m, atol=1e-12)
    assert np.all(np.diff(system.values.real) >= -1e-12)


def test_eig_general_left_right():
    rng = np.random.default_rng(3)
    m = random_complex(rng, (6, 6))
    system = eig(m)
    assert not system.hermitian
    np.testing.assert_allclose(system.left_vectors @ system.right_vectors,
                               np.eye(6), atol=1e-12)
    np.testing.assert_allclose(system.reconstruct(), m, atol=1e-10)


def test_eig_defective_raises():
    with pytest.raises(DefectiveMatrixError):
        eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_hermitian_forced_rejects():
    with pytest.raises(NonHermitianError):
        eig(np.array([[0.0, 1.0], [0.0, 0.0]]), hermitian=True)


@pytest.mark.parametrize("hermitian", [True, False])
def test_expm_action_matches_dense_exponential(hermitian):
    rng = np.random.default_rng(4)
    m = random_complex(rng, (5, 5))
    if hermitian:
        m = m + m.conj().T
    v = random_complex(rng, 5)
    expected = scipy.linalg.expm(-1j * 0.7 * m) @ v
    np.testing.assert_allclose(expm_action(m, 0.7, v), expected, atol=1e-10)


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


def test_degenerate_groups_chains_clusters():
    values = np.array([0.0, 0.0, 1.0, 1.0 + 5e-9, 2.0])
    groups = degenerate_groups(values, scale=1.0)
    assert groups == [[0, 1], [2, 3], [4]]


def test_random_density_is_state():
    rng = np.random.default_rng(7)
    rho = random_density(rng, 6)
    np.testing.assert_allclose(np.trace(rho), 1.0, atol=1e-14)
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-14)
    assert np.linalg.eigvalsh(rho).min() > 0


def test_tensor_matches_kron_chain():
    a, b, c = np.eye(2), np.diag([1.0, 2.0]), np.ones((2, 2))
    np.testing.assert_allclose(tensor(a, b, c), np.kron(a, np.kron(b, c)))


def test_tensor_space_lookup():
    space = TensorSpace((("atom", 2), ("field", 3)))
    assert space.dim == 6
    assert space.labels == ("atom", "field")
    assert space.dim_of("field") == 3
    with pytest.raises(KeyError):
        space.dim_of("bath")
    with pytest.raises(ValueError):
        TensorSpace((("a", 2), ("a", 2)))

