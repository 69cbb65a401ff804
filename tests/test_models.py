"""Model construction: operator tables, labels, and the exchange block."""

import dataclasses

import numpy as np
import pytest

from oracle import canonical_initial_state, kronecker_general_model
from subdyn.models import (
    ModelSpec,
    block_eigensolve,
    build_model,
    canonical_initial_ket,
    extract_block,
    one_sided_norms,
    triangular_sort_order,
)

DIAG_SPEC = ModelSpec(kind="diagonal", omega0=1.0, omega=1.3, g=0.5, lam=1.0,
                      fock_cutoff=2)
TRI_SPEC = ModelSpec(kind="triangular", omega0=1.0, omega=1.3, g=0.4, lam=1.0,
                     fock_cutoff=2)
GEN_SPEC = ModelSpec(kind="general", omega_atoms=(1.0, 1.0), omega=1.0, g=0.5,
                     lam=0.05, bath=((0.9, 0.6),), fock_cutoff=1, bath_cutoff=1)


def test_diagonal_model_tables():
    ops = build_model(DIAG_SPEC)
    assert ops.basis_labels == ((1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2))
    # levels (-1)^j omega0 + omega n, interaction g n on the upper atom only
    np.testing.assert_allclose(np.diag(ops.h0).real, [-1.0, 0.3, 1.6, 1.0, 2.3, 3.6])
    np.testing.assert_allclose(np.diag(ops.h1).real, [0, 0, 0, 0, 0.5, 1.0])
    assert np.max(np.abs(ops.h0 - np.diag(np.diag(ops.h0)))) == 0
    assert np.max(np.abs(ops.h1 - np.diag(np.diag(ops.h1)))) == 0
    assert ops.hermitian_h1


def test_triangular_model_literal_table():
    ops = build_model(TRI_SPEC)
    np.testing.assert_allclose(np.diag(ops.h0).real, [-1.0, 0.3, 1.6, 1.0, 2.3, 3.6])
    np.testing.assert_allclose(np.diag(ops.h1).real, [0, -0.4, -0.8, 0, 0.4, 0.8])
    hop = ops.h1 - np.diag(np.diag(ops.h1))
    expected = np.zeros((6, 6))
    expected[1, 5] = 0.4  # the only surviving hop: amplitude g sqrt(n-1) at n = 2
    np.testing.assert_allclose(hop.real, expected)
    assert not ops.hermitian_h1


def test_triangular_one_sidedness():
    ops = build_model(TRI_SPEC)
    order = triangular_sort_order(ops.basis_labels)
    lower, upper = one_sided_norms(ops.h1 - np.diag(np.diag(ops.h1)), order)
    assert lower == 0.0
    assert upper > 0.1


def test_triangular_diagonal_in_free_moves_diagonal():
    spec = ModelSpec(kind="triangular", omega0=1.0, omega=1.3, g=0.4, lam=1.0,
                     fock_cutoff=2, diagonal_in_free=True)
    ops = build_model(spec)
    np.testing.assert_allclose(np.diag(ops.h0).real, [-1.0, -0.1, 0.8, 1.0, 2.7, 4.4])
    np.testing.assert_allclose(np.diag(ops.h1), np.zeros(6))
    # free levels must be nondegenerate for the projected picture to be clean
    levels = np.sort(np.diag(ops.h0).real)
    assert np.min(np.diff(levels)) > 0.1


def test_triangular_hermitian_variant():
    spec = ModelSpec(kind="triangular", omega0=1.0, omega=1.3, g=0.4, lam=1.0,
                     fock_cutoff=2, hermitian_variant=True)
    ops = build_model(spec)
    np.testing.assert_allclose(ops.h1, ops.h1.conj().T)
    assert ops.hermitian_h1


def test_general_model_is_hermitian():
    ops = build_model(GEN_SPEC)
    assert ops.dim == 16
    np.testing.assert_allclose(ops.h0, ops.h0.conj().T, atol=1e-14)
    np.testing.assert_allclose(ops.h1, ops.h1.conj().T, atol=1e-14)
    assert ops.basis_labels[0] == ("+", "+", 0, 0)


def test_full_hamiltonian_scales_interaction():
    # lam comes from ModelSpec.lam
    ops = build_model(dataclasses.replace(DIAG_SPEC, lam=0.25))
    np.testing.assert_allclose(ops.hamiltonian(), ops.h0 + 0.25 * ops.h1)


def test_extract_block_structure():
    ops = build_model(GEN_SPEC)
    block = extract_block(ops, 0, (0,))
    np.testing.assert_allclose(block.real, [[1.0, 0.5, 0.5],
                                            [0.5, 1.0, 0.0],
                                            [0.5, 0.0, 1.0]], atol=1e-14)


def test_extract_block_outside_truncation():
    ops = build_model(GEN_SPEC)
    with pytest.raises(ValueError):
        extract_block(ops, 1, (0,))  # needs n = 2 in a fock_cutoff = 1 space


def test_block_eigensolve_closed_form():
    solved = block_eigensolve(1.0, 1.0, 0.5)
    np.testing.assert_allclose(np.sort(solved.values.real),
                               [1.0 - 0.5 * np.sqrt(2.0), 1.0, 1.0 + 0.5 * np.sqrt(2.0)])
    np.testing.assert_allclose(solved.vectors[:, 0],
                               np.array([0.0, -1.0, 1.0]) / np.sqrt(2.0))


def test_block_eigensolve_random_sweep():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a, b = rng.uniform(-3, 3, size=2)
        gamma = rng.uniform(-2, 2)
        solved = block_eigensolve(a, b, gamma)
        numeric = np.sort(np.linalg.eigvalsh(solved.matrix))
        np.testing.assert_allclose(np.sort(solved.values.real), numeric, atol=1e-10)
        # each column is an eigenvector of the block
        for col in range(3):
            v = solved.vectors[:, col]
            np.testing.assert_allclose(solved.matrix @ v, solved.values[col] * v,
                                       atol=1e-10)


def test_block_eigensolve_decoupled():
    solved = block_eigensolve(2.0, 1.0, 0.0)
    np.testing.assert_allclose(np.sort(solved.values.real), [1.0, 1.0, 2.0])
    for col in range(3):
        v = solved.vectors[:, col]
        np.testing.assert_allclose(solved.matrix @ v, solved.values[col] * v,
                                   atol=1e-12)


def test_canonical_initial_states():
    for spec, targets in [
        (DIAG_SPEC, [(1, 1), (2, 1)]),
        (TRI_SPEC, [(1, 0), (2, 0)]),
        (GEN_SPEC, [("+", "+", 0, 0)]),
    ]:
        ops = build_model(spec)
        rho = canonical_initial_state(ops)
        np.testing.assert_allclose(np.trace(rho), 1.0)
        support = [i for i in range(ops.dim) if abs(rho[i, i]) > 1e-12]
        assert [ops.basis_labels[i] for i in support] == targets


@pytest.mark.parametrize("spec", [DIAG_SPEC, TRI_SPEC, GEN_SPEC], ids=lambda s: s.kind)
def test_canonical_state_is_the_outer_product_of_its_ket(spec):
    ops = build_model(spec)
    k = canonical_initial_ket(ops)
    assert k.shape == (ops.dim,)
    assert np.linalg.norm(k) == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_array_equal(canonical_initial_state(ops), np.outer(k, k.conj()))


def test_canonical_state_needs_excitation_room():
    spec = ModelSpec(kind="diagonal", omega0=1.0, omega=1.3, g=0.5, fock_cutoff=0)
    with pytest.raises(ValueError):
        canonical_initial_state(build_model(spec))


def test_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(kind="cubic")
    with pytest.raises(ValueError):
        ModelSpec(kind="diagonal", fock_cutoff=-1)
    with pytest.raises(ValueError):
        ModelSpec(kind="diagonal", diagonal_in_free=True)
    with pytest.raises(ValueError):
        ModelSpec(kind="general", omega_atoms=(1.0,))
    with pytest.raises(ValueError):
        ModelSpec(kind="general", bath=((1.0, 0.5, 0.1),))


def test_spec_dim_formula():
    assert DIAG_SPEC.dim == 6
    assert GEN_SPEC.dim == 16
    assert ModelSpec(kind="general", bath=(), fock_cutoff=2).dim == 12


def _random_general_spec(rng):
    return ModelSpec(kind="general",
                     omega_atoms=(rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)),
                     omega=rng.uniform(0.5, 1.5), g=rng.uniform(0.1, 1.0), lam=0.05,
                     bath=tuple((rng.uniform(0.5, 1.5), rng.uniform(0.1, 1.0))
                                for _ in range(rng.integers(0, 4))),
                     fock_cutoff=int(rng.integers(0, 5)), bath_cutoff=int(rng.integers(0, 3)))


# the four general layouts of the benchmark decks, d = 8, 16, 32 and 48:
# (fock_cutoff, bath modes, bath_cutoff)
DECK_LAYOUTS = ((0, 1, 1), (1, 1, 1), (1, 2, 1), (2, 2, 1))


def test_general_model_matches_kronecker_sums():
    # each entry is the one product or the same ordered sum that the
    # Kronecker construction forms, so the matrices agree bit for bit
    rng = np.random.default_rng(20)
    specs = [_random_general_spec(rng) for _ in range(150)]
    specs += [ModelSpec(kind="general", omega_atoms=(1.0, 1.0), omega=1.0, g=0.5, lam=0.05,
                        bath=((0.9, 0.6), (0.97, 0.6))[:modes], fock_cutoff=fock,
                        bath_cutoff=cutoff) for fock, modes, cutoff in DECK_LAYOUTS]
    for spec in specs:
        ops = build_model(spec)
        h0, h1, labels = kronecker_general_model(spec)
        assert ops.h0.tobytes() == h0.tobytes()
        assert ops.h1.tobytes() == h1.tobytes()
        assert ops.basis_labels == labels


def test_general_model_matches_kronecker_sums_at_any_sign():
    # with a negative field frequency the Kronecker sums leave -0.0 in some
    # zero entries where the direct build writes +0.0, so the match is by value
    rng = np.random.default_rng(21)
    for _ in range(50):
        spec = _random_general_spec(rng)
        signs = rng.choice([-1.0, 1.0], size=4)
        spec = dataclasses.replace(
            spec, omega_atoms=(signs[0] * spec.omega_atoms[0], spec.omega_atoms[1]),
            omega=signs[1] * spec.omega, g=signs[2] * spec.g,
            bath=tuple((signs[3] * w, -c) for w, c in spec.bath))
        ops = build_model(spec)
        h0, h1, _ = kronecker_general_model(spec)
        assert np.array_equal(ops.h0, h0) and np.array_equal(ops.h1, h1)
