"""Biorthonormal pseudospin machine: pairing, Bloch heads, tape branches."""

import numpy as np
import pytest

from subdyn.turing import (
    TuringMachine,
    biorthonormality_residual,
    bloch_circle_residual,
    bloch_head,
    decompose_entangled,
    generators,
    isometry_residual,
    pairing,
    recompose_bloch,
    rotation_step,
    shear_step,
    step,
    tape_state,
    trajectory,
    transition,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ_FLIP = np.diag([-1.0, 1.0]).astype(complex)


def random_factor(rng):
    while True:
        s = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        if abs(np.linalg.det(s)) > 0.2:
            return s


def random_machine(rng, n_tape, head_index=0):
    return TuringMachine(factors=tuple(random_factor(rng)
                                       for _ in range(n_tape + 1)),
                         head_index=head_index)


def test_biorthonormality_orthonormal_and_skewed():
    ortho = TuringMachine(factors=(np.eye(2),) * 3)
    assert biorthonormality_residual(ortho) <= 1e-15
    rng = np.random.default_rng(6)
    skew = random_machine(rng, n_tape=2)
    assert biorthonormality_residual(skew) <= 1e-12


def test_machine_validation():
    with pytest.raises(ValueError, match="at least the head"):
        TuringMachine(factors=())
    with pytest.raises(ValueError, match="head_index"):
        TuringMachine(factors=(np.eye(2),), head_index=1)
    with pytest.raises(ValueError, match="2x2"):
        TuringMachine(factors=(np.eye(3),))
    with pytest.raises(ValueError, match="singular"):
        TuringMachine(factors=(np.array([[1.0, 1.0], [1.0, 1.0]]),))
    with pytest.raises(ValueError, match="dimension"):
        TuringMachine(factors=(np.eye(2), np.eye(2)), evolution=np.eye(3))


def test_generators_orthonormal_factor_signs():
    # with orthonormal factors the triple is (sigma_x, -sigma_y, diag(-1, 1))
    m = TuringMachine(factors=(np.eye(2), np.eye(2)))
    lx, ly, lz = generators(m, 0)
    eye = np.eye(2)
    np.testing.assert_allclose(lx, np.kron(SX, eye), atol=1e-14)
    np.testing.assert_allclose(ly, np.kron(-SY, eye), atol=1e-14)
    np.testing.assert_allclose(lz, np.kron(SZ_FLIP, eye), atol=1e-14)
    lx1, _, _ = generators(m, 1)
    np.testing.assert_allclose(lx1, np.kron(eye, SX), atol=1e-14)


def test_transition_operator_algebra():
    rng = np.random.default_rng(12)
    m = random_machine(rng, n_tape=1)
    for i, k, l, q in ((0, 1, 1, 0), (1, 0, 0, 0), (0, 0, 1, 1)):
        prod = transition(m, 0, i, k) @ transition(m, 0, l, q)
        want = transition(m, 0, i, q) if k == l else np.zeros((m.dim, m.dim))
        np.testing.assert_allclose(prod, want, atol=1e-12)


def test_pairing_with_conjugate_dual_is_norm():
    # the orthonormal-case dual is the conjugate row
    rng = np.random.default_rng(1)
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    assert pairing(psi.conj(), psi) == pytest.approx(
        np.linalg.norm(psi) ** 2, abs=1e-12)


def test_step_preserves_pairing_for_any_invertible_operator():
    rng = np.random.default_rng(77)
    m = random_machine(rng, n_tape=1)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    dual = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    for op in (rotation_step(m, 1.1), shear_step(m, 0.7),
               np.eye(4) + 0.4 * (rng.standard_normal((4, 4))
                                  + 1j * rng.standard_normal((4, 4)))):
        assert isometry_residual(m, psi, dual, op) <= 1e-10


def test_step_uses_stored_evolution_and_rejects_none():
    m = TuringMachine(factors=(np.eye(2),), evolution=SX)
    ket, bra = step(m, [1.0, 0.0], [1.0, 0.0])
    np.testing.assert_allclose(ket, [0.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(bra, [0.0, 1.0], atol=1e-14)
    bare = TuringMachine(factors=(np.eye(2),))
    with pytest.raises(ValueError, match="no step operator"):
        step(bare, [1.0, 0.0], [1.0, 0.0])


def test_x_rotation_traces_the_yz_circle():
    # closed form from |0>: after k steps of angle theta the head sits at
    # (x, y, z) = (0, sin k theta, -cos k theta)
    rng = np.random.default_rng(3)
    m = random_machine(rng, n_tape=1)
    theta = 2.0 * np.pi / 5.0
    t_ket, t_bra = tape_state(m, (0,))
    head = np.asarray(m.factors[0], dtype=complex)
    head_dual = np.linalg.inv(head)
    psi = np.kron(head[:, 0], t_ket)
    dual = np.kron(head_dual[0, :], t_bra)
    ops = [rotation_step(m, theta)] * 4
    points = trajectory(m, psi, dual, ops)
    assert len(points) == 5
    assert bloch_circle_residual(points) <= 1e-10
    for k, p in enumerate(points):
        assert p.x == pytest.approx(0.0, abs=1e-10)
        assert p.y == pytest.approx(np.sin(k * theta), abs=1e-10)
        assert p.z == pytest.approx(-np.cos(k * theta), abs=1e-10)


def test_rotation_circle_with_interior_head():
    m = TuringMachine(factors=(np.eye(2),) * 3, head_index=1)
    t_ket, t_bra = tape_state(m, (0, 1))
    psi_head = np.array([1.0, 0.0], dtype=complex)
    psi = np.kron(np.kron(np.eye(2)[:, 0], psi_head), np.eye(2)[:, 1])
    dual = psi.conj()
    points = trajectory(m, psi, dual, [rotation_step(m, 0.9)] * 3)
    assert bloch_circle_residual(points) <= 1e-12
    assert points[1].z == pytest.approx(-np.cos(0.9), abs=1e-12)


def test_shear_moves_bloch_off_the_real_axis():
    # frozen hand computation from |1>: shear strength a gives
    # (x, y, z) = (a, -i a, 1) with the squares still summing to 1
    m = TuringMachine(factors=(np.eye(2),))
    psi = np.array([0.0, 1.0], dtype=complex)
    dual = np.array([0.0, 1.0], dtype=complex)
    ket, bra = step(m, psi, dual, shear_step(m, 0.5))
    p = bloch_head(ket, bra, m)
    assert p.x == pytest.approx(0.5, abs=1e-12)
    assert p.y == pytest.approx(-0.5j, abs=1e-12)
    assert p.z == pytest.approx(1.0, abs=1e-12)
    assert p.purity() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="complex"):
        p.as_real()
    np.testing.assert_allclose(p.as_real(tol=1.0), (0.5, 0.0, 1.0), atol=1e-12)


def test_purity_pinned_along_nonunitary_trajectories():
    rng = np.random.default_rng(23)
    m = TuringMachine(factors=(random_factor(rng),))
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    dual = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    ops = [shear_step(m, s) for s in (0.3, -1.2, 0.8)]
    for p in trajectory(m, psi, dual, ops):
        assert p.purity() == pytest.approx(1.0, abs=1e-10)


def test_bloch_head_rejects_null_pairing():
    m = TuringMachine(factors=(np.eye(2),))
    with pytest.raises(ValueError, match="pairing vanishes"):
        bloch_head([1.0, 0.0], [0.0, 1.0], m)


def test_tape_states_biorthonormal():
    rng = np.random.default_rng(4)
    m = random_machine(rng, n_tape=2, head_index=1)
    bitstrings = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for bits in bitstrings:
        ket, _ = tape_state(m, bits)
        for other in bitstrings:
            _, bra = tape_state(m, other)
            want = 1.0 if bits == other else 0.0
            assert pairing(bra, ket) == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError, match="bitstring length"):
        tape_state(m, (0,))


def test_tape_state_trivial_for_head_only_machine():
    m = TuringMachine(factors=(np.eye(2),))
    ket, bra = tape_state(m, ())
    assert ket.shape == (1,) and bra.shape == (1,)
    assert pairing(bra, ket) == pytest.approx(1.0)


def test_two_branch_decomposition_frozen_weights():
    # head state shared, tape amplitudes 0.6 and 0.8: weights 0.36 / 0.64
    m = TuringMachine(factors=(np.eye(2), np.eye(2)))
    head = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    psi = 0.6 * np.kron(head, np.eye(2)[:, 0]) + 0.8 * np.kron(head, np.eye(2)[:, 1])
    branches = decompose_entangled(psi, psi.conj(), m)
    weights = sorted(w.real for w, _ in branches)
    assert weights == pytest.approx([0.36, 0.64], abs=1e-12)
    for _, b in branches:
        assert b.x == pytest.approx(1.0, abs=1e-12)
    got = recompose_bloch(branches)
    want = bloch_head(psi, psi.conj(), m)
    assert got.x == pytest.approx(want.x, abs=1e-12)
    assert got.y == pytest.approx(want.y, abs=1e-12)
    assert got.z == pytest.approx(want.z, abs=1e-12)


@pytest.mark.parametrize("n_tape", [1, 2, 3, 4])
def test_recomposition_identity_random_states(n_tape):
    # algebraic identity: tape completeness makes the weighted branch sum
    # reproduce the full head Bloch vector for any paired state
    rng = np.random.default_rng(100 + n_tape)
    head_index = n_tape // 2
    m = random_machine(rng, n_tape, head_index=head_index)
    head = np.asarray(m.factors[head_index], dtype=complex)[:, 0]
    tape_amp = rng.standard_normal(2 ** n_tape) + 1j * rng.standard_normal(2 ** n_tape)
    # assemble the shared head state at its slot with an entangled tape around it
    dims_before = 2 ** head_index
    dims_after = 2 ** (n_tape - head_index)
    psi = np.zeros(2 ** (n_tape + 1), dtype=complex)
    tape_tensor = tape_amp.reshape(dims_before, dims_after)
    for b in range(dims_before):
        for a in range(dims_after):
            piece = np.kron(np.kron(np.eye(dims_before)[:, b], head),
                            np.eye(dims_after)[:, a])
            psi += tape_tensor[b, a] * piece
    dual = rng.standard_normal(psi.size) + 1j * rng.standard_normal(psi.size)
    branches = decompose_entangled(psi, dual, m)
    total = sum(w for w, _ in branches)
    assert total == pytest.approx(1.0, abs=1e-10)
    got = recompose_bloch(branches)
    want = bloch_head(psi, dual, m)
    assert abs(got.x - want.x) <= 1e-10
    assert abs(got.y - want.y) <= 1e-10
    assert abs(got.z - want.z) <= 1e-10


def test_decomposition_rejects_divergent_head_branches():
    m = TuringMachine(factors=(np.eye(2), np.eye(2)))
    psi = (np.kron(np.eye(2)[:, 0], np.eye(2)[:, 0])
           + np.kron(np.eye(2)[:, 1], np.eye(2)[:, 1])) / np.sqrt(2.0)
    with pytest.raises(ValueError, match="admissible"):
        decompose_entangled(psi, psi.conj(), m)
    # without validation the algebraic identity still holds
    branches = decompose_entangled(psi, psi.conj(), m, validate=False)
    got = recompose_bloch(branches)
    want = bloch_head(psi, psi.conj(), m)
    assert abs(got.z - want.z) <= 1e-12


def test_decomposition_rejects_null_branch_pairing():
    m = TuringMachine(factors=(np.eye(2), np.eye(2)))
    e0, e1 = np.eye(2)[:, 0], np.eye(2)[:, 1]
    psi = np.kron(e0, e0) + np.kron(e0, e1)
    dual = np.kron(e1, e0) + np.kron(e0, e1)
    with pytest.raises(ValueError, match="vanishing pairing"):
        decompose_entangled(psi, dual, m)
