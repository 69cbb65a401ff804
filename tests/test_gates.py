"""Swap timing calibration and the biorthonormal controlled-NOT."""

import math

import numpy as np
import pytest

from subdyn.gates import (
    CNOT_PERMUTATION,
    RLSGate,
    build_cnot_rls,
    calibrate_timing,
    calibrate_timing_exact,
    calibrate_timing_second_order,
    exchange_hamiltonian,
    exchange_swap_time,
    ideal_swap,
    verify_closure,
)
from subdyn.linalg import propagator


def test_ideal_swap_is_diagonal_phase_matrix():
    e0 = np.array([0.0, 1.0, 2.5])
    u = ideal_swap(e0, 0.7)
    np.testing.assert_allclose(u, np.diag(np.exp(-1j * e0 * 0.7)), atol=1e-14)


def test_ideal_swap_contracts_for_decaying_energies():
    # shifted energies with Im E < 0 give the non-ideal swap, a contraction
    energies = np.array([1.0 - 0.2j, 2.0 - 0.1j])
    u = ideal_swap(energies, 3.0)
    s = np.linalg.svd(u, compute_uv=False)
    assert np.all(s < 1.0)
    np.testing.assert_allclose(s, np.exp(energies.imag * 3.0)[np.argsort(
        -energies.imag * 3.0)], atol=1e-12)


def test_exchange_swaps_the_single_excitation_pair():
    g = 0.8
    u = propagator(exchange_hamiltonian(g), exchange_swap_time(g))
    # up to the global -i on the swapped block
    ket01 = np.array([0, 1, 0, 0], dtype=complex)
    ket10 = np.array([0, 0, 1, 0], dtype=complex)
    np.testing.assert_allclose(u @ ket01, -1j * ket10, atol=1e-12)
    np.testing.assert_allclose(u @ ket10, -1j * ket01, atol=1e-12)
    np.testing.assert_allclose(u @ np.eye(4)[:, 0], np.eye(4)[:, 0], atol=1e-12)


def test_homogeneous_calibration_frozen_value():
    # ratio E0/dE = 9 for every moved dyad, t_sw = 1:
    # delta_t = -t_sw / (9 + 1) = -0.1 cancels all phases exactly
    e0 = np.array([0.0, 9.0, 18.0])
    energies = e0 * (10.0 / 9.0)
    cal = calibrate_timing(e0, energies, t_sw=1.0)
    assert cal.homogeneous
    assert cal.delta_t == pytest.approx(-0.1, abs=1e-12)
    assert cal.E0_over_dE == pytest.approx(9.0, abs=1e-12)
    assert cal.residual <= 1e-12
    assert cal.phase_gap <= 1e-12


def test_homogeneous_calibration_random_families():
    rng = np.random.default_rng(42)
    for _ in range(25):
        e0 = rng.uniform(-4.0, 4.0, size=6)
        ratio = rng.uniform(2.0, 40.0)
        energies = e0 * (1.0 + 1.0 / ratio)
        t_sw = rng.uniform(0.3, 5.0)
        cal = calibrate_timing(e0, energies, t_sw=t_sw)
        assert cal.homogeneous
        assert cal.residual <= 1e-8
        assert cal.phase_gap <= 1e-10
        assert cal.delta_t == pytest.approx(-t_sw / (ratio + 1.0), rel=1e-8)


def test_branch_shift_preserves_phases_for_equal_energies():
    e0 = np.array([5.0, 5.0, 5.0])
    energies = e0 * (10.0 / 9.0)
    base = calibrate_timing(e0, energies, t_sw=1.0)
    other = calibrate_timing(e0, energies, t_sw=1.0, branch=1)
    assert other.delta_t > base.delta_t
    assert other.residual <= 1e-9
    assert other.phase_gap <= 1e-9


def test_unshifted_energies_need_no_correction():
    e0 = np.array([0.0, 1.0, 2.0])
    cal = calibrate_timing(e0, e0.astype(complex), t_sw=2.0)
    assert cal.delta_t == 0.0
    assert math.isinf(cal.E0_over_dE)
    assert cal.homogeneous
    assert cal.residual <= 1e-14


def test_stuck_dyad_makes_exact_cancellation_impossible():
    # one dyad keeps its nonzero free energy, another moved: no delta_t
    # cancels both, so the solver reports inhomogeneous least squares
    e0 = np.array([1.0, 2.0])
    energies = np.array([1.0, 2.2])
    cal = calibrate_timing(e0, energies, t_sw=1.0)
    assert not cal.homogeneous
    assert cal.residual > 1e-3
    assert abs(cal.delta_t) <= math.pi / 2.2 + 1e-12
    # the optimum beats doing nothing
    naive, _ = _metrics(e0, energies, 1.0, 0.0)
    assert cal.residual <= naive + 1e-12


def _metrics(e0, energies, t_sw, dt):
    ideal = np.exp(-1j * e0 * t_sw)
    actual = np.exp(-1j * energies * (t_sw + dt))
    return float(np.max(np.abs(ideal - actual))), dt


def test_inconsistent_ratios_fall_back_to_least_squares():
    e0 = np.array([1.0, 2.0])
    energies = np.array([1.1, 2.5])
    cal = calibrate_timing(e0, energies, t_sw=1.0)
    assert not cal.homogeneous
    assert cal.spread > 1e-6


def test_calibration_input_validation():
    with pytest.raises(ValueError, match="same shape"):
        calibrate_timing([0.0, 1.0], [0.0, 1.0, 2.0], t_sw=1.0)
    with pytest.raises(ValueError, match="real"):
        calibrate_timing([0.0, 1.0], [0.0, 1.0 - 0.1j], t_sw=1.0)


def test_second_order_calibration_approaches_exact():
    rng = np.random.default_rng(9)
    h0 = np.diag([0.0, 1.5, 4.0])
    h1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h1 = h1 + h1.conj().T
    lam = 1e-3
    second = calibrate_timing_second_order(h0, h1, lam, t_sw=1.0,
                                           homogeneity_tol=math.inf)
    exact = calibrate_timing_exact(h0, h1, lam, t_sw=1.0,
                                   homogeneity_tol=math.inf)
    assert second.order == "second"
    assert exact.order == "exact"
    assert second.delta_t == pytest.approx(exact.delta_t, abs=5e-7)


def test_cnot_computational_basis_truth_table():
    gate = build_cnot_rls()
    m = gate.matrix
    want = np.zeros((4, 4))
    want[0, 0] = want[1, 1] = want[2, 3] = want[3, 2] = 1.0
    np.testing.assert_allclose(m, want, atol=1e-14)
    assert gate.permutation == CNOT_PERMUTATION
    assert gate.labels == ("00", "01", "10", "11")


def test_cnot_eight_pairing_relations_nonorthogonal_family():
    rng = np.random.default_rng(2024)
    right = np.eye(4, dtype=complex) + 0.3 * (rng.standard_normal((4, 4))
                                              + 1j * rng.standard_normal((4, 4)))
    assert abs(np.linalg.det(right)) > 0.1
    gate = build_cnot_rls(right)
    perm = CNOT_PERMUTATION
    for a in range(4):
        np.testing.assert_allclose(gate.matrix @ gate.right_states[:, a],
                                   gate.right_states[:, perm[a]], atol=1e-10)
        np.testing.assert_allclose(gate.left_states[a, :] @ gate.matrix,
                                   gate.left_states[perm[a], :], atol=1e-10)
    np.testing.assert_allclose(gate.matrix @ gate.matrix, np.eye(4), atol=1e-10)
    assert verify_closure(gate)


def test_cnot_pairing_matrix_is_permutation():
    rng = np.random.default_rng(17)
    right = np.eye(4, dtype=complex) + 0.25 * rng.standard_normal((4, 4))
    gate = build_cnot_rls(right)
    pairing = gate.pairing_matrix()
    want = np.zeros((4, 4))
    for a, b in enumerate(CNOT_PERMUTATION):
        want[b, a] = 1.0
    np.testing.assert_allclose(pairing, want, atol=1e-10)


def test_cnot_in_larger_ambient_space():
    rng = np.random.default_rng(31)
    right = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    gate = build_cnot_rls(right)
    np.testing.assert_allclose(gate.left_states @ gate.right_states,
                               np.eye(4), atol=1e-11)
    assert verify_closure(gate)
    # squared gate is the projector onto the four-state span, not identity
    span_proj = gate.right_states @ gate.left_states
    np.testing.assert_allclose(gate.matrix @ gate.matrix, span_proj, atol=1e-10)
    assert np.max(np.abs(span_proj - np.eye(6))) > 0.1


def test_cnot_rejects_dependent_kets():
    right = np.eye(4, dtype=complex)
    right[:, 3] = right[:, 2]
    with pytest.raises(ValueError, match="independent"):
        build_cnot_rls(right)


def test_cnot_rejects_bad_shapes_and_pairings():
    with pytest.raises(ValueError, match="four kets"):
        build_cnot_rls(np.eye(3))
    with pytest.raises(ValueError, match="dual rows"):
        build_cnot_rls(np.eye(4), left_states=np.eye(3))
    with pytest.raises(ValueError, match="biorthonormal"):
        build_cnot_rls(np.eye(4), left_states=2.0 * np.eye(4))


def test_verify_closure_rejects_leaky_gate():
    rng = np.random.default_rng(8)
    right = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    gate = build_cnot_rls(right)
    assert verify_closure(gate)
    # push the image of the first ket out of the span
    out = np.linalg.svd(right)[0][:, 4]
    leaky = RLSGate(right_states=gate.right_states, left_states=gate.left_states,
                    matrix=gate.matrix + 1e-3 * np.outer(out, gate.left_states[0, :]),
                    permutation=gate.permutation)
    assert not verify_closure(leaky)


def test_verify_closure_rejects_mixing_gate():
    gate = build_cnot_rls()
    mixing = np.array([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                      dtype=complex) / math.sqrt(1.0)
    bad = RLSGate(right_states=gate.right_states, left_states=gate.left_states,
                  matrix=mixing, permutation=gate.permutation)
    assert not verify_closure(bad)
