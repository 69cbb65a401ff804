"""Swap timing calibration and the biorthonormal controlled-NOT."""

import math

import numpy as np
import pytest
import scipy.optimize

from oracle import propagator
from subdyn import gates
from subdyn.gates import (
    CNOT_PERMUTATION,
    GATE_LABELS,
    RLSGate,
    build_cnot_rls,
    calibrate_timing,
    exchange_hamiltonian,
    exchange_swap_time,
    verify_closure,
)
from subdyn.models import ModelSpec, build_model
from subdyn.subdynamics import decompose, liouville_basis


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
    cal = calibrate_timing((e0, [0.0]), (energies, [0.0]), t_sw=1.0)
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
        cal = calibrate_timing((e0, [0.0]), (energies, [0.0]), t_sw=t_sw)
        assert cal.homogeneous
        assert cal.residual <= 1e-8
        assert cal.phase_gap <= 1e-10
        assert cal.delta_t == pytest.approx(-t_sw / (ratio + 1.0), rel=1e-8)


def test_unshifted_energies_need_no_correction():
    e0 = np.array([0.0, 1.0, 2.0])
    cal = calibrate_timing((e0, [0.0]), (e0.astype(complex), [0.0]), t_sw=2.0)
    assert cal.delta_t == 0.0
    assert math.isinf(cal.E0_over_dE)
    assert cal.homogeneous
    assert cal.residual <= 1e-14


def test_stuck_dyad_makes_exact_cancellation_impossible():
    # one dyad keeps its nonzero free energy, another moved: no delta_t
    # cancels both, so the solver reports inhomogeneous least squares
    e0 = np.array([1.0, 2.0])
    energies = np.array([1.0, 2.2])
    cal = calibrate_timing((e0, [0.0]), (energies, [0.0]), t_sw=1.0)
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
    cal = calibrate_timing((e0, [0.0]), (energies, [0.0]), t_sw=1.0)
    assert not cal.homogeneous
    assert cal.spread > 1e-6


def _general_config_decomposition(order):
    """Decomposition of configs/general.json at the given order."""
    ops = build_model(ModelSpec(kind="general", omega_atoms=(1.0, 1.0), omega=1.0, g=0.5,
                                lam=0.05, bath=((0.9, 0.6),), fock_cutoff=1, bath_cutoff=1))
    return decompose(liouville_basis(ops.h0, ops.h1), 0.05, order=order)


@pytest.mark.parametrize("order", ["exact", "1"])
def test_least_squares_calibration_is_stationary_to_rounding(order):
    decomp = _general_config_decomposition(order)
    free = (decomp.basis.f_values, decomp.basis.f_values)
    eps = decomp.basis.f_values
    e0, energies = np.subtract.outer(eps, eps), decomp.energies.real
    cal = calibrate_timing(free, (decomp.z, decomp.w), t_sw=1.0)
    assert not cal.homogeneous
    # the cost's derivative vanishes at the returned point
    g = np.sum(energies * np.sin(energies * (1.0 + cal.delta_t) - e0))
    assert abs(g) <= 1e-12 * np.sum(np.abs(energies))
    # a one-ulp relative change of the levels barely moves it (Brent alone: ~5e-11)
    nudged = calibrate_timing(free, (decomp.z * (1.0 + 2.0**-52), decomp.w * (1.0 + 2.0**-52)),
                              t_sw=1.0)
    assert abs(nudged.delta_t - cal.delta_t) <= 1e-14


def test_edge_optimum_stays_in_search_interval():
    # the cost falls toward the edge pi / max|E| of the search interval; Newton
    # from the scan's edge point would run on to the stationary point at 1.139
    cal = calibrate_timing(([1.0, 2.0], [0.0]), ([0.5, 3.0], [0.0]), t_sw=3.0)
    assert not cal.homogeneous
    assert math.pi / 3.0 - 1e-7 <= cal.delta_t <= math.pi / 3.0


def test_calibration_input_validation():
    with pytest.raises(ValueError, match="same shape"):
        calibrate_timing(([0.0, 1.0], [0.0]), ([0.0, 1.0, 2.0], [0.0]), t_sw=1.0)
    with pytest.raises(ValueError, match="real"):
        calibrate_timing(([0.0, 1.0], [0.0]), ([0.0, 1.0 - 0.1j], [0.0]), t_sw=1.0)
    # a flat energy list is not read as a pair of one-level sides
    with pytest.raises(ValueError, match="pair of 1-d arrays"):
        calibrate_timing([1.0, 2.0], [1.0, 2.2], t_sw=1.0)


def _random_levels(rng):
    """Free levels (e, f) and levels (z, w) shifted off them, of random lengths."""
    e, f = rng.uniform(-3.0, 3.0, rng.integers(1, 9)), rng.uniform(-3.0, 3.0, rng.integers(1, 9))
    return (e, f), (e + rng.normal(0.0, 0.05, e.size), f + rng.normal(0.0, 0.05, f.size))


def _dense_energies(free_levels, levels):
    (e, f), (z, w) = free_levels, levels
    return (np.subtract.outer(e, f).reshape(-1, order="F"),
            np.subtract.outer(z, w).reshape(-1, order="F"))


def test_least_squares_cost_factors_over_the_levels():
    rng = np.random.default_rng(11)
    for _ in range(50):
        free_levels, levels = _random_levels(rng)
        e0, energies = _dense_energies(free_levels, levels)
        t_sw = rng.uniform(0.2, 4.0)
        dts = rng.uniform(-1.0, 1.0, 7)
        dense = [np.sum(np.abs(np.exp(-1j * e0 * t_sw) - np.exp(-1j * energies * (t_sw + dt)))**2)
                 for dt in dts]
        factored = gates._least_squares_cost(free_levels, levels, t_sw, dts)
        np.testing.assert_allclose(factored, dense, rtol=1e-12, atol=1e-12 * energies.size)


def _brent_timing(e0, energies, t_sw):
    """Least-squares delta_t by bounded Brent on the dense cost, then dense Newton
    steps on its stationarity condition, kept inside [-bound, bound]."""
    bound = math.pi / np.max(np.abs(energies))
    ideal = np.exp(-1j * e0 * t_sw)
    result = scipy.optimize.minimize_scalar(
        lambda dt: np.sum(np.abs(ideal - np.exp(-1j * energies * (t_sw + dt)))**2),
        bounds=(-bound, bound), method="bounded", options={"xatol": 1e-13, "maxiter": 500})
    polished = float(result.x)
    for _ in range(4):
        phase = energies * (t_sw + polished) - e0 * t_sw
        curvature = np.sum(energies**2 * np.cos(phase))
        if not curvature > 0.0:
            return float(result.x)
        polished -= np.sum(energies * np.sin(phase)) / curvature
    return polished if abs(polished) <= bound else float(result.x)


def test_scanned_timing_is_never_worse_than_bounded_brent():
    rng = np.random.default_rng(12)
    compared = 0
    for _ in range(200):
        free_levels, levels = _random_levels(rng)
        e0, energies = _dense_energies(free_levels, levels)
        t_sw = rng.uniform(0.2, 4.0)
        cal = calibrate_timing(free_levels, levels, t_sw=t_sw)
        if cal.homogeneous:
            continue
        compared += 1
        oracle, _ = _metrics(e0, energies, t_sw, _brent_timing(e0, energies, t_sw))
        # rounding of the factored sums moves the residual by a few ulp either way
        assert cal.residual <= oracle + 1e-14
    assert compared >= 150


def test_second_order_calibration_approaches_exact():
    rng = np.random.default_rng(9)
    h0 = np.diag([0.0, 1.5, 4.0])
    h1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h1 = h1 + h1.conj().T
    # order 1's levels carry the second-order energy shifts; both orders
    # read one frame
    basis = liouville_basis(h0, h1)
    free = (basis.f_values, basis.f_values)
    first, full = (decompose(basis, 1e-3, order=order) for order in ("1", "exact"))
    second = calibrate_timing(free, (first.z, first.w), t_sw=1.0)
    exact = calibrate_timing(free, (full.z, full.w), t_sw=1.0)
    assert second.delta_t == pytest.approx(exact.delta_t, abs=5e-7)


def test_cnot_computational_basis_truth_table():
    gate = build_cnot_rls()
    m = gate.matrix
    want = np.zeros((4, 4))
    want[0, 0] = want[1, 1] = want[2, 3] = want[3, 2] = 1.0
    np.testing.assert_allclose(m, want, atol=1e-14)
    assert gate.permutation == CNOT_PERMUTATION
    assert GATE_LABELS == ("00", "01", "10", "11")


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
