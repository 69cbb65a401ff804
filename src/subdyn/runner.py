"""Scenario execution: build the model, run the physics, persist the report."""

from __future__ import annotations

import os
import pathlib
import time

import numpy as np

from . import gates, turing
from .classify import CELLS, classify, fidelity_trace
from .config import ScenarioConfig, config_echo
from .linalg import is_hermitian, random_density
from .models import ModelOperators, build_model, canonical_initial_state, \
    block_eigensolve, extract_block
from .report import RunReport, write_report
from .subdynamics import block_residual, completeness_residual, decompose_model, \
    evolve_projected, kinetic_consistency_residual, project_density, similarity_residual

_CELL_EVIDENCE = {
    "stationary_total": "population_drift",
    "evolution_total": "coherence_modulus_drift",
    "stationary_proj": "population_dyad_shift",
    "evolution_proj": "coherence_dyad_shift",
}


def resolve_output_dir(config: ScenarioConfig) -> pathlib.Path:
    if config.output_dir is not None:
        return pathlib.Path(config.output_dir)
    root = os.environ.get("SUBDYN_OUTPUT_ROOT", "runs")
    return pathlib.Path(root) / config.scenario


def run(config: ScenarioConfig, write: bool = True) -> RunReport:
    """Execute one scenario; optionally persist report.json + CSV tables."""
    started = time.perf_counter()
    ops = build_model(config.model)
    handler = _SCENARIOS[config.scenario]
    payload, diagnostics, tables = handler(config, ops)
    diagnostics.setdefault("hilbert_dim", ops.dim)
    diagnostics.setdefault("hermitian_h1", ops.hermitian_h1)
    report = RunReport(scenario=config.scenario, config=config_echo(config),
                       payload=payload, diagnostics=diagnostics, tables=tables)
    if write:
        write_report(report, resolve_output_dir(config),
                     wall_time_s=time.perf_counter() - started)
    return report


def _run_classify(config: ScenarioConfig, ops: ModelOperators):
    report = classify(ops, order=config.order, eta=config.eta,
                      times=config.times())
    rows = [(cell, report.verdicts[cell], _CELL_EVIDENCE[cell],
             report.evidence[_CELL_EVIDENCE[cell]]) for cell in CELLS]
    evidence_rows = sorted((k, v) for k, v in report.evidence.items())
    payload = {
        "kind": report.kind,
        "interaction_row": report.interaction_row,
        "verdicts": report.verdicts,
        "table_row": list(report.table_row()),
        "evidence": report.evidence,
        "tol": report.tol,
    }
    diagnostics = {"order": report.order, "lam": report.lam, "eta": report.eta}
    tables = {
        "classification": (("cell", "verdict", "evidence_key", "evidence_value"), rows),
        "evidence": (("key", "value"), evidence_rows),
    }
    return payload, diagnostics, tables


def _run_evolve(config: ScenarioConfig, ops: ModelOperators):
    decomp = decompose_model(ops, order=config.order, eta=config.eta)
    rho0 = canonical_initial_state(ops)
    times = config.times()
    trace = fidelity_trace(decomp, rho0, times)
    projected = project_density(decomp, rho0)

    trace_drift = 0.0
    for t in times:
        evolved = evolve_projected(projected, decomp.energies, float(t))
        trace_drift = max(trace_drift, abs(evolved.trace - projected.trace))
    mid_t = float(times[len(times) // 2])
    consistency = kinetic_consistency_residual(
        decomp, ops.hamiltonian(config.model.lam), rho0, mid_t)

    fidelity_rows = [(float(t), float(v)) for t, v in zip(trace.times, trace.values)]
    energy_rows = []
    for nu in decomp.basis.nu_indices:
        k = decomp.basis.liouville_index(nu)
        e0 = decomp.basis.e0[k]
        e = decomp.energies[k]
        energy_rows.append((nu.row, nu.col, e0.real, e0.imag, e.real, e.imag,
                            abs(projected.coefficients[k])))
    payload = {
        "fidelity_max_deviation": trace.max_deviation,
        "fidelity_unit": trace.is_unit(),
        "trace_drift": trace_drift,
        "kinetic_consistency_residual": consistency,
        "consistency_t": mid_t,
    }
    diagnostics = {"order": decomp.order, "lam": decomp.lam, "eta": decomp.eta}
    tables = {
        "fidelity": (("t", "fidelity"), fidelity_rows),
        "energies": (("nu_i", "nu_j", "e0_re", "e0_im", "e_re", "e_im", "weight"),
                     energy_rows),
    }
    return payload, diagnostics, tables


def _calibration_row(cal: gates.SwapCalibration):
    return (cal.order, cal.delta_t, cal.E0_over_dE, cal.residual,
            cal.homogeneous, cal.spread, cal.phase_gap)


def _calibration_dict(cal: gates.SwapCalibration) -> dict:
    return {
        "t_sw": cal.t_sw, "delta_t": cal.delta_t, "E0_over_dE": cal.E0_over_dE,
        "order": cal.order, "residual": cal.residual,
        "homogeneous": cal.homogeneous, "spread": cal.spread,
        "phase_gap": cal.phase_gap,
    }


def _run_swap_calibrate(config: ScenarioConfig, ops: ModelOperators):
    lam = config.model.lam
    second = gates.calibrate_timing_second_order(ops.h0, ops.h1, lam, config.t_swap,
                                                 eta=config.eta)
    exact = gates.calibrate_timing_exact(ops.h0, ops.h1, lam, config.t_swap)
    payload = {
        "second_order": _calibration_dict(second),
        "exact": _calibration_dict(exact),
        "delta_t_gap": abs(second.delta_t - exact.delta_t),
    }
    diagnostics = {"lam": lam, "t_swap": config.t_swap}
    tables = {"calibration": (
        ("order", "delta_t", "E0_over_dE", "residual", "homogeneous", "spread", "phase_gap"),
        [_calibration_row(second), _calibration_row(exact)])}
    return payload, diagnostics, tables


def _run_cnot_demo(config: ScenarioConfig, ops: ModelOperators):
    rng = np.random.default_rng(config.seed)
    for _ in range(64):
        right = (np.eye(4) + 0.3 * rng.standard_normal((4, 4))
                 + 0.3j * rng.standard_normal((4, 4)))
        if abs(np.linalg.det(right)) > 0.1:
            break
    else:
        raise ValueError("could not draw an invertible right basis")
    gate = gates.build_cnot_rls(right)
    pairing = gate.pairing_matrix()
    perm_target = np.zeros((4, 4))
    for a, image in enumerate(gate.permutation):
        perm_target[image, a] = 1.0
    ket_residual = float(np.max(np.abs(
        gate.matrix @ gate.right_states - gate.right_states @ perm_target)))
    bra_residual = float(np.max(np.abs(
        gate.left_states @ gate.matrix - perm_target @ gate.left_states)))
    payload = {
        "closed": gates.verify_closure(gate),
        "pairing_residual": float(np.max(np.abs(pairing - perm_target))),
        "involution_residual": float(np.max(np.abs(gate.matrix @ gate.matrix - np.eye(4)))),
        "ket_relation_residual": ket_residual,
        "bra_relation_residual": bra_residual,
        "permutation": list(gate.permutation),
    }
    diagnostics = {"seed": config.seed, "right_basis_det": abs(np.linalg.det(right))}
    pairing_rows = [tuple(x for v in row for x in (v.real, v.imag)) for row in pairing]
    tables = {"cnot_pairing": (
        tuple(f"{lbl}_{part}" for lbl in gates.GATE_LABELS for part in ("re", "im")),
        pairing_rows)}
    return payload, diagnostics, tables


def _random_factor(rng: np.random.Generator) -> np.ndarray:
    for _ in range(64):
        s = (np.eye(2) + 0.25 * rng.standard_normal((2, 2))
             + 0.25j * rng.standard_normal((2, 2)))
        if abs(np.linalg.det(s)) > 0.2:
            return s
    raise ValueError("could not draw an invertible factor basis")


def _run_turing_demo(config: ScenarioConfig, ops: ModelOperators):
    rng = np.random.default_rng(config.seed)
    factors = tuple(_random_factor(rng) for _ in range(config.tape_spins + 1))
    machine = turing.TuringMachine(factors=factors)

    head = np.asarray(factors[0], dtype=np.complex128)
    tape_ket, tape_bra = turing.tape_state(machine, (0,) * machine.n_tape)
    psi = np.kron(head[:, 0], tape_ket)
    dual = np.kron(machine.inverses()[0][0, :], tape_bra)

    rotations = [turing.rotation_step(machine, config.rotation_angle)] * 4
    points = turing.trajectory(machine, psi, dual, rotations)
    circle = turing.bloch_circle_residual(points)

    shear = turing.shear_step(machine, config.shear_strength)
    iso_residual = turing.isometry_residual(machine, psi, dual, shear)
    ket_s, bra_s = turing.step(machine, psi, dual, shear)
    sheared = turing.bloch_head(ket_s, bra_s, machine)
    purity_gap = abs(sheared.purity() - 1.0)

    if machine.n_tape >= 1:
        bits_a = (0,) * machine.n_tape
        bits_b = (1,) * machine.n_tape
        ta_ket, ta_bra = turing.tape_state(machine, bits_a)
        tb_ket, tb_bra = turing.tape_state(machine, bits_b)
        psi_e = 0.6 * np.kron(head[:, 0], ta_ket) + 0.8 * np.kron(head[:, 0], tb_ket)
        dual_e = 0.6 * np.kron(machine.inverses()[0][0, :], ta_bra) \
            + 0.8 * np.kron(machine.inverses()[0][0, :], tb_bra)
        branches = turing.decompose_entangled(psi_e, dual_e, machine)
        recomposed = turing.recompose_bloch(branches)
        direct = turing.bloch_head(psi_e, dual_e, machine)
        recomposition_gap = max(abs(recomposed.x - direct.x),
                                abs(recomposed.y - direct.y),
                                abs(recomposed.z - direct.z))
        weights = [w for w, _ in branches]
    else:
        recomposition_gap = 0.0
        weights = [1.0]

    trajectory_rows = [(k, p.x.real, p.x.imag, p.y.real, p.y.imag, p.z.real, p.z.imag)
                       for k, p in enumerate(points)]
    payload = {
        "n_tape": machine.n_tape,
        "biorthonormality_residual": turing.biorthonormality_residual(machine),
        "bloch_circle_residual": circle,
        "isometry_residual": iso_residual,
        "shear_purity_gap": purity_gap,
        "recomposition_gap": recomposition_gap,
        "branch_weights": weights,
    }
    diagnostics = {"seed": config.seed, "rotation_angle": config.rotation_angle,
                   "shear_strength": config.shear_strength}
    tables = {"bloch_trajectory": (
        ("step", "x_re", "x_im", "y_re", "y_im", "z_re", "z_im"), trajectory_rows)}
    return payload, diagnostics, tables


def _run_verify(config: ScenarioConfig, ops: ModelOperators):
    """Invariant suite at exact order: every check is (value <= tol)."""
    rng = np.random.default_rng(config.seed)
    decomp = decompose_model(ops, order="exact")
    checks: list[tuple[str, float, float]] = []

    checks.append(("similarity_relation", similarity_residual(decomp), 1e-8))
    checks.append(("projector_completeness", completeness_residual(decomp), 1e-8))
    kappa = decomp.pairing()
    checks.append(("pairing_nonsingular", float(1.0 - np.min(np.abs(kappa))), 0.5))
    checks.append(("block_structure", block_residual(decomp), 1e-12))

    h_full = ops.hamiltonian(config.model.lam)
    consistency = 0.0
    for _ in range(3):
        rho0 = random_density(rng, ops.dim)
        t = float(rng.uniform(0.1, 5.0))
        consistency = max(consistency,
                          kinetic_consistency_residual(decomp, h_full, rho0, t))
    checks.append(("kinetic_consistency", consistency, 1e-6))

    real_spectrum = float(np.max(np.abs(decomp.energies.imag))) <= 1e-10
    if real_spectrum and is_hermitian(h_full):
        rho0 = canonical_initial_state(ops)
        trace = fidelity_trace(decomp, rho0, config.times())
        checks.append(("fidelity_unit", trace.max_deviation, 1e-9))

    if ops.spec.kind == "general" and ops.spec.fock_cutoff >= 1:
        block = extract_block(ops, 0, (0,) * len(ops.spec.bath))
        solved = block_eigensolve(float(block[0, 0].real), float(block[1, 1].real),
                                  float(block[0, 1].real))
        numeric = np.sort(np.linalg.eigvalsh(block))
        closed = np.sort(solved.values.real)
        checks.append(("block_eigenvalues",
                       float(np.max(np.abs(numeric - closed))), 1e-10))

    rows = [(name, value, tol, value <= tol) for name, value, tol in checks]
    failed = sum(1 for _, _, _, ok in rows if not ok)
    payload = {
        "checks": [{"name": name, "value": value, "tol": tol, "passed": ok}
                   for name, value, tol, ok in rows],
        "total": len(rows),
        "failed": failed,
        "passed": len(rows) - failed,
    }
    diagnostics = {"seed": config.seed, "order": "exact"}
    tables = {"verify": (("check", "value", "tol", "passed"), rows)}
    return payload, diagnostics, tables


_SCENARIOS = {
    "classify": _run_classify,
    "evolve": _run_evolve,
    "swap-calibrate": _run_swap_calibrate,
    "cnot-demo": _run_cnot_demo,
    "turing-demo": _run_turing_demo,
    "verify": _run_verify,
}
