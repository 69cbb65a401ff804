"""Scenario runner payloads and report persistence."""

import json
import pathlib

import numpy as np
import pytest

from oracle import canonical_initial_state, dense_perturbative, to_frame, unvec
from subdyn import subdynamics
from subdyn.classify import fidelity_trace
from subdyn.cli import EXIT_OK, main
from subdyn.config import load_config
from subdyn.models import build_model, canonical_initial_ket
from subdyn.report import REPORT_NAME
from subdyn.runner import run
from subdyn.subdynamics import decompose_model, kinetic_consistency_residual, project_density

DIAG_MODEL = {"kind": "diagonal", "omega0": 1.0, "omega": 1.3, "g": 0.5,
              "lam": 1.0, "fock_cutoff": 2}
GEN_MODEL = {"kind": "general", "omega_atoms": [1.0, 1.0], "omega": 1.0,
             "g": 0.5, "lam": 0.05, "bath": [[0.9, 0.6]], "fock_cutoff": 1,
             "bath_cutoff": 1}


def make_config(scenario, model=None, **extra):
    return load_config({"scenario": scenario, "model": model or DIAG_MODEL,
                        **extra})


def test_run_without_write_leaves_no_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    report = run(make_config("classify"))
    assert report.scenario == "classify"
    assert not (tmp_path / "runs").exists()


def test_classify_payload_links_cells_to_evidence():
    report = run(make_config("classify", model=GEN_MODEL))
    p = report.payload
    assert p["table_row"] == ["D", "D", "DF", "PE"]
    header, rows = report.tables["classification"]
    assert header == ("cell", "verdict", "evidence_key", "evidence_value")
    by_cell = {cell: (verdict, key, value) for cell, verdict, key, value in rows}
    assert by_cell["stationary_total"][1] == "population_drift"
    assert by_cell["evolution_proj"][1] == "coherence_dyad_shift"
    for cell, (verdict, key, value) in by_cell.items():
        assert p["verdicts"][cell] == verdict
        assert p["evidence"][key] == value


def test_general_config_at_order_one_records_exact_unit_fidelity():
    # every kinetic eigenvalue of the shipped general model is real at
    # order 1, so the fidelity deviation is exactly zero, not rounding noise
    config_path = pathlib.Path(__file__).resolve().parents[1] / "configs" / "general.json"
    raw = json.loads(config_path.read_text())
    raw["order"] = "1"
    report = run(load_config(raw))
    assert report.payload["evidence"]["kinetic_fidelity_deviation"] == 0.0


def test_evolve_payload_unit_fidelity_and_consistency():
    report = run(make_config("evolve", model=GEN_MODEL))
    p = report.payload
    assert p["fidelity_unit"] is True or p["fidelity_max_deviation"] <= 1e-9
    assert p["trace_drift"] <= 1e-10
    assert p["kinetic_consistency_residual"] <= 1e-6
    # one row per level, and one per dyad of nonzero weight: the canonical
    # ket leaves part of the 16 x 16 dyads empty
    assert len(report.tables["levels"][1]) == 16
    ops = build_model(load_config({"scenario": "evolve", "model": GEN_MODEL}).model)
    coeff = project_density(decompose_model(ops), canonical_initial_ket(ops))
    header, rows = report.tables["energies"]
    assert len(rows) == np.count_nonzero(coeff) < 16 * 16
    header_f, rows_f = report.tables["fidelity"]
    assert len(rows_f) == 101


@pytest.mark.parametrize("order, eta", [("exact", 0.0), ("1", 0.0), ("2", 0.05)])
def test_evolve_tables_match_the_per_dyad_loop(order, eta):
    # the tables and trace drift are array expressions; per-dyad loops over
    # the level rows and over every evolved state are the reference, and
    # must agree exactly. evolve projects the canonical state as its ket
    config = make_config("evolve", model=GEN_MODEL, order=order, eta=eta)
    report = run(config)
    ops = build_model(config.model)
    decomp = decompose_model(ops, order=order, eta=eta)
    coeff = project_density(decomp, canonical_initial_ket(ops))
    d = decomp.basis.dim
    levels = report.tables["levels"][1]
    assert [row[0] for row in levels] == list(range(d))
    eps = [row[1] for row in levels]
    z = [complex(row[2], row[3]) for row in levels]
    w = [complex(row[4], row[5]) for row in levels]
    assert z == decomp.z.tolist() and w == decomp.w.tolist()
    # every row of nonzero weight, rebuilt from two level rows and the
    # projected coefficient, in the order i + d j; repr tells 0.0 from -0.0
    rows, zero = [], set()
    for j in range(d):
        for i in range(d):
            if coeff[i, j] == 0:
                zero.add((i, j))
                continue
            e = z[i] - w[j]
            rows.append((i, j, eps[i] - eps[j], 0.0, e.real, e.imag, float(abs(coeff[i, j]))))
    assert repr(report.tables["energies"][1]) == repr(rows)
    # the dropped dyads are exactly those of zero weight
    kept = {(i, j) for i, j, *_ in report.tables["energies"][1]}
    assert zero and kept.isdisjoint(zero) and len(kept) + len(zero) == d * d
    drift = 0.0
    trace0 = complex(np.diagonal(coeff).sum())
    for t in config.times():
        evolved = np.exp(-1j * decomp.energies * float(t)) * coeff
        drift = max(drift, abs(complex(np.diagonal(evolved).sum()) - trace0))
    assert report.payload["trace_drift"] == drift
    if eta > 0.0:
        assert drift > 0.0


def test_evolve_trace_drift_is_walked_in_blocks(monkeypatch):
    # one step per block and the whole grid in one block give the same bytes
    config = make_config("evolve", model=GEN_MODEL, order="2", eta=0.05)
    payloads = []
    for entries in (1, 2**40):
        monkeypatch.setattr(subdynamics, "_BLOCK_ENTRIES", entries)
        payloads.append(run(config).payload)
    assert payloads[0]["trace_drift"] == payloads[1]["trace_drift"] > 0.0
    assert payloads[0]["fidelity_max_deviation"] == payloads[1]["fidelity_max_deviation"] > 0.0


TRI_FREE_MODEL = {"kind": "triangular", "omega0": 1.0, "omega": 1.3, "g": 0.4,
                  "lam": 1.0, "fock_cutoff": 2, "diagonal_in_free": True}
TRI_HERMITIAN_MODEL = {"kind": "triangular", "omega0": 1.0, "omega": 1.3, "g": 0.4,
                       "lam": 0.3, "fock_cutoff": 3, "hermitian_variant": True}


@pytest.mark.parametrize("scenario", ["classify", "evolve"])
@pytest.mark.parametrize("model, dim", [
    (GEN_MODEL, 16),
    (DIAG_MODEL, 6),
    (TRI_FREE_MODEL, 6),
    (TRI_HERMITIAN_MODEL, 8),
], ids=["general", "diagonal", "triangular", "triangular_hermitian"])
def test_order_two_eta_runs_match_dense_oracle(scenario, model, dim):
    # order 2 at eta > 0 gathers kappa and the canonical state's rows over
    # the interaction's nonzeros: every pair of the general kind, a quarter
    # of the dyad indices of the Hermitian triangular kind's kappa and none
    # of the diagonal and one-sided triangular kinds. The run's energies and
    # coefficients must be the dense oracle's
    config = make_config(scenario, model=model, order="2", eta=0.05)
    report = run(config)
    assert report.diagnostics["hilbert_dim"] == dim
    assert report.diagnostics["order"] == "2"
    ops = build_model(config.model)
    _, d, energies, kappa = dense_perturbative(ops.h0, ops.h1, ops.spec.lam, 0.05, "2")
    basis = decompose_model(ops).basis
    rho_f = to_frame(basis, canonical_initial_state(ops))
    coeff = (rho_f + d @ rho_f) / kappa
    energies, coeff = unvec(energies, dim), unvec(coeff, dim)
    if scenario == "evolve":
        levels = report.tables["levels"][1]
        z = np.array([complex(r[2], r[3]) for r in levels])
        w = np.array([complex(r[4], r[5]) for r in levels])
        np.testing.assert_allclose(np.subtract.outer(z, w), energies, rtol=0, atol=1e-12)
        weights = np.zeros((dim, dim))
        for i, j, *_, weight in report.tables["energies"][1]:
            weights[i, j] = weight
        np.testing.assert_allclose(weights, np.abs(coeff), rtol=0, atol=1e-12)
    else:
        trace = fidelity_trace(energies, coeff, config.times())
        evidence = report.payload["evidence"]
        assert evidence["kinetic_fidelity_deviation"] == pytest.approx(trace.max_deviation,
                                                                       rel=0, abs=1e-12)
        coherence = ~np.eye(dim, dtype=bool)
        assert evidence["coherence_dyad_decay"] == pytest.approx(
            float(np.max(np.abs(energies[coherence].imag))), rel=0, abs=1e-12)


@pytest.mark.parametrize("eta", [0.0, 0.05])
@pytest.mark.parametrize("order", ["exact", "1", "2"])
def test_projections_leave_the_decomposition_as_built(order, eta):
    ops = build_model(load_config({"scenario": "classify", "model": GEN_MODEL}).model)
    rho0 = canonical_initial_state(ops)
    decomp = decompose_model(ops, order=order, eta=eta)
    fields = dict(vars(decomp))
    coeff = project_density(decomp, rho0)
    coeff0, _ = kinetic_consistency_residual(decomp, ops.hamiltonian(), rho0, 1.5)
    # the same field objects, and no attribute added
    assert vars(decomp) == fields
    # rho0 projected beside rho(t) reads the same bytes as projected alone
    assert coeff0.tobytes() == coeff.tobytes()


def test_swap_calibration_payload_orders():
    report = run(make_config("swap-calibrate", model=GEN_MODEL))
    p = report.payload
    assert p["second_order"]["order"] == "second"
    assert p["exact"]["order"] == "exact"
    assert p["delta_t_gap"] >= 0.0
    header, rows = report.tables["calibration"]
    assert [r[0] for r in rows] == ["second", "exact"]


def test_cnot_demo_payload_closure():
    report = run(make_config("cnot-demo", seed=5))
    p = report.payload
    assert p["closed"] is True
    assert p["involution_residual"] <= 1e-10
    assert p["ket_relation_residual"] <= 1e-10
    assert p["bra_relation_residual"] <= 1e-10
    assert p["permutation"] == [0, 1, 3, 2]
    header, rows = report.tables["cnot_pairing"]
    assert len(header) == 8 and len(rows) == 4


def test_turing_demo_payload_residuals():
    report = run(make_config("turing-demo", seed=11))
    p = report.payload
    assert p["n_tape"] == 2
    assert p["biorthonormality_residual"] <= 1e-12
    assert p["bloch_circle_residual"] <= 1e-10
    assert p["isometry_residual"] <= 1e-10
    assert p["shear_purity_gap"] <= 1e-10
    assert p["recomposition_gap"] <= 1e-10
    weights = [complex(w).real for w in p["branch_weights"]]
    assert sum(weights) == pytest.approx(1.0, abs=1e-10)
    header, rows = report.tables["bloch_trajectory"]
    assert len(rows) == 5


def test_verify_counts_and_block_check():
    report = run(make_config("verify", model=GEN_MODEL))
    p = report.payload
    assert p["failed"] == 0
    assert p["passed"] == p["total"]
    names = {c["name"] for c in p["checks"]}
    assert "block_eigenvalues" in names
    assert "kinetic_consistency" in names


@pytest.mark.parametrize("atoms, block_check", [([1.0, 1.02], False), ([1.02, 1.02], True)],
                         ids=["detuned", "equal"])
def test_verify_reads_the_block_check_on_equal_atoms_only(tmp_path, capsys, atoms, block_check):
    # the closed-form exchange block assumes equal singly-excited energies,
    # which detuned atoms split by omega_1 - omega_2: verify passes without it
    doc = tmp_path / "verify.json"
    doc.write_text(json.dumps({"scenario": "verify",
                               "model": {**GEN_MODEL, "omega_atoms": atoms}}))
    assert main(["verify", "--config", str(doc), "--out", str(tmp_path / "run")]) == EXIT_OK
    capsys.readouterr()
    p = json.loads((tmp_path / "run" / REPORT_NAME).read_text())["payload"]
    assert p["failed"] == 0 and p["passed"] == p["total"] == 6 + block_check
    assert ("block_eigenvalues" in {c["name"] for c in p["checks"]}) == block_check


def test_write_persists_all_tables(tmp_path):
    run(make_config("classify"), tmp_path / "out")
    assert (tmp_path / "out" / REPORT_NAME).exists()
    assert (tmp_path / "out" / "classification.csv").exists()
    assert (tmp_path / "out" / "evidence.csv").exists()
    assert (tmp_path / "out" / "metadata.json").exists()


def test_diagnostics_record_dimension():
    report = run(make_config("classify"))
    assert report.diagnostics["hilbert_dim"] == 6
    assert report.diagnostics["hermitian_h1"] is True
