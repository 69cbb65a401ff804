"""Scenario runner payloads and report persistence."""

import pytest

from subdyn.config import load_config
from subdyn.report import REPORT_NAME
from subdyn.runner import resolve_output_dir, run

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
    report = run(make_config("classify"), write=False)
    assert report.scenario == "classify"
    assert not (tmp_path / "runs").exists()


def test_resolve_output_dir_priority(tmp_path, monkeypatch):
    explicit = make_config("classify", output_dir=str(tmp_path / "x"))
    assert resolve_output_dir(explicit) == tmp_path / "x"
    monkeypatch.setenv("SUBDYN_OUTPUT_ROOT", str(tmp_path / "env"))
    assert resolve_output_dir(make_config("evolve")) == tmp_path / "env" / "evolve"
    monkeypatch.delenv("SUBDYN_OUTPUT_ROOT")
    assert resolve_output_dir(make_config("evolve")).parts[-2:] == ("runs", "evolve")


def test_classify_payload_links_cells_to_evidence():
    report = run(make_config("classify", model=GEN_MODEL), write=False)
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


def test_evolve_payload_unit_fidelity_and_consistency():
    report = run(make_config("evolve", model=GEN_MODEL), write=False)
    p = report.payload
    assert p["fidelity_unit"] is True or p["fidelity_max_deviation"] <= 1e-9
    assert p["trace_drift"] <= 1e-10
    assert p["kinetic_consistency_residual"] <= 1e-6
    header, rows = report.tables["energies"]
    assert len(rows) == 16 * 16
    header_f, rows_f = report.tables["fidelity"]
    assert len(rows_f) == 101


def test_swap_calibration_payload_orders():
    report = run(make_config("swap-calibrate", model=GEN_MODEL), write=False)
    p = report.payload
    assert p["second_order"]["order"] == "second"
    assert p["exact"]["order"] == "exact"
    assert p["delta_t_gap"] >= 0.0
    header, rows = report.tables["calibration"]
    assert [r[0] for r in rows] == ["second", "exact"]


def test_cnot_demo_payload_closure():
    report = run(make_config("cnot-demo", seed=5), write=False)
    p = report.payload
    assert p["closed"] is True
    assert p["involution_residual"] <= 1e-10
    assert p["ket_relation_residual"] <= 1e-10
    assert p["bra_relation_residual"] <= 1e-10
    assert p["permutation"] == [0, 1, 3, 2]
    header, rows = report.tables["cnot_pairing"]
    assert len(header) == 8 and len(rows) == 4


def test_turing_demo_payload_residuals():
    report = run(make_config("turing-demo", seed=11, tape_spins=3), write=False)
    p = report.payload
    assert p["n_tape"] == 3
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
    report = run(make_config("verify", model=GEN_MODEL), write=False)
    p = report.payload
    assert p["failed"] == 0
    assert p["passed"] == p["total"]
    names = {c["name"] for c in p["checks"]}
    assert "block_eigenvalues" in names
    assert "kinetic_consistency" in names


def test_write_persists_all_tables(tmp_path):
    cfg = make_config("classify", output_dir=str(tmp_path / "out"))
    run(cfg, write=True)
    assert (tmp_path / "out" / REPORT_NAME).exists()
    assert (tmp_path / "out" / "classification.csv").exists()
    assert (tmp_path / "out" / "evidence.csv").exists()
    assert (tmp_path / "out" / "metadata.json").exists()


def test_diagnostics_record_dimension():
    report = run(make_config("classify"), write=False)
    assert report.diagnostics["hilbert_dim"] == 6
    assert report.diagnostics["hermitian_h1"] is True
