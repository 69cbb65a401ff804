"""End-to-end command line runs with exit code checks."""

import dataclasses
import json

import pytest

from subdyn.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, build_parser, main
from subdyn.report import REPORT_NAME

RESONANT_TRIANGULAR = {
    "model": {"kind": "triangular", "omega0": 0.0, "omega": 0.0, "g": 0.4,
              "lam": 1.0, "fock_cutoff": 2},
}


def test_parser_requires_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_classify_default_model(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["classify", "--out", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "classify:" in stdout
    assert str(out / REPORT_NAME) in stdout
    data = json.loads((out / REPORT_NAME).read_text())
    assert data["payload"]["verdicts"]["stationary_total"] == "DF"
    assert (out / "classification.csv").exists()


def test_reports_are_byte_identical_across_runs(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["evolve", "--out", str(a), "--seed", "3"]) == EXIT_OK
    assert main(["evolve", "--out", str(b), "--seed", "3"]) == EXIT_OK
    capsys.readouterr()
    assert (a / REPORT_NAME).read_bytes() == (b / REPORT_NAME).read_bytes()


def test_seed_changes_sampled_payloads(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["cnot-demo", "--out", str(a), "--seed", "1"]) == EXIT_OK
    assert main(["cnot-demo", "--out", str(b), "--seed", "2"]) == EXIT_OK
    capsys.readouterr()
    assert (a / REPORT_NAME).read_bytes() != (b / REPORT_NAME).read_bytes()


def test_config_error_exit_code(tmp_path, capsys):
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps({"model": {"kind": "diagonal", "lamda": 1.0}}))
    assert main(["classify", "--config", str(doc)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err
    assert "did you mean 'lam'" in err


@pytest.mark.parametrize("argv", [
    ["classify", "--eta", "nan", "--order", "1"],
    ["classify", "--eta", "inf"],
])
def test_non_finite_override_is_config_error(tmp_path, capsys, argv):
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
    assert "eta must be finite" in capsys.readouterr().err
    assert not (out / REPORT_NAME).exists()


def test_malformed_config_value_exit_code(tmp_path, capsys):
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps({"model": {"kind": "diagonal", "lam": "x"}}))
    assert main(["classify", "--config", str(doc)]) == EXIT_CONFIG
    assert "model.lam must be a number" in capsys.readouterr().err


def test_key_unused_by_kind_exit_code(tmp_path, capsys):
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps({"model": {"kind": "diagonal", "bath": [[0.9, 0.6]],
                                         "omega_atoms": [2.0, 3.0]}}))
    out = tmp_path / "run"
    assert main(["classify", "--config", str(doc), "--out", str(out)]) == EXIT_CONFIG
    assert "model.omega_atoms is not read by the 'diagonal' kind" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_file_exit_code(tmp_path, capsys):
    assert main(["classify", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG
    assert "cannot read" in capsys.readouterr().err


def test_dimension_cap_reported_as_config_error(tmp_path, capsys):
    doc = tmp_path / "big.json"
    doc.write_text(json.dumps({"model": {"kind": "diagonal", "omega0": 1.0,
                                         "omega": 1.3, "g": 0.5, "lam": 1.0,
                                         "fock_cutoff": 40}}))
    assert main(["classify", "--config", str(doc)]) == EXIT_CONFIG
    assert "allow_large" in capsys.readouterr().err


def test_resonant_perturbation_exit_code(tmp_path, capsys):
    # omega0 = omega = 0 collapses every free level, so first order hits a
    # coupled degenerate dyad pair and must refuse rather than divide by zero
    doc = tmp_path / "res.json"
    doc.write_text(json.dumps(RESONANT_TRIANGULAR))
    out = tmp_path / "run"
    code = main(["classify", "--config", str(doc), "--order", "1",
                 "--out", str(out)])
    assert code == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err
    assert not (out / REPORT_NAME).exists()


def test_eta_regulator_unblocks_resonance(tmp_path, capsys):
    doc = tmp_path / "res.json"
    doc.write_text(json.dumps(RESONANT_TRIANGULAR))
    out = tmp_path / "run"
    code = main(["classify", "--config", str(doc), "--order", "1",
                 "--eta", "0.05", "--out", str(out)])
    capsys.readouterr()
    assert code == EXIT_OK
    assert (out / REPORT_NAME).exists()


def test_verify_scenario_passes_on_default_model(tmp_path, capsys):
    out = tmp_path / "v"
    assert main(["verify", "--out", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "checks passed" in stdout
    data = json.loads((out / REPORT_NAME).read_text())
    assert data["payload"]["failed"] == 0


def test_verify_failures_exit_nonzero(tmp_path, capsys, monkeypatch):
    # the invariant suite passes by construction on healthy models, so the
    # failure branch is exercised with a stubbed runner
    from subdyn.report import RunReport

    def fake_run(config, write=True):
        return RunReport(scenario="verify", config={}, diagnostics={},
                         payload={"checks": [], "failed": 1, "passed": 5,
                                  "total": 6}, tables={})

    monkeypatch.setattr("subdyn.cli.run", fake_run)
    code = main(["verify", "--out", str(tmp_path / "v")])
    capsys.readouterr()
    assert code == EXIT_NUMERICAL


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("field, entry, value, failing", [
    # an off-diagonal entry nudged by 1e-6 breaks the eigen-relation and the
    # completeness of the eigenbasis
    ("psi", (1, 2), 1e-6, ("similarity_relation", "projector_completeness")),
    ("psi_tilde", (1, 2), 1e-6, ("similarity_relation", "projector_completeness")),
    # a zero anchor psi_11 leaves the dyads of level 1 without a P-block weight
    ("psi", (1, 1), None, ("block_structure",)),
], ids=["psi", "psi_tilde", "psi_anchor"])
def test_verify_catches_corrupted_decomposition(tmp_path, capsys, monkeypatch, field,
                                               entry, value, failing):
    from subdyn import runner

    real = runner.decompose_model

    def corrupted(*args, **kwargs):
        decomp = real(*args, **kwargs)
        bad = getattr(decomp, field).copy()
        bad[entry] = 0.0 if value is None else bad[entry] + value
        return dataclasses.replace(decomp, **{field: bad})

    monkeypatch.setattr(runner, "decompose_model", corrupted)
    out = tmp_path / "v"
    assert main(["verify", "--out", str(out)]) == EXIT_NUMERICAL
    capsys.readouterr()
    checks = {c["name"]: c for c in json.loads((out / REPORT_NAME).read_text())["payload"]["checks"]}
    for name in failing:
        assert checks[name]["passed"] is False


def test_output_root_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SUBDYN_OUTPUT_ROOT", str(tmp_path / "root"))
    assert main(["classify"]) == EXIT_OK
    capsys.readouterr()
    assert (tmp_path / "root" / "classify" / REPORT_NAME).exists()


def test_default_output_under_cwd(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SUBDYN_OUTPUT_ROOT", raising=False)
    assert main(["swap-calibrate"]) == EXIT_OK
    capsys.readouterr()
    assert (tmp_path / "runs" / "swap-calibrate" / REPORT_NAME).exists()


def test_turing_demo_summary_line(tmp_path, capsys):
    out = tmp_path / "t"
    assert main(["turing-demo", "--out", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "circle residual" in stdout
    assert (out / "bloch_trajectory.csv").exists()
