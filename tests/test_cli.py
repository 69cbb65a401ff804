"""End-to-end command line runs with exit code checks."""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import pytest

import subdyn
from subdyn.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, build_parser, main
from subdyn.config import SCENARIOS
from subdyn.report import METADATA_NAME, REPORT_NAME

CONFIGS = sorted((pathlib.Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
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


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_reports_are_byte_identical_across_runs(tmp_path, capsys, scenario):
    # the second run in this process parses with the parser the first used
    a, b = tmp_path / "a", tmp_path / "b"
    assert main([scenario, "--out", str(a), "--seed", "3"]) == EXIT_OK
    assert main([scenario, "--out", str(b), "--seed", "3"]) == EXIT_OK
    capsys.readouterr()
    names = sorted(p.name for p in a.iterdir() if p.name != METADATA_NAME)
    assert REPORT_NAME in names
    assert names == sorted(p.name for p in b.iterdir() if p.name != METADATA_NAME)
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_flags_do_not_leak_into_the_next_call(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["classify", "--order", "1", "--out", str(a)]) == EXIT_OK
    assert main(["classify", "--out", str(b)]) == EXIT_OK
    capsys.readouterr()
    assert json.loads((a / REPORT_NAME).read_text())["config"]["order"] == "1"
    assert json.loads((b / REPORT_NAME).read_text())["config"]["order"] == "exact"


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


@pytest.mark.parametrize("scenario", ["cnot-demo", "verify", "turing-demo"])
def test_negative_seed_is_config_error(tmp_path, capsys, scenario):
    out = tmp_path / "run"
    assert main([scenario, "--seed", "-1", "--out", str(out)]) == EXIT_CONFIG
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("scenario, code", [
    ("classify", EXIT_CONFIG), ("evolve", EXIT_CONFIG), ("verify", EXIT_CONFIG),
    ("swap-calibrate", EXIT_OK),
])
def test_diagonal_model_without_field_quantum(tmp_path, capsys, scenario, code):
    doc = tmp_path / "empty_field.json"
    doc.write_text(json.dumps({"model": {"kind": "diagonal", "fock_cutoff": 0}}))
    out = tmp_path / "run"
    assert main([scenario, "--config", str(doc), "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == EXIT_CONFIG:
        assert "config error" in err and "fock_cutoff >= 1" in err
        assert not out.exists()


def test_missing_config_file_exit_code(tmp_path, capsys):
    assert main(["classify", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG
    assert "cannot read" in capsys.readouterr().err


def _diagonal_doc(tmp_path, fock_cutoff):
    doc = tmp_path / "big.json"
    doc.write_text(json.dumps({"model": {"kind": "diagonal", "omega0": 1.0,
                                         "omega": 1.3, "g": 0.5, "lam": 1.0,
                                         "fock_cutoff": fock_cutoff}}))
    return doc


def test_dimension_cap_reported_as_config_error(tmp_path, capsys, monkeypatch):
    # order 2 at d = 4096 and eta > 0 is estimated at about 1 TiB; refused
    # before any model is built
    def build_model(spec):
        raise AssertionError("model built for a refused run")

    monkeypatch.setattr("subdyn.runner.build_model", build_model)
    doc = _diagonal_doc(tmp_path, 2047)
    assert main(["classify", "--config", str(doc), "--order", "2",
                 "--eta", "0.05"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "order 2" in err
    assert "estimated" in err and "budget" in err


@pytest.mark.parametrize("scenario", ["classify", "evolve", "verify", "swap-calibrate"])
def test_runs_above_the_old_cap_of_64_need_no_flag(tmp_path, capsys, scenario):
    doc = _diagonal_doc(tmp_path, 40)
    out = tmp_path / "run"
    assert main([scenario, "--config", str(doc), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    data = json.loads((out / REPORT_NAME).read_text())
    assert data["diagnostics"]["hilbert_dim"] == 82


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


@pytest.mark.parametrize("scenario, order", [
    *((scenario, order) for scenario in ("classify", "evolve") for order in ("1", "2", "exact")),
    ("swap-calibrate", "exact"), ("verify", "exact")],
    ids=lambda value: value)
def test_overflowing_lam_is_numerical_failure(tmp_path, capsys, scenario, order):
    # lam = 1e300 overflows the interaction scale; every scenario that reads
    # lam refuses the run instead of writing a report of infs and nans
    doc = tmp_path / "huge.json"
    doc.write_text(json.dumps({"model": {"kind": "diagonal", "omega0": 1.0, "omega": 1.3,
                                         "g": 0.5, "lam": 1e300, "fock_cutoff": 2}}))
    out = tmp_path / "run"
    code = main([scenario, "--config", str(doc), "--order", order, "--out", str(out)])
    assert code == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err
    assert not (out / REPORT_NAME).exists()


# (scenario, flags) whose order or eta the scenario does not read
UNREAD_FLAGS = {
    "verify-order": ("verify", ["--order", "2", "--eta", "0.3"]),
    "verify-eta": ("verify", ["--eta", "0.3"]),
    "swap-calibrate-order": ("swap-calibrate", ["--order", "1"]),
    # eta > 0 gives the order-1 levels decay rates, which no timing cancels
    "swap-calibrate-eta": ("swap-calibrate", ["--eta", "0.05"]),
    "cnot-demo-order": ("cnot-demo", ["--order", "2"]),
    "cnot-demo-eta": ("cnot-demo", ["--eta", "0.05"]),
    "turing-demo-order": ("turing-demo", ["--order", "1"]),
    "turing-demo-eta": ("turing-demo", ["--eta", "0.05"]),
    "classify-exact-eta": ("classify", ["--eta", "0.05"]),
    "evolve-exact-eta": ("evolve", ["--order", "exact", "--eta", "0.05"]),
}


@pytest.mark.parametrize("case", list(UNREAD_FLAGS))
def test_unread_flag_is_refused(tmp_path, capsys, case):
    # a run would echo the value in its report without reading it
    scenario, flags = UNREAD_FLAGS[case]
    out = tmp_path / "run"
    assert main([scenario, *flags, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("subdyn: config error:") and err.count("\n") == 1
    assert not (out / REPORT_NAME).exists()


@pytest.mark.parametrize("scenario, flags", [
    ("classify", ["--order", "1", "--eta", "0.05"]), ("verify", ["--order", "exact", "--eta", "0"])],
    ids=["classify-1-eta", "verify-defaults"])
def test_read_flags_and_spelled_out_defaults_are_accepted(tmp_path, capsys, scenario, flags):
    assert main([scenario, *flags, "--out", str(tmp_path / "run")]) == EXIT_OK
    capsys.readouterr()


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

    def fake_run(config, out_dir=None):
        return RunReport(scenario="verify", config={}, diagnostics={},
                         payload={"checks": [], "failed": 1, "passed": 5,
                                  "total": 6}, tables={})

    monkeypatch.setattr("subdyn.cli.run", fake_run)
    code = main(["verify", "--out", str(tmp_path / "v")])
    capsys.readouterr()
    assert code == EXIT_NUMERICAL


@pytest.mark.parametrize("plane, entry, value, failing", [
    # an off-diagonal entry of U = R - I (the anchored right eigenvectors) or
    # of U~ = L - I (the left ones) nudged by 1e-6 breaks the eigen-relation
    # and the completeness of the eigenbasis
    (0, (1, 2), 1e-6, ("similarity_relation", "projector_completeness")),
    (1, (1, 2), 1e-6, ("similarity_relation", "projector_completeness")),
    # U_11 = -1 is a zero anchor R_11: the dyads of level 1 lose their
    # P-block weight
    (0, (1, 1), -1.0, ("block_structure",)),
], ids=["psi", "psi_tilde", "psi_anchor"])
def test_verify_catches_corrupted_decomposition(tmp_path, capsys, monkeypatch, plane,
                                               entry, value, failing):
    from subdyn import runner

    real = runner.decompose_model

    def corrupted(*args, **kwargs):
        decomp = real(*args, **kwargs)
        # the exact order stores (U, U~, U~, U) and reads the same arrays off
        # the planes, so one corrupted array corrupts every read of it
        u, u_dual = (m.copy() for m in decomp.planes[:2])
        bad = (u, u_dual)[plane]
        bad[entry] += value
        planes = (u, u_dual, u_dual, u)
        return dataclasses.replace(decomp, planes=planes, off_plane=planes)

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


def test_output_directory_precedence(tmp_path, capsys, monkeypatch):
    # --out, else $SUBDYN_OUTPUT_ROOT/<scenario>, else runs/<scenario>
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SUBDYN_OUTPUT_ROOT", str(tmp_path / "env"))
    assert main(["classify", "--out", str(tmp_path / "x")]) == EXIT_OK
    assert f"report: {tmp_path / 'x' / REPORT_NAME}" in capsys.readouterr().out
    assert main(["classify"]) == EXIT_OK
    assert f"report: {tmp_path / 'env' / 'classify' / REPORT_NAME}" in capsys.readouterr().out
    monkeypatch.delenv("SUBDYN_OUTPUT_ROOT")
    assert main(["classify"]) == EXIT_OK
    assert f"report: {pathlib.Path('runs') / 'classify' / REPORT_NAME}" \
        in capsys.readouterr().out
    for out in (tmp_path / "x", tmp_path / "env" / "classify", tmp_path / "runs" / "classify"):
        assert (out / REPORT_NAME).exists()


def test_uncreatable_out_is_refused(tmp_path, capsys):
    # a regular file as the parent of --out
    afile = tmp_path / "afile"
    afile.touch()
    assert main(["classify", "--out", str(afile / "sub")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"subdyn: cannot write {afile / 'sub'}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("blocked", [REPORT_NAME, "classification.csv"])
def test_unwritable_output_file_is_refused(tmp_path, capsys, blocked):
    # a directory in place of one of the run's files
    out = tmp_path / "run"
    (out / blocked).mkdir(parents=True)
    assert main(["classify", "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"subdyn: cannot write {out}: ")
    assert err.count("\n") == 1
    assert not (out / REPORT_NAME).is_file()


def test_failed_run_leaves_no_earlier_report(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["classify", "--out", str(out)]) == EXIT_OK
    assert (out / REPORT_NAME).exists()
    doc = tmp_path / "res.json"
    doc.write_text(json.dumps(RESONANT_TRIANGULAR))
    code = main(["classify", "--config", str(doc), "--order", "1", "--out", str(out)])
    capsys.readouterr()
    assert code == EXIT_NUMERICAL
    assert not (out / REPORT_NAME).exists()


def test_turing_demo_summary_line(tmp_path, capsys):
    out = tmp_path / "t"
    assert main(["turing-demo", "--out", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "circle residual" in stdout
    assert (out / "bloch_trajectory.csv").exists()


# Run in a fresh interpreter: every scenario at every order runs on numpy
# alone. Prints one JSON line: the exit codes, then every scipy module loaded.
NO_SCIPY_SCRIPT = """
import json, sys
from subdyn.cli import main
out, configs = sys.argv[1], sys.argv[2:]
runs = (["classify"], ["classify", "--order", "1"], ["classify", "--order", "2", "--eta", "0.05"],
        ["evolve"], ["evolve", "--order", "2"], ["verify"], ["swap-calibrate"], ["cnot-demo"],
        ["turing-demo"])
codes = [main([*argv, "--config", cfg, "--out", f"{out}/{k}-{n}"])
         for k, cfg in enumerate(configs) for n, argv in enumerate(runs)]
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules
                                                  if m == "scipy" or m.startswith("scipy."))}))
"""


def test_every_scenario_loads_no_scipy_submodule(tmp_path):
    src = str(pathlib.Path(subdyn.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path),
                           *map(str, CONFIGS)], env=env, capture_output=True, text=True,
                          check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert len(CONFIGS) == 3
    assert result["codes"] == [EXIT_OK] * 9 * len(CONFIGS)
    assert result["scipy"] == []
    for k in range(len(CONFIGS)):
        for n in range(9):
            assert (tmp_path / f"{k}-{n}" / REPORT_NAME).is_file()
