"""Report serialization: strict JSON, flat CSV, deterministic bytes."""

import csv
import json
import math

import numpy as np
import pytest

from subdyn.report import (
    METADATA_NAME,
    REPORT_NAME,
    RunReport,
    json_safe,
    write_csv,
    write_report,
)


def test_json_safe_complex_and_specials():
    assert json_safe(1 + 2j) == {"re": 1.0, "im": 2.0}
    assert json_safe(float("nan")) is None
    assert json_safe(float("inf")) == "inf"
    assert json_safe(float("-inf")) == "-inf"
    assert json_safe(np.complex128(3j)) == {"re": 0.0, "im": 3.0}
    assert json_safe(complex(float("nan"), 0.0)) == {"re": None, "im": 0.0}


def test_json_safe_numpy_containers():
    out = json_safe({"a": np.arange(3), 5: (np.float64(0.5), np.int64(2))})
    assert out == {"a": [0, 1, 2], "5": [0.5, 2]}
    assert json_safe(np.bool_(True)) is True
    assert isinstance(json_safe(np.int32(7)), int)


def test_json_safe_roundtrips_through_strict_json():
    blob = {"x": np.linspace(0, 1, 3), "c": 1j, "bad": float("nan")}
    text = json.dumps(json_safe(blob), allow_nan=False)
    assert json.loads(text)["bad"] is None


def sample_report():
    return RunReport(
        scenario="classify",
        config={"seed": 0, "scenario": "classify"},
        payload={"value": 0.1, "vec": np.array([1.0, 2.0])},
        diagnostics={"wall": "excluded elsewhere"},
        tables={"beta": (("k", "v"), [("a", 1.0)]),
                "alpha": (("k",), [("z",)])},
    )


def test_report_json_sorted_and_terminated():
    text = sample_report().to_json()
    assert text.endswith("}\n")
    data = json.loads(text)
    assert data["schema"] == "subdyn-report/1"
    # table names are listed sorted; keys come out sorted by dumps
    assert data["tables"] == ["alpha", "beta"]
    keys = [line.split('"')[1] for line in text.splitlines()
            if line.startswith('  "')]
    assert keys == sorted(keys)


def test_report_json_is_deterministic():
    a = sample_report().to_json()
    b = sample_report().to_json()
    assert a == b


def test_write_csv_floats_and_complex(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("name", "x"), [("row", 0.1), ("other", 2)])
    text = path.read_text()
    assert text == "name,x\nrow,0.1\nother,2\n"
    with pytest.raises(ValueError, match="_re/_im"):
        write_csv(path, ("x",), [(1 + 1j,)])


def test_write_csv_float_cells_are_reprs(tmp_path):
    # csv.writer spells every cell with str(); for float and np.float64 cells
    # that equals repr(float(v)), so each value round-trips exactly
    rng = np.random.default_rng(7)
    specials = [-0.0, 0.0, 5e-324, 1e-5, 1e16, math.inf, -math.inf, math.nan]
    scaled = rng.standard_normal(2000) * 10.0 ** rng.integers(-300, 300, 2000)
    values = specials + rng.standard_normal(2000).tolist() + scaled.tolist()
    rows = [(v, np.float64(v), k, np.int64(k), k % 2 == 0, np.bool_(k % 3 == 0), f"s{k}")
            for k, v in enumerate(values)]
    path = tmp_path / "cells.csv"
    write_csv(path, ("float", "float64", "int", "int64", "bool", "bool_", "str"), rows)
    with open(path, newline="") as handle:
        cells = list(csv.reader(handle))[1:]
    assert cells == [[str(v) for v in row] for row in rows]
    assert [row[:2] for row in cells] == [[repr(float(v))] * 2 for v in values]


def test_write_report_creates_all_files(tmp_path):
    report = sample_report()
    out = tmp_path / "nested" / "dir"
    path = write_report(report, out, wall_time_s=0.25)
    assert path == out / REPORT_NAME
    assert path.exists()
    meta = json.loads((out / METADATA_NAME).read_text())
    assert meta["wall_time_s"] == 0.25
    assert "written_at" in meta
    assert (out / "alpha.csv").exists()
    assert (out / "beta.csv").exists()
    # timestamps live in metadata only, so the report itself is stable
    again = tmp_path / "second"
    write_report(report, again, wall_time_s=99.0)
    assert (out / REPORT_NAME).read_bytes() == (again / REPORT_NAME).read_bytes()


def test_report_payload_survives_nan(tmp_path):
    report = RunReport(scenario="evolve", config={}, payload={"gap": math.nan},
                       diagnostics={}, tables={})
    path = write_report(report, tmp_path, wall_time_s=0.0)
    assert json.loads(path.read_text())["payload"]["gap"] is None
