"""Run reports: one deterministic JSON payload plus flat CSV tables.

The payload is fully determined by (config, seed): keys are sorted, floats
are written with repr precision, and anything time-dependent (timestamp,
wall time) goes into a separate metadata.json so byte-comparison of
report.json is meaningful.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime
import itertools
import json
import math
import pathlib

import numpy as np

SCHEMA = "subdyn-report/1"
REPORT_NAME = "report.json"
METADATA_NAME = "metadata.json"


def json_safe(value):
    """Recursively convert report values into strict-JSON types.

    Complex numbers become {"re": ..., "im": ...}; NaN becomes None and
    infinities become "inf"/"-inf" strings, since strict JSON has no
    spelling for them.
    """
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return [json_safe(v) for v in value.tolist()]
    if isinstance(value, (complex, np.complexfloating)):
        c = complex(value)
        return {"re": json_safe(c.real), "im": json_safe(c.imag)}
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        f = float(value)
        if math.isnan(f):
            return None
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    return value


@dataclasses.dataclass(frozen=True)
class RunReport:
    """Everything one scenario run produced, minus the time-dependent parts."""

    scenario: str
    config: dict
    payload: dict
    diagnostics: dict
    tables: dict[str, tuple[tuple[str, ...], list[tuple]]]

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "scenario": self.scenario,
            "config": json_safe(self.config),
            "payload": json_safe(self.payload),
            "diagnostics": json_safe(self.diagnostics),
            "tables": sorted(self.tables),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def write_csv(path: pathlib.Path, header, rows: list[tuple]) -> None:
    """Write a header and rows; csv.writer spells a cell with str(), which for
    a float or np.float64 is its repr. Complex cells raise ValueError."""
    cell_types = set(map(type, itertools.chain.from_iterable(rows)))
    if any(issubclass(t, (complex, np.complexfloating)) for t in cell_types):
        raise ValueError("split complex values into _re/_im columns before writing")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_report(report: RunReport, out_dir, wall_time_s: float) -> pathlib.Path:
    """Persist every CSV table, metadata.json and report.json into out_dir.

    report.json is written last, so it exists only when every other file of
    its run was written; the run's CSVs are the ones its "tables" lists.
    """
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in sorted(report.tables.items()):
        write_csv(out / f"{name}.csv", header, rows)
    metadata = {
        "written_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "wall_time_s": wall_time_s,
    }
    (out / METADATA_NAME).write_text(json.dumps(metadata, sort_keys=True, indent=2) + "\n")
    report_path = out / REPORT_NAME
    report_path.write_text(report.to_json())
    return report_path
