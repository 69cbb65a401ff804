"""Per-op correctness checks on the report.json an op wrote.

check_op returns None when the op passed, or the name of the first failing
check followed by a short detail.
"""

from __future__ import annotations

import json

from workloads import KIND_ROWS, Op

CELLS = ("stationary_total", "evolution_total", "stationary_proj", "evolution_proj")
CELL_EVIDENCE = {
    "stationary_total": ("population_drift", None),
    "evolution_total": ("coherence_modulus_drift", None),
    "stationary_proj": ("population_dyad_shift", "population_dyad_decay"),
    "evolution_proj": ("coherence_dyad_shift", "coherence_dyad_decay"),
}
KINETIC_CONSISTENCY_TOL = 1e-6
TURING_TOLS = {"biorthonormality_residual": 1e-12, "isometry_residual": 1e-10,
               "bloch_circle_residual": 1e-10, "recomposition_gap": 1e-10}


def _verdict_backed(cell: str, verdict: str, evidence: dict, tol: float) -> bool:
    """The verdict the classifier's rule gives for the recorded evidence."""
    value_key, decay_key = CELL_EVIDENCE[cell]
    value = evidence[value_key]
    if decay_key is None:
        return verdict == ("D" if value > tol else "DF")
    decay = evidence[decay_key]
    if decay > tol:
        return verdict == "D"
    return verdict == ("PE" if value > tol else "DF")


def _check_classify(op: Op, payload: dict) -> str | None:
    row = tuple(payload["table_row"])
    want = KIND_ROWS[op.op_type.kind]
    # eta > 0 buys regular denominators with decaying kinetic phases, so only
    # the total-space cells keep the documented verdicts there.
    compared = 4 if op.eta == 0.0 else 2
    if row[:compared] != want[:compared]:
        return f"classification_row: got {'|'.join(row)}, documented {'|'.join(want)}"
    if payload["interaction_row"] != op.op_type.kind:
        return f"interaction_row: got {payload['interaction_row']}"
    for cell in CELLS:
        if not _verdict_backed(cell, payload["verdicts"][cell], payload["evidence"],
                               payload["tol"]):
            return f"verdict_evidence: {cell}={payload['verdicts'][cell]} not backed"
    return None


def _check_evolve(op: Op, payload: dict, diagnostics: dict) -> str | None:
    if op.op_type.order == "exact":
        residual = payload["kinetic_consistency_residual"]
        if residual is None or not residual <= KINETIC_CONSISTENCY_TOL:
            return f"kinetic_consistency: residual {residual} > {KINETIC_CONSISTENCY_TOL}"
    if diagnostics["hermitian_h1"] and op.eta == 0.0 and not payload["fidelity_unit"]:
        return f"fidelity_unit: deviation {payload['fidelity_max_deviation']}"
    return None


def _check_turing(payload: dict) -> str | None:
    for key, tol in TURING_TOLS.items():
        value = payload[key]
        if value is None or not value <= tol:
            return f"turing_{key}: {value} > {tol}"
    return None


def check_op(op: Op, exit_code: int, report_bytes: bytes | None,
             first_bytes: dict[str, bytes]) -> str | None:
    """Check one op; first_bytes maps config ids to their first report's bytes."""
    if exit_code != 0:
        return f"exit_code: {exit_code}"
    if report_bytes is None:
        return "report_missing"
    previous = first_bytes.setdefault(op.config_id, report_bytes)
    if previous != report_bytes:
        return "repeat_bytes: report.json differs from the same config's earlier run"
    report = json.loads(report_bytes)
    payload = report["payload"]
    scenario = op.op_type.scenario
    if scenario == "classify":
        return _check_classify(op, payload)
    if scenario == "evolve":
        return _check_evolve(op, payload, report["diagnostics"])
    if scenario == "verify" and payload["failed"] > 0:
        names = [c["name"] for c in payload["checks"] if not c["passed"]]
        return f"verify_failed: {','.join(names)}"
    if scenario == "cnot-demo" and not payload["closed"]:
        return "cnot_closed: gate not closed"
    if scenario == "turing-demo":
        return _check_turing(payload)
    return None
