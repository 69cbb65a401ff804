"""Command line front end: subdyn <scenario> [flags].

Exit codes: 0 success, 2 configuration rejected or output directory or
file not writable, 3 numerical failure (resonance, defective matrix, a
floating-point overflow or invalid operation, or a verify run with failing
checks).
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
from typing import Sequence

import numpy as np

from .config import SCENARIOS, ConfigError, load_config, read_config
from .report import METADATA_NAME, REPORT_NAME, RunReport
from .runner import run
from .subdynamics import ORDERS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# Used when no --config is given: the smallest model with a nontrivial field.
DEFAULT_MODEL = {
    "kind": "diagonal",
    "omega0": 1.0,
    "omega": 1.3,
    "g": 0.5,
    "lam": 1.0,
    "fock_cutoff": 2,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subdyn",
        description="Projected-subspace dynamics for small open quantum models.")
    parser.add_argument("scenario", choices=SCENARIOS, help="the scenario to run")
    parser.add_argument("--config", type=pathlib.Path, default=None,
                        help="JSON scenario config (defaults to a diagonal model)")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="output directory for report.json and CSV tables")
    parser.add_argument("--order", choices=ORDERS, default=None,
                        help="override the perturbative order")
    parser.add_argument("--eta", type=float, default=None,
                        help="override the regularisation parameter")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the RNG seed")
    return parser


# Built once: main parses every call with it, and a parse leaves it unchanged.
_PARSER = build_parser()


def _summary(report: RunReport) -> str:
    p = report.payload
    if report.scenario == "classify":
        cells = " ".join(f"{k}={v}" for k, v in p["verdicts"].items())
        return f"{p['kind']} [{p['interaction_row']}]: {cells}"
    if report.scenario == "evolve":
        return (f"fidelity deviation {p['fidelity_max_deviation']:.3e}, "
                f"kinetic residual {p['kinetic_consistency_residual']:.3e}")
    if report.scenario == "swap-calibrate":
        ex = p["exact"]
        return (f"delta_t {ex['delta_t']:+.6g} (E0/dE {ex['E0_over_dE']:.6g}), "
                f"residual {ex['residual']:.3e}")
    if report.scenario == "cnot-demo":
        return (f"closed={p['closed']}, involution residual "
                f"{p['involution_residual']:.3e}")
    if report.scenario == "turing-demo":
        return (f"circle residual {p['bloch_circle_residual']:.3e}, "
                f"recomposition gap {p['recomposition_gap']:.3e}")
    return f"{p['passed']}/{p['total']} checks passed"


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        raw = {"model": dict(DEFAULT_MODEL)} if args.config is None else read_config(args.config)
        raw["scenario"] = args.scenario
        for key in ("order", "eta", "seed"):
            if getattr(args, key) is not None:
                raw[key] = getattr(args, key)
        config = load_config(raw)
    except ConfigError as exc:
        print(f"subdyn: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = args.out or pathlib.Path(os.environ.get("SUBDYN_OUTPUT_ROOT", "runs")) / args.scenario
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        # a run that fails leaves no report of an earlier run behind
        for name in (REPORT_NAME, METADATA_NAME):
            (out_dir / name).unlink(missing_ok=True)
        # an overflowing or undefined float operation is a numerical failure,
        # not a warning beside a report of infs and nans; the package's
        # numerical errors and numpy's LinAlgError are ValueErrors
        with np.errstate(over="raise", invalid="raise"):
            report = run(config, out_dir)
    except OSError as exc:
        print(f"subdyn: cannot write {out_dir}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, FloatingPointError) as exc:
        print(f"subdyn: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    print(f"{args.scenario}: {_summary(report)}")
    print(f"report: {out_dir / REPORT_NAME}")
    if args.scenario == "verify" and report.payload["failed"] > 0:
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
