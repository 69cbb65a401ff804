"""Command line front end: one subcommand per scenario.

Exit codes: 0 success, 2 configuration rejected, 3 numerical failure
(resonance, defective matrix, or a verify run with failing checks).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Sequence

import numpy as np

from .config import SCENARIOS, ConfigError, load_config, read_config
from .linalg import DefectiveMatrixError, NotPositiveSemidefiniteError
from .report import REPORT_NAME, RunReport
from .runner import resolve_output_dir, run
from .subdynamics import ResonanceError

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
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in SCENARIOS:
        p = sub.add_parser(name, help=f"run the {name} scenario")
        p.add_argument("--config", type=pathlib.Path, default=None,
                       help="JSON scenario config (defaults to a diagonal model)")
        p.add_argument("--out", type=pathlib.Path, default=None,
                       help="output directory for report.json and CSV tables")
        p.add_argument("--order", choices=("exact", "1", "2"), default=None,
                       help="override the perturbative order")
        p.add_argument("--eta", type=float, default=None,
                       help="override the regularisation parameter")
        p.add_argument("--seed", type=int, default=None,
                       help="override the RNG seed")
        p.add_argument("--allow-large", action="store_true",
                       help="permit Hilbert space dimensions above the cap")
    return parser


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
    args = build_parser().parse_args(argv)
    try:
        raw = {"model": dict(DEFAULT_MODEL)} if args.config is None else read_config(args.config)
        raw["scenario"] = args.scenario
        if args.out is not None:
            raw["output_dir"] = str(args.out)
        if args.order is not None:
            raw["order"] = args.order
        if args.eta is not None:
            raw["eta"] = args.eta
        if args.seed is not None:
            raw["seed"] = args.seed
        if args.allow_large:
            raw["allow_large"] = True
        config = load_config(raw)
    except ConfigError as exc:
        print(f"subdyn: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        report = run(config, write=True)
    except (ResonanceError, DefectiveMatrixError, NotPositiveSemidefiniteError,
            np.linalg.LinAlgError, ValueError) as exc:
        print(f"subdyn: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    out_dir = resolve_output_dir(config)
    print(f"{args.scenario}: {_summary(report)}")
    print(f"report: {out_dir / REPORT_NAME}")
    if args.scenario == "verify" and report.payload["failed"] > 0:
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
