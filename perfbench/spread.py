"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads sweep-small ladder-exact --seeds 1 2 3 4 5

Runs perfbench/run.py once per (workload, seed), untraced, one after the
other, and prints for every metric its median and the distance between the
first and third quartiles (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound from BENCHMARK.json. --json saves the raw
values so two sets of runs can be compared with --compare.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}


def collect(workloads, seeds, seconds):
    values: dict[str, dict[str, list[float]]] = {}
    for workload in workloads:
        for seed in seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: correct=false, failed {result['failed']}")
            for name, metric in result["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    return values


def spread(samples: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=None)
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float, default=float(BENCHMARK["run_seconds"]))
    parser.add_argument("--json", type=pathlib.Path, default=None,
                        help="write the collected values here")
    parser.add_argument("--compare", type=pathlib.Path, default=None,
                        help="earlier --json file to compare medians against")
    args = parser.parse_args(argv)
    workloads = args.workloads or [w["name"] for w in BENCHMARK["workloads"]]
    values = collect(workloads, args.seeds, args.seconds)
    if args.json:
        args.json.write_text(json.dumps(values, indent=1))
    earlier = json.loads(args.compare.read_text()) if args.compare else {}
    worst = 0.0
    for workload, metrics in values.items():
        for name, samples in metrics.items():
            if name not in BOUNDS:
                continue
            share = spread(samples)
            bound = BOUNDS[name]
            line = (f"{workload:20s} {name:24s} median {statistics.median(samples):.5g} "
                    f"spread {share:.3f} bound {bound} ({share / bound:.2f} of bound)")
            if name != "setup_s":
                worst = max(worst, share / bound)
            if workload in earlier and name in earlier[workload]:
                before = statistics.median(earlier[workload][name])
                line += f" median change {statistics.median(samples) / before - 1:+.3f}"
            print(line)
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
