"""Cross-check of the ROADMAP grounding table: general kind at d = 16, 32, 48.

    python3 perfbench/crosscheck.py [--threads 2]

Each dimension runs in its own process (so ru_maxrss is that dimension's
peak): an untimed warm-up of the three classify ops and of one verify at
d = 16 (a verify at d = 48 takes most of a minute), then one traced pass of
classify at orders exact, 1 and 2 and one verify, all through
subdyn.cli.main. Decompose times are the durations of the
subdynamics.decompose spans inside the classify ops. Prints a markdown
table next to the ROADMAP figures.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import random
import resource
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

# ROADMAP.md "Grounding" table: decompose exact / o1 / o2, classify, verify, peak RSS.
ROADMAP = {16: ("0.02 / 0.02 / 0.07 s", "0.03 s", "0.11 s", "0.1 GB"),
           32: ("0.15 / 0.15 / 0.33 s", "0.24 s", "4–5 s", "0.33 GB"),
           48: ("0.99 / 1.03 / 3.45 s", "0.86 s", "44 s", "1.2 GB")}


def measure_dim(dim: int) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy as np

    import subdyn.cli as cli
    import tracer as tracing
    from run import OpRunner
    from checks import check_op
    from workloads import Op, OpType, model_spec

    work = ROOT / ".perfbench_out" / f"crosscheck-{dim}-{os.getpid()}"
    runner = OpRunner(cli, check_op, work)

    def op(scenario, order, d=dim):
        model = model_spec("general", d, random.Random(0))
        model["lam"] = 0.05
        config = {"scenario": scenario, "model": model, "order": order, "eta": 0.0, "seed": 7}
        return Op(OpType(scenario, "general", d, order), f"{scenario}-{order}-{d}", config)

    plan = [op("classify", "exact"), op("classify", "1"), op("classify", "2"),
            op("verify", "exact")]
    warm = plan[:3] + [op("verify", "exact", 16)]
    try:
        runner.write_configs(plan + warm)
        for item in warm:
            runner.run(item)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        result = {}
        for index, item in enumerate(plan):
            tracer.op_id = index
            seconds, _, failure, _ = runner.run(item)
            tracer.op_id = -1
            result[f"{item.op_type.scenario}-{item.op_type.order}"] = seconds
            if failure:
                result.setdefault("failures", []).append(f"{item.config_id}: {failure}")
        names = np.asarray(tracer.names)[np.asarray(tracer.name_id)]
        dur = np.asarray(tracer.end) - np.asarray(tracer.start)
        ops = np.asarray(tracer.op)
        for variant, index in (("exact", 0), ("o1", 1), ("o2", 2)):
            mask = (names == f"subdynamics.decompose.{variant}") & (ops == index)
            result[f"decompose-{variant}"] = float(dur[mask].sum())
        result["peak_rss_gb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 2**20
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threads", type=int, default=2)
    parser.add_argument("--dim", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dim is not None:
        print(json.dumps(measure_dim(args.dim)))
        return 0
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(args.threads),
               OMP_NUM_THREADS=str(args.threads), MKL_NUM_THREADS=str(args.threads))
    print(f"General kind, one traced pass per d, BLAS threads {args.threads}.\n")
    print("| d | decompose exact / o1 / o2 | classify (exact) | verify | peak RSS |")
    print("|---|---|---|---|---|")
    for dim in (16, 32, 48):
        proc = subprocess.run([sys.executable, __file__, "--dim", str(dim)], env=env,
                              capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        r = json.loads(proc.stdout.splitlines()[-1])
        dec, cls, ver, rss = ROADMAP[dim]
        print(f"| {dim} | {r['decompose-exact']:.3f} / {r['decompose-o1']:.3f} / "
              f"{r['decompose-o2']:.3f} s (ROADMAP {dec}) | {r['classify-exact']:.3f} s "
              f"(ROADMAP {cls}) | {r['verify-exact']:.2f} s (ROADMAP {ver}) | "
              f"{r['peak_rss_gb']:.2f} GB (ROADMAP {rss}) |")
        for failure in r.get("failures", []):
            print(f"failed op at d={dim}: {failure}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
