"""subdyn benchmark: seeded scenario workloads run through subdyn.cli.main.

    python3 perfbench/run.py --workload sweep-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One run is one process and one workload, a closed loop with a single client:
the next op starts when the last one has finished and been checked. An op is
one in-process call of subdyn.cli.main on a config file generated from the
seed; it writes report.json and its CSVs into a scratch directory that the
run removes at the end. BLAS runs on one thread, pinned before numpy
loads.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same ops with
span wrappers (tracer.py) and prints the per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
--workload all runs every workload, untraced then traced, each in a fresh
process, and prints a summary with the tracing overhead.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import typing

T0 = time.perf_counter()

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread on every workload: on a shared 2-vCPU host two threads ran
# the exact route 1.5-2x faster but swung run to run several times as much
# (README, "BLAS threads").
BLAS_THREADS = 1
SETUP_PASSES = 2

from workloads import WORKLOADS, Op, build_deck  # noqa: E402  (stdlib only)

# Metrics in the result line, as BENCHMARK.json lists them. The run also
# prints failed_ratio and the evolve, verify and swap-calibrate means, which
# not every workload has.
END_TO_END = ("setup_s", "op_s.p50", "op_s.tail", "ops_per_s", "cpu_s_per_op",
              "peak_rss_mb", "classify_s.mean")
SCENARIO_MEANS = ("classify", "evolve", "verify", "swap-calibrate")
DENSE_SPANS = ("subdynamics.decompose", "subdynamics.evolve_exact", "linalg.expm_action",
               "runner.run")
PER_LAYER = (
    "subdynamics.decompose.exact.self_s", "subdynamics.decompose.o1.self_s",
    "subdynamics.decompose.o2.self_s", "subdynamics.decompose.alloc_peak_mb",
    "subdynamics.evolve_exact.self_s", "subdynamics.evolve_exact.alloc_peak_mb",
    "linalg.expm_action.self_s", "linalg.commutator_superop.self_s",
    "subdynamics.similarity_residual.self_s",
    "subdynamics.kinetic_consistency_residual.self_s",
    "subdynamics.Decomposition.projector_sum.self_s", "runner.run.self_s",
    "classify.total_space_evidence.self_s", "classify.fidelity.calls",
    "linalg.sqrtm_psd.calls", "linalg.sqrtm_psd.self_s", "linalg.eig.calls",
    "linalg.eig.self_s", "subdynamics.evolve_grid.self_s",
    "subdynamics.project_density.self_s", "classify.fidelity_trace.self_s",
    "gates.calibrate_timing.calls", "gates.calibrate_timing.self_s",
    "gates.calibrate_timing.homogeneous_share", "gates.build_cnot_rls.self_s",
    "turing.step.calls", "turing.decompose_entangled.self_s",
    "config.load_config.self_s", "models.build_model.self_s",
    "report.write_report.self_s", "cli.main.self_s",
)
TRACE_EXTRAS = ("report.bytes_written", "bench.traced_ops_per_s", "bench.dense_share")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def process_age_s() -> float:
    """Seconds since this process started, at clock-tick resolution."""
    try:
        fields = pathlib.Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME) - started)
    except (OSError, ValueError, IndexError):
        return time.perf_counter() - T0


def blas_runtime() -> dict:
    """Name, version and live thread count of the BLAS numpy loaded."""
    import ctypes

    import numpy as np

    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name", "unknown"), version=blas.get("version", "unknown"))
    except (KeyError, TypeError):
        pass
    try:
        maps = pathlib.Path("/proc/self/maps").read_text().split("\n")
    except OSError:
        maps = []
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def environment() -> dict:
    import numpy
    import scipy

    try:
        mem = pathlib.Path("/proc/meminfo").read_text().split("\n")[0].split()
        ram_gb = round(int(mem[1]) / 2**20, 2)
    except (OSError, IndexError, ValueError):
        ram_gb = None
    return {"nproc": len(os.sched_getaffinity(0)), "ram_gb": ram_gb,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_runtime(),
            "blas_threads_requested": BLAS_THREADS, "machine": platform.machine()}


def _cpu_s() -> float:
    """User + system CPU seconds of this process, BLAS threads included."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class OpRunner:
    """Runs ops through subdyn.cli.main and checks what each one wrote."""

    def __init__(self, cli, check_op, work: pathlib.Path):
        self.cli = cli
        self.check_op = check_op
        self.work = work
        self.first_bytes: dict[str, bytes] = {}

    def config_path(self, op: Op) -> pathlib.Path:
        return self.work / "configs" / f"{op.config_id}.json"

    def write_configs(self, deck) -> None:
        (self.work / "configs").mkdir(parents=True, exist_ok=True)
        for op in deck:
            self.config_path(op).write_text(json.dumps(op.config, sort_keys=True))

    def run(self, op: Op):
        """Returns (wall seconds, CPU seconds, failure or None, bytes written)."""
        out = self.work / "out" / op.config_id
        report = out / "report.json"
        report.unlink(missing_ok=True)
        argv = [op.op_type.scenario, "--config", str(self.config_path(op)), "--out", str(out)]
        sink = io.StringIO()
        cpu0 = _cpu_s()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(argv)
        except Exception as exc:  # an op that raises is a failed op, not a dead run
            elapsed = time.perf_counter() - started
            return elapsed, _cpu_s() - cpu0, f"exception: {type(exc).__name__}: {exc}", 0
        elapsed = time.perf_counter() - started
        cpu = _cpu_s() - cpu0
        try:
            blob = report.read_bytes()
        except OSError:
            blob = None
        failure = self.check_op(op, code, blob, self.first_bytes)
        if failure and code != 0:
            failure += f" ({sink.getvalue().strip()[-200:]})"
        written = sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0
        return elapsed, cpu, failure, written


class Record(typing.NamedTuple):
    """One timed op: wall seconds of the call, of the whole loop turn (call,
    checks and clean-up) and of process CPU during the call."""

    key: str
    seconds: float
    turn_s: float
    cpu_s: float
    failure: str | None
    written: int


def weighted_quantile(records, counts: dict[str, int], q: float) -> float:
    """Quantile q of op seconds over the designed mix.

    Each op is weighted by its type's designed count over the number of ops
    of that type that ran, so a partly run deck cycle does not move it.
    """
    ran = collections.Counter(r.key for r in records)
    pairs = sorted((r.seconds, counts[r.key] / ran[r.key]) for r in records)
    goal = q * sum(w for _, w in pairs)
    total = 0.0
    for seconds, w in pairs:
        total += w
        if total >= goal:
            return seconds
    return pairs[-1][0]


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten of n samples beyond it."""
    return 100.0 * max(n - 10, 1) / n


def mix_mean(records, counts: dict[str, int], field: str, scenario: str | None = None):
    """Mean of a record field over the designed mix: per-type means weighted
    by the designed counts of the types that ran. Returns (mean, ops used)."""
    by_type: dict[str, list[float]] = {}
    for r in records:
        if scenario is None or r.key.startswith(scenario + "/"):
            by_type.setdefault(r.key, []).append(getattr(r, field))
    if not by_type:
        return None, 0
    total = sum(counts[k] for k in by_type)
    mean = sum(counts[k] * statistics.fmean(v) for k, v in by_type.items()) / total
    return mean, sum(len(v) for v in by_type.values())


def measure(args, workload) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import subdyn.cli as cli
    except ImportError as exc:
        print(f"perfbench: cannot import subdyn from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not pathlib.Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: subdyn resolved outside the checkout: {cli.__file__}",
              file=sys.stderr)
        return 2
    from checks import check_op

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    ready_s = process_age_s()

    work = OUT_ROOT / f"{workload.name}-{os.getpid()}"
    runner = OpRunner(cli, check_op, work)
    try:
        return timed_run(args, workload, runner, ready_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def end_to_end_metrics(records, setup_s, counts):
    """Every end-to-end metric, printed with its unit and sample count."""
    attempted = len(records)
    failed = sum(1 for r in records if r.failure)
    tail_pct = tail_percentile(attempted)
    turn, _ = mix_mean(records, counts, "turn_s")
    cpu, _ = mix_mean(records, counts, "cpu_s")
    metrics = {"setup_s": (setup_s, "s", f"{SETUP_PASSES} passes"),
               "op_s.p50": (weighted_quantile(records, counts, 0.5), "s", f"n={attempted}"),
               "op_s.tail": (weighted_quantile(records, counts, tail_pct / 100), "s",
                             f"n={attempted}, p{tail_pct:.1f}"),
               "ops_per_s": ((attempted - failed) / attempted / turn, "1/s",
                             f"n={attempted - failed} passed of {attempted}"),
               "cpu_s_per_op": (cpu, "s", f"n={attempted}"),
               "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                               "ru_maxrss"),
               "failed_ratio": (failed / attempted, "ratio", f"{failed} of {attempted}")}
    for scenario in SCENARIO_MEANS:
        mean, n = mix_mean(records, counts, "seconds", scenario)
        if mean is not None:
            metrics[f"{scenario}_s.mean"] = (mean, "s", f"n={n}")
    for name, (value, unit, note) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} ({note})")
    return {name: (value, unit) for name, (value, unit, _) in metrics.items()}


def traced_metrics(tracer, workload, records, counts):
    """Per-layer metrics from the spans, plus the traced throughput."""
    import tracer as tracing

    ops = len(records)
    ok = sum(1 for r in records if not r.failure)
    throughput = ok / ops / mix_mean(records, counts, "turn_s")[0]
    metrics = tracing.layer_metrics(tracer, ops, PER_LAYER)
    metrics["report.bytes_written"] = (sum(r.written for r in records) / ops, "bytes/op")
    metrics["bench.traced_ops_per_s"] = (throughput, "1/s")
    dense = tracing.layer_metrics(tracer, ops, [f"{s}.self_s" for s in DENSE_SPANS])
    metrics["bench.dense_share"] = (sum(v for v, _ in dense.values())
                                    / statistics.fmean(r.seconds for r in records), "ratio")
    OUT_ROOT.mkdir(exist_ok=True)
    tracer.dump(OUT_ROOT / f"spans-{workload.name}.npz")
    untraced = OUT_ROOT / f"last-{workload.name}.json"
    if untraced.exists():
        base = json.loads(untraced.read_text())["ops_per_s"]
        print(f"tracing overhead: traced {throughput:.4g} ops/s against untraced "
              f"{base:.4g} ops/s (x{base / throughput:.3f})")
    return metrics


def timed_run(args, workload, runner: OpRunner, ready_s: float) -> int:
    # Set-up, repeated: config generation plus one warm-up op per op type.
    setup_failures = []
    pass_s = []
    for _ in range(SETUP_PASSES):
        started = time.perf_counter()
        deck, type_counts = build_deck(workload, args.seed)
        runner.write_configs(deck)
        seen = set()
        for op in deck:
            if op.op_type.key not in seen:
                seen.add(op.op_type.key)
                failure = runner.run(op)[2]
                if failure:
                    setup_failures.append(f"{op.op_type.key} {op.config_id}: {failure}")
        pass_s.append(time.perf_counter() - started)
    setup_s = ready_s + statistics.median(pass_s)

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    records: list[Record] = []
    started = time.perf_counter()
    while time.perf_counter() - started < args.seconds:
        op = deck[len(records) % len(deck)]
        if tracer is not None:
            tracer.op_id = len(records)
        turn = time.perf_counter()
        seconds, cpu, failure, written = runner.run(op)
        if tracer is not None:
            tracer.op_id = -1
        records.append(Record(op.op_type.key, seconds, time.perf_counter() - turn, cpu,
                              failure, written))
    elapsed = time.perf_counter() - started

    attempted = len(records)
    failures = [(r.key, r.failure) for r in records if r.failure]
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops in {elapsed:.2f} s, deck of {len(deck)} configs, "
          f"setup passes {[round(s, 3) for s in pass_s]}")
    by_type: dict[str, list[float]] = {}
    for r in records:
        by_type.setdefault(r.key, []).append(r.seconds)
    for key, samples in sorted(by_type.items(), key=lambda kv: statistics.median(kv[1])):
        print(f"type {key}: n={len(samples)} median {statistics.median(samples):.4g} s")
    for line in setup_failures:
        print(f"setup failure: {line}")
    for key, failure in failures[:20]:
        print(f"failed op: {key}: {failure}")

    if args.trace:
        metrics = traced_metrics(tracer, workload, records, type_counts)
        reported = PER_LAYER + TRACE_EXTRAS
        for name, (value, unit) in metrics.items():
            print(f"metric {name} = {value:.6g} {unit}")
    else:
        metrics = end_to_end_metrics(records, setup_s, type_counts)
        reported = END_TO_END
        OUT_ROOT.mkdir(exist_ok=True)
        (OUT_ROOT / f"last-{workload.name}.json").write_text(
            json.dumps({"seed": args.seed, "ops_per_s": metrics["ops_per_s"][0]}))

    result = {"correct": not failures and not setup_failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                          for name in reported}}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    summary = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write("".join(f"[{name} trace={trace}] {line}\n"
                                     for line in proc.stdout.splitlines()[:-1]))
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            summary[(name, trace)] = json.loads(proc.stdout.splitlines()[-1])
    print("tracing overhead (untraced ops/s / traced ops/s):")
    for name in WORKLOADS:
        base = summary[(name, 0)]["metrics"]["ops_per_s"]["value"]
        traced = summary[(name, 1)]["metrics"]["bench.traced_ops_per_s"]["value"]
        print(f"  {name}: x{base / traced:.3f}")
    correct = all(r["correct"] for r in summary.values())
    attempted = sum(r["attempted"] for (_, t), r in summary.items() if t == 0)
    failed = sum(r["failed"] for (_, t), r in summary.items() if t == 0)
    metrics = {f"{name}.{k}": v for (name, t), r in summary.items() if t == 0
               for k, v in r["metrics"].items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return measure(args, workload)


if __name__ == "__main__":
    sys.exit(main())
