"""copstat benchmark: one command, one process, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the benchmark imports copstat from ``src/`` next to this
directory and exits with code 2 when it is missing.  Workloads are in
``workloads.py``; their metrics, bounds and reasons in ``BENCHMARK.json``.

A run sets the workload up three times (this process, then two fresh
interpreters), reports the median set-up time, then repeats the workload's
cycle of operations, one at a time, until ``--seconds`` have passed,
always finishing the cycle it is in.  Every output is checked; a failed
check or an exception counts as a failed operation.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
number of cycles again with span tracing on and reports the per-layer
metrics, including the tracing overhead.  Each run writes a stamped result
file, and the traced run its spans, under ``perfbench/results/``; the last
line of standard output is the JSON summary.  ``compare.py`` compares two
directories of result files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "_work"

WORKLOADS = ("mc_pipelines", "large_bivariate_cli", "multivariate_ties")
SETUP_REPEATS = 3

# A fresh interpreter's set-up: import, input generation and warm-up.
_SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import run; "
    "print(run.timed_setup(sys.argv[2], int(sys.argv[3]), sys.argv[4], sys.argv[5] == '1')[0])"
)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int, help="workload seed; inputs derive from it")
    p.add_argument("--seconds", required=True, type=float, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def timed_setup(workload: str, seed: int, workdir, small: bool):
    """Import copstat, build the workload's inputs and warm it up; the
    first element of the result is the seconds that took."""
    t0 = time.perf_counter()
    import workloads

    ops = workloads.setup(workload, seed, Path(workdir), small)
    return time.perf_counter() - t0, ops


def _probe_setup(workload: str, seed: int, small: bool, i: int) -> float:
    workdir = WORK / f"{workload}-{os.getpid()}-probe{i}"
    try:
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(HERE), workload, str(seed),
             str(workdir), "1" if small else "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return float(done.stdout.strip().splitlines()[-1])


@dataclass
class Pass:
    """What one pass over whole cycles measured and checked."""

    cycles: int = 0
    attempted: int = 0
    failed: int = 0
    evaluations: int = 0
    latencies: list = field(default_factory=list)
    outputs: list = field(default_factory=list)  # rounded outputs of the first cycle
    counts: dict = field(default_factory=dict)  # counts of the first cycle
    busy_s: float = 0.0


def run_cycles(ops, refs, seconds: float | None = None, cycles: int | None = None) -> Pass:
    """Closed loop over the cycle until `seconds` have passed or `cycles`
    cycles are done.  Only the operation itself is timed."""
    import workloads

    res = Pass()
    t_start = time.perf_counter()
    while True:
        for i, (op, ref) in enumerate(zip(ops, refs)):
            res.attempted += 1
            values, counts = ("failed",), {}
            t0 = time.perf_counter()
            try:
                out = op.run()
                dt = time.perf_counter() - t0
                res.latencies.append(dt)
                res.busy_s += dt
                values, counts = op.check(out, ref)
                if res.cycles and [op.label, *values] != res.outputs[i]:
                    raise workloads.CheckFailed("output differs from the first cycle")
                res.evaluations += op.evaluations
            except workloads.CheckFailed as exc:
                print(f"check failed: {op.label}: {exc}", file=sys.stderr)
                res.failed += 1
            except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
                traceback.print_exc()
                res.failed += 1
            if res.cycles == 0:
                res.outputs.append([op.label, *values])
                for k, v in counts.items():
                    res.counts[k] = res.counts.get(k, 0) + v
        res.cycles += 1
        if cycles is not None:
            if res.cycles >= cycles:
                return res
        elif time.perf_counter() - t_start >= seconds:
            return res


def end_to_end(setup_times, res: Pass) -> dict:
    lat_ms = sorted(1e3 * x for x in res.latencies)
    p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8] if len(lat_ms) > 1 else lat_ms[0]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "latency_ms_p50": (statistics.median(lat_ms), "ms"),
        "latency_ms_p90": (p90, "ms"),
        "samples_per_s": (res.evaluations / res.busy_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _digest(outputs) -> str:
    return hashlib.sha256(json.dumps(outputs).encode()).hexdigest()[:16]


def _commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _source_sha256() -> str:
    """Digest of the library sources, which identifies the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "copstat").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _stamp(seed: int, load_before, load_after) -> dict:
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0))
    busy = max(load_before[0], load_after[0]) > nproc
    if busy:
        print(f"warning: load average {load_before[0]:.2f} -> {load_after[0]:.2f} "
              f"exceeds nproc {nproc}; timings are suspect", file=sys.stderr)
    return {
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "seed": seed,
        "loadavg_before": list(load_before),
        "loadavg_after": list(load_after),
        "load_exceeds_nproc": busy,
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, small: bool = False):
    """One run; returns (result record, tracer or None)."""
    load_before = os.getloadavg()
    workdir = WORK / f"{workload}-{os.getpid()}"
    try:
        setup_s, ops = timed_setup(workload, seed, workdir, small)
        setup_times = [setup_s] + [_probe_setup(workload, seed, small, i)
                                   for i in range(1, SETUP_REPEATS)]
        refs = [op.reference() if op.reference else None for op in ops]
        plain = run_cycles(ops, refs, seconds=seconds)
        record = {
            "workload": workload,
            "trace": int(trace),
            "seconds": seconds,
            "attempted": plain.attempted,
            "failed": plain.failed,
            "error_rate": plain.failed / plain.attempted,
            "cycles": plain.cycles,
            "operations_per_cycle": len(ops),
            "latency_samples": len(plain.latencies),
            "latencies_ms": [1e3 * x for x in plain.latencies],
            "evaluations": plain.evaluations,
            "output_digest": _digest(plain.outputs),
            "outputs": plain.outputs,
            "counts": plain.counts,
            "setup_times_s": setup_times,
            "metrics": _named(end_to_end(setup_times, plain)),
        }
        tracer = None
        if trace:
            import tracing

            with tracing.Tracer() as tracer:
                traced = run_cycles(ops, refs, cycles=plain.cycles)
            record["attempted"] += traced.attempted
            record["failed"] += traced.failed
            if traced.outputs != plain.outputs:
                print("check failed: tracing changed the outputs", file=sys.stderr)
                record["failed"] += 1
            record["error_rate"] = record["failed"] / record["attempted"]
            record["per_layer"] = _named(tracing.layer_metrics(
                tracer, traced.cycles, plain.busy_s, traced.busy_s, plain.counts))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["stamp"] = _stamp(seed, load_before, os.getloadavg())
    return record, tracer


def _named(metrics: dict) -> dict:
    return {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "copstat" / "__init__.py").is_file():
        print(f"error: no copstat sources under {SRC}", file=sys.stderr)
        return 2
    record, tracer = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    if tracer is not None:
        tracer.save(RESULTS / f"{stem}-spans.npz")
        record["spans_file"] = f"{stem}-spans.npz"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    shown = record["per_layer"] if args.trace else record["metrics"]
    print(f"{args.workload} seed={args.seed}: {record['cycles']} cycle(s), "
          f"{record['latency_samples']} latency samples, {record['evaluations']} evaluations, "
          f"error_rate={record['error_rate']:.4g}, output_digest={record['output_digest']}")
    for name, m in shown.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  result file: {RESULTS.relative_to(ROOT) / (stem + '.json')}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": shown,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
