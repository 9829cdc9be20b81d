"""Span tracing for the benchmark's traced run.

Inside ``with Tracer() as tracer:`` each function in ``TRACED`` is swapped,
in this process only, for a wrapper that records a span (name, start, end,
parent) in memory; leaving the block restores the originals.  No file
under ``src/`` changes.  The swapped names are the module attributes that
copstat's own callers and the workloads look up at call time, so spans
nest as the calls do.

A layer's self time is its span durations minus the time its child spans
cover.  ``layer_metrics`` turns the spans into the per-layer metrics named
in ``BENCHMARK.json``.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np
from copstat import cli, copula_core, experiments, independence, metrics, statistic
from copstat.statistic import NON_DECREASING


def _flagged_boundaries(part) -> int:
    """Run boundaries detect_local_optima flagged.

    Runs alternate direction, so the boundary after a non-decreasing run
    is flagged exactly when that run carries local_opt_max, and after a
    non-increasing run when it carries local_opt_min.
    """
    return sum(
        run.local_opt_max if run.direction == NON_DECREASING else run.local_opt_min
        for run in part.runs[:-1]
    )


def _count_runs(report, counts):
    counts["runs"] += report.m


def _count_flags(part, counts):
    counts["flagged"] += _flagged_boundaries(part)


#: (owner, attribute, span name, observer of the return value).
#: cdf_many is swapped on the class, so it shows both under copula_trace
#: and under kendall_mv; the metrics keep the two apart by parent.
TRACED = (
    (independence, "derive_rng", "synth.derive_rng", None),
    (experiments, "derive_rng", "synth.derive_rng", None),
    (independence, "sample_copula", "synth.draw", None),
    (experiments, "gen_dependency", "synth.draw", None),
    (experiments, "sample_gaussian_copula", "synth.draw", None),
    (experiments, "sample_gumbel_copula", "synth.draw", None),
    (experiments, "sample_clayton_copula", "synth.draw", None),
    (statistic, "pseudo_observations", "copula_core.pseudo_observations", None),
    (metrics, "pseudo_observations", "copula_core.pseudo_observations", None),
    (copula_core.EmpiricalCopula, "cdf_many", "copula_core.cdf_many", None),
    (statistic, "relative_distance", "copula_core.relative_distance", None),
    (statistic, "copula_trace", "statistic.copula_trace", None),
    (statistic, "partition_domains", "statistic.partition_domains", None),
    (statistic, "detect_local_optima", "statistic.detect_local_optima", _count_flags),
    (statistic, "copula_statistic", "statistic.copula_statistic", _count_runs),
    (independence, "copula_statistic", "statistic.copula_statistic", _count_runs),
    (experiments, "copula_statistic", "statistic.copula_statistic", _count_runs),
    (cli, "copula_statistic", "statistic.copula_statistic", _count_runs),
    (independence, "null_moments", "independence.null_moments", None),
    (independence, "test_independence", "independence.test_independence", None),
    (independence, "type2_error", "independence.type2_error", None),
    (experiments, "run_bias_table", "experiments.run_bias_table", None),
    (experiments, "run_power", "experiments.run_power", None),
    (metrics, "kendall_mv", "metrics.kendall_mv", None),
    (cli, "main", "cli.main", None),
    (cli, "read_csv", "cli.read_csv", None),
)


class Tracer:
    """In-memory span recorder; a context manager that installs TRACED."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._undo: list[tuple] = []

    def wrap(self, fn, name: str, observe=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        stack, counts, clock = self._stack, self.counts, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(out, counts)
            return out

        return traced

    def __enter__(self) -> "Tracer":
        for owner, attr, name, observe in TRACED:
            original = getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, observe))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.intc),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.intc),
        }

    def save(self, path: Path) -> None:
        """Write the spans out, one array per field."""
        np.savez_compressed(path, **self.arrays())


class _Spans:
    """Per-name inclusive and self times over a tracer's spans, in ns."""

    def __init__(self, tracer: Tracer) -> None:
        a = tracer.arrays()
        self.names = list(tracer.names)
        self.nid = a["name_id"]
        self.dur = (a["end_ns"] - a["start_ns"]).astype(float)
        parent = a["parent"]
        has = parent >= 0
        covered = np.bincount(parent[has], weights=self.dur[has], minlength=self.dur.size)
        self.self_t = self.dur - covered
        self.parent_nid = np.where(has, self.nid[np.where(has, parent, 0)], -1)

    def _mask(self, name: str, parent: str | None = None) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.nid.size, dtype=bool)
        mask = self.nid == self.names.index(name)
        if parent is not None:
            pid = self.names.index(parent) if parent in self.names else -2
            mask &= self.parent_nid == pid
        return mask

    def calls(self, name: str, parent: str | None = None) -> int:
        return int(self._mask(name, parent).sum())

    def inclusive(self, name: str, parent: str | None = None) -> float:
        return float(self.dur[self._mask(name, parent)].sum())

    def self_time(self, name: str, parent: str | None = None) -> float:
        return float(self.self_t[self._mask(name, parent)].sum())

    def per_call(self, total: float, name: str, parent: str | None = None) -> float:
        calls = self.calls(name, parent)
        return total / calls if calls else 0.0


STAGES = (
    "copula_core.pseudo_observations",
    "statistic.copula_trace",
    "statistic.partition_domains",
    "statistic.detect_local_optima",
)

#: Layers reported as mean self time per call: span name -> (metric, unit).
SELF_TIMES = {
    "synth.derive_rng": ("synth.derive_rng_us", "us"),
    "synth.draw": ("synth.draw_us", "us"),
    "copula_core.pseudo_observations": ("copula_core.pseudo_observations_ms", "ms"),
    "copula_core.relative_distance": ("copula_core.relative_distance_us", "us"),
    "statistic.partition_domains": ("statistic.partition_domains_ms", "ms"),
    "statistic.detect_local_optima": ("statistic.detect_local_optima_ms", "ms"),
    "independence.null_moments": ("independence.null_moments_ms", "ms"),
    "independence.test_independence": ("independence.test_independence_ms", "ms"),
    "independence.type2_error": ("independence.type2_error_ms", "ms"),
    "experiments.run_bias_table": ("experiments.run_bias_table_ms", "ms"),
    "experiments.run_power": ("experiments.run_power_ms", "ms"),
    "metrics.kendall_mv": ("metrics.kendall_mv_ms", "ms"),
    "cli.read_csv": ("cli.read_csv_ms", "ms"),
    # cli.main's children are read_csv and copula_statistic, so its self
    # time is argument parsing plus building and writing the JSON output
    "cli.main": ("cli.emit_ms", "ms"),
}

_SCALE = {"us": 1e-3, "ms": 1e-6}


def layer_metrics(
    tracer: Tracer, cycles: int, untraced_s: float, traced_s: float, op_counts: dict
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced pass of `cycles` whole cycles.

    Counts are per cycle (`op_counts` already is), so they repeat exactly
    for a given seed.
    """
    sp = _Spans(tracer)
    out: dict[str, tuple[float, str]] = {}
    for span, (metric, unit) in SELF_TIMES.items():
        out[metric] = (sp.per_call(sp.self_time(span), span) * _SCALE[unit], unit)

    kendall = "metrics.kendall_mv"
    out["copula_core.cdf_many_ms"] = (
        sp.per_call(sp.inclusive("copula_core.cdf_many", kendall), "copula_core.cdf_many", kendall)
        * 1e-6, "ms")
    stat = "statistic.copula_statistic"
    stat_ns = sp.inclusive(stat)
    evaluations = sp.calls(stat)
    stage_ns = sum(sp.inclusive(s, stat) for s in STAGES)
    trace_ns = sp.inclusive("statistic.copula_trace")
    out["statistic.copula_trace_ms"] = (sp.per_call(trace_ns, "statistic.copula_trace") * 1e-6, "ms")
    out["statistic.score_ms"] = (sp.per_call(stat_ns - stage_ns, stat) * 1e-6, "ms")
    out["statistic.copula_statistic_ms"] = (sp.per_call(stat_ns, stat) * 1e-6, "ms")
    out["statistic.trace_share"] = (trace_ns / stat_ns if stat_ns else 0.0, "ratio")
    out["statistic.evaluations"] = (evaluations / cycles, "count")
    out["statistic.runs_per_sample"] = (
        tracer.counts["runs"] / evaluations if evaluations else 0.0, "count")
    out["statistic.flagged_boundaries"] = (tracer.counts["flagged"] / cycles, "count")
    out["copula_core.relative_distance_calls"] = (
        sp.calls("copula_core.relative_distance") / cycles, "count")
    out["cli.output_bytes"] = (op_counts.get("cli.output_bytes", 0), "count")
    out["trace.untraced_s"] = (untraced_s, "s")
    out["trace.overhead_share"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    return out
