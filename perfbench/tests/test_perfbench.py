"""Tests of the benchmark itself, at small sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced one-cycle runs per workload with the same seed."""
    return {w: [run.run_benchmark(w, 7, 0, True, small=True)[0] for _ in range(2)]
            for w in run.WORKLOADS}


def test_workload_names_match_spec():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS
    assert tuple(workloads.BUILDERS) == run.WORKLOADS


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_emitted_with_unit(traced_runs, workload):
    rec = traced_runs[workload][0]
    for kind, emitted in (("end_to_end", rec["metrics"]), ("per_layer", rec["per_layer"])):
        assert {m["name"]: m["unit"] for m in SPEC[kind]} == {
            name: m["unit"] for name, m in emitted.items()}
    assert rec["failed"] == 0 and rec["attempted"] >= 1


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_repeats_digest_and_counts(traced_runs, workload):
    first, second = traced_runs[workload]
    assert first["output_digest"] == second["output_digest"]
    assert first["counts"] == second["counts"]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert counts
    for name in counts:
        assert first["per_layer"][name] == second["per_layer"][name], name


def test_seed_is_an_argument():
    with pytest.raises(SystemExit):
        run.parse_args(["--workload", "multivariate_ties", "--seconds", "1"])
    assert run.parse_args(["--workload", "multivariate_ties", "--seed", "5",
                           "--seconds", "1"]).seed == 5
    digests = {run.run_benchmark("multivariate_ties", s, 0, False, small=True)[0]["output_digest"]
               for s in (1, 2)}
    assert len(digests) == 2


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("results", "_work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "mc_pipelines",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    noisy = [50.0, 150.0] * 5
    assert compare.verdict(parent, faster, "lower", 0.1)["verdict"] == "improved"
    assert compare.verdict(parent, slower, "lower", 0.1)["verdict"] == "worse"
    assert compare.verdict(parent, list(parent), "lower", 0.1)["verdict"] == "no worse"
    assert compare.verdict(parent, noisy, "lower", 0.1)["verdict"] == "unresolved"
    assert compare.verdict(parent, faster, "higher", 0.1)["verdict"] == "worse"
