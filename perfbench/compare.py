"""Compare two sets of benchmark results: parent and change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result files that ``run.py --trace 0`` wrote.  The
report has one row per workload and end-to-end metric: each side's median
and quartiles, the pairs the change won, and a verdict.  Runs pair up in
seed order.  The rules:

- improved: the change wins at least 9 in 10 pairs (ties count for
  neither) and the medians differ, in the better direction, by more than
  the distance between the parent's quartiles;
- unresolved: either side's quartile spread, as a share of its median, is
  wider than the metric's bound, unless every change run reads better than
  every parent run (then no worse);
- worse: the change's median is worse than the parent's by more than the
  bound, as a share of the parent's median;
- no worse: otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def load(directory) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values of the untraced runs, in seed order."""
    runs = []
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        if rec.get("trace") == 0:
            runs.append((rec["stamp"]["seed"], path.name, rec))
    out: dict[tuple[str, str], list[float]] = {}
    for _, _, rec in sorted(runs, key=lambda r: r[:2]):
        for name, m in rec["metrics"].items():
            out.setdefault((rec["workload"], name), []).append(m["value"])
    return out


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better: str, bound: float) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    spread = max((p3 - p1) / pm, (c3 - c1) / cm)
    if wins >= 0.9 * len(pairs) and sign * (cm - pm) > p3 - p1:
        word = "improved"
    elif spread > bound:
        beats_all = min(sign * c for c in change) > max(sign * p for p in parent)
        word = "no worse" if beats_all else "unresolved"
    elif sign * (cm - pm) < -bound * pm:
        word = "worse"
    else:
        word = "no worse"
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3), "wins": wins,
            "pairs": len(pairs), "spread": spread, "verdict": word}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    parent, change = load(argv[0]), load(argv[1])
    print(f"{'workload':22s} {'metric':16s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'wins':>7s}  verdict")
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            key = (w["name"], m["name"])
            if key not in parent or key not in change:
                print(f"{key[0]:22s} {key[1]:16s} missing")
                continue
            v = verdict(parent[key], change[key], m["better"], m["bound"])
            parent_q, change_q = (f"{med:.5g} [{q1:.5g}, {q3:.5g}]"
                                  for q1, med, q3 in (v["parent"], v["change"]))
            wins = f"{v['wins']}/{v['pairs']}"
            print(f"{key[0]:22s} {key[1]:16s} {parent_q:>32s} {change_q:>32s} {wins:>7s}  {v['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
