"""Workloads of the copstat benchmark.

A workload is a fixed cycle of operations built from the run's seed.  The
runner repeats the cycle with identical inputs, so every cycle must give
the same outputs.  Operations call copstat through its module attributes
(``independence.null_moments``, ``statistic.copula_statistic``, ...) at call
time, so the traced run sees them when it swaps those attributes.

Why these workloads:

- ``mc_pipelines``: the Monte Carlo job mix the library exists for, at
  n = 200, d = 2.  Per-run Python scoring, ``relative_distance`` validation
  and ``derive_rng`` dominate; the O(n^2) trace is a small share.
- ``large_bivariate_cli``: ``copstat cos`` on n = 5000, d = 2 CSV files from
  1 to ~3300 monotone runs.  The trace dominates; CSV parsing and the
  per-domain JSON output are a separate, visible CLI cost.
- ``multivariate_ties``: n = 2000, d = 5 with three discretised columns,
  scored by ``copula_statistic`` and ``kendall_mv``.  The only path through
  the d-general trace and tie handling.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from copstat import cli, experiments, independence, metrics, statistic  # noqa: E402
from copstat.synth import (  # noqa: E402
    DependencySpec,
    derive_rng,
    gen_dependency,
    sample_gaussian_copula,
)

#: Digits kept when rounding outputs into the run's output digest.
DIGEST_DIGITS = 9


class CheckFailed(Exception):
    """An operation's output failed the benchmark's correctness check."""


@dataclass(frozen=True)
class Op:
    """One closed-loop operation.

    run       -- performs the timed work and returns its output
    check     -- validates (output, reference) and returns the rounded values
                 that go into the output digest plus any counts, or raises
                 CheckFailed
    reference -- untimed library call giving the value `check` compares with
    """

    label: str
    evaluations: int
    run: Callable[[], object]
    check: Callable[[object, object], tuple[tuple, dict]]
    reference: Callable[[], object] | None = None


def _round(*values) -> tuple:
    return tuple(round(float(v), DIGEST_DIGITS) for v in values)


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _is_unit(v, lo_open: bool = False, hi_open: bool = False) -> bool:
    v = float(v)
    if not math.isfinite(v):
        return False
    lo = v > 0.0 if lo_open else v >= 0.0
    hi = v < 1.0 if hi_open else v <= 1.0
    return lo and hi


# ------------------------------------------------------------ mc_pipelines

BIAS_SOURCES = ("gumbel:1.26", "gauss:0.3")
BIAS_TRIALS = 500  # the pipeline's minimum; two sources give 1000 evaluations


def _check_moments(out, _ref):
    mu, sigma = out
    _require(_is_unit(mu, lo_open=True, hi_open=True), f"null mean {mu} not in (0, 1)")
    _require(math.isfinite(sigma) and sigma > 0.0, f"null sigma {sigma} not positive")
    return _round(mu, sigma), {}


def _check_rate(out, _ref):
    _require(_is_unit(out), f"type-II error {out} not in [0, 1]")
    return _round(out), {}


def _check_bias(rows, _ref):
    for row in rows:
        _require(_is_unit(row.mu, lo_open=True), f"{row.source} mean {row.mu} not in (0, 1]")
        _require(math.isfinite(row.sigma) and row.sigma > 0.0, f"{row.source} sigma not positive")
    return _round(*(v for row in rows for v in (row.mu, row.sigma))), {}


def _check_power(curve, _ref):
    _require(all(_is_unit(p) for p in curve.power), f"power {curve.power} not in [0, 1]")
    return _round(*curve.power), {}


def mc_pipelines(seed: int, workdir: Path, small: bool) -> list[Op]:
    """The four Monte Carlo pipelines at n = 200, 1000 evaluations each."""
    n = 100 if small else 200
    trials = 100 if small else 1000
    power_trials = 100 if small else 500  # null and alternative: 2 x trials
    p_grid = (1.0,)
    # warm-up at tiny sizes; the bias and power pipelines enforce minimum sizes
    independence.null_moments(50, 2, seed)
    independence.type2_error("clayton", 0.51, 50, 2, seed=seed)
    return [
        Op("null_moments", trials,
           lambda: independence.null_moments(n, trials, seed), _check_moments),
        Op("type2_error", trials,
           lambda: independence.type2_error("clayton", 0.51, n, trials, seed=seed),
           _check_rate),
        Op("run_bias_table", BIAS_TRIALS * len(BIAS_SOURCES),
           lambda: experiments.run_bias_table(list(BIAS_SOURCES), [n], BIAS_TRIALS, seed),
           _check_bias),
        Op("run_power", 2 * power_trials * len(p_grid),
           lambda: experiments.run_power("circular", "cos", power_trials, n, 0.05, p_grid, seed),
           _check_power),
    ]


# ----------------------------------------------------- large_bivariate_cli


def _cli_inputs(seed: int, n: int) -> dict[str, np.ndarray]:
    def rng(label):
        return derive_rng(seed, "perfbench", "cli", label)

    sinusoid = DependencySpec(kind="sinusoidal", p=0.3, freq=8.0)
    monotone = DependencySpec(kind="fourth_root", p=0.0)
    return {
        "independent": rng("independent").random((n, 2)),
        "noisy_sinusoid": gen_dependency(sinusoid, n, rng("sinusoid")).data,
        "gauss_0.5": sample_gaussian_copula(0.5, n, rng("gauss")).data,
        "monotone": gen_dependency(monotone, n, rng("monotone")).data,
    }


def _write_csv(path: Path, data: np.ndarray) -> None:
    header = ",".join(f"x{k}" for k in range(data.shape[1]))
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=header, comments="")


def _cli_op(label: str, data: np.ndarray, workdir: Path) -> Op:
    src = workdir / f"{label}.csv"
    out = workdir / f"{label}.json"
    _write_csv(src, data)
    argv = ["cos", str(src), "--out", str(out)]

    def check(code, ref_cos):
        _require(code == 0, f"cli exit code {code}")
        raw = out.read_bytes()
        cos = json.loads(raw)["cos"]
        _require(_is_unit(cos), f"{label}: cos {cos} not in [0, 1]")
        _require(cos == ref_cos, f"{label}: cli cos {cos} != library cos {ref_cos}")
        if label == "monotone":
            _require(cos == 1.0, f"monotone cos {cos} != 1.0")
        return _round(cos), {"cli.output_bytes": len(raw)}

    return Op(label, 1, lambda: cli.main(argv), check,
              reference=lambda: statistic.copula_statistic(data).cos)


def large_bivariate_cli(seed: int, workdir: Path, small: bool) -> list[Op]:
    """`copstat cos FILE --out ...` through cli.main on four n = 5000 files."""
    workdir.mkdir(parents=True, exist_ok=True)
    ops = [_cli_op(label, data, workdir)
           for label, data in _cli_inputs(seed, 300 if small else 5000).items()]
    warm = _cli_inputs(seed, 100)["noisy_sinusoid"]
    _write_csv(workdir / "warmup.csv", warm)
    if cli.main(["cos", str(workdir / "warmup.csv"), "--out", str(workdir / "warmup.json")]):
        raise CheckFailed("cli warm-up failed")
    return ops


# ------------------------------------------------------- multivariate_ties

MV_DATASETS = 4
MV_LEVELS = 20


def _discretise(v: np.ndarray) -> np.ndarray:
    """Equal-frequency bins: MV_LEVELS tied levels."""
    edges = np.quantile(v, np.linspace(0.0, 1.0, MV_LEVELS + 1)[1:-1])
    return np.digitize(v, edges).astype(float)


def mv_dataset(seed: int, k: int, n: int) -> np.ndarray:
    """Two continuous and three ~20-level columns; x1, x2, x4 depend on x0."""
    rng = derive_rng(seed, "perfbench", "mv", k)
    z = rng.standard_normal((n, 5))
    x0 = z[:, 0]
    x1 = 0.6 * x0 + 0.8 * z[:, 1]
    x2 = _discretise(x0**2 + 0.5 * z[:, 2])
    x3 = _discretise(z[:, 3])
    x4 = _discretise(x1 + 0.5 * z[:, 4])
    return np.column_stack([x0, x1, x2, x3, x4])


def _check_mv(out, _ref):
    report, tau = out
    _require(_is_unit(report.cos), f"cos {report.cos} not in [0, 1]")
    lo = -1.0 / (2.0 ** (report.d - 1) - 1.0)
    _require(math.isfinite(tau) and lo <= tau <= 1.0, f"kendall_mv {tau} not in [{lo}, 1]")
    return _round(report.cos, tau, report.m), {}


def _score(x: np.ndarray):
    return statistic.copula_statistic(x), metrics.kendall_mv(x)


def multivariate_ties(seed: int, workdir: Path, small: bool) -> list[Op]:
    """copula_statistic and kendall_mv on n = 2000, d = 5 tied datasets."""
    n = 200 if small else 2000
    data = [mv_dataset(seed, k, n) for k in range(MV_DATASETS)]
    _score(data[0][:100])
    return [Op(f"dataset{k}", 1, lambda x=x: _score(x), _check_mv)
            for k, x in enumerate(data)]


BUILDERS = {
    "mc_pipelines": mc_pipelines,
    "large_bivariate_cli": large_bivariate_cli,
    "multivariate_ties": multivariate_ties,
}


def setup(name: str, seed: int, workdir: Path, small: bool = False) -> list[Op]:
    """Generate a workload's inputs from `seed`, warm it up, return its cycle."""
    return BUILDERS[name](seed, workdir, small)
