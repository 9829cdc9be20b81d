"""Reproducible Monte Carlo pipelines: statistical power against noisy
functional dependencies, equitability scans, null-bias tables, and
dependence-network scoring with ROC/F-score summaries.

Every pipeline derives one generator sub-stream per trial from
(seed, labels...), so results are identical however trials are scheduled.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .copula_core import Sample, as_sample
from .errors import EmptyEdgeList, InvalidInput, InvalidParam
from .metrics import compute_metric
# copula_statistic, derive_rng and the sample_*_copula samplers stay
# importable from this module because perfbench's tracer swaps them here
from .statistic import _cos_batch, copula_statistic  # noqa: F401
from .synth import (  # noqa: F401
    _COPULA_SAMPLERS,
    DependencySpec,
    derive_rng,
    gen_dependency,
    mc_values,
    sample_clayton_copula,
    sample_copula,
    sample_gaussian_copula,
    sample_gumbel_copula,
)

POWER_METRICS = ("cos", "dcor", "kendall", "spearman", "pearson")

#: Rank metrics are signed; power studies score their magnitude.
SIGNED_METRICS = {"pearson", "spearman", "kendall"}


@dataclass(frozen=True)
class PowerCurve:
    dependency: str
    metric: str
    p_grid: tuple[float, ...]
    power: tuple[float, ...]
    trials: int
    n: int
    alpha: float
    seed: int


def _metric_value(metric: str, sample) -> float:
    v = compute_metric(metric, sample)
    return abs(v) if metric in SIGNED_METRICS else v


def _metric_batch(metric: str):
    """Scorer of a (T, n, 2) block of samples by `metric`, for mc_values."""
    if metric == "cos":
        return _cos_batch
    return lambda block: np.array([_metric_value(metric, x) for x in block])


def _as_spec(dependency, p: float) -> DependencySpec:
    if isinstance(dependency, DependencySpec):
        return replace(dependency, p=p, noise_mode="additive", r2=None)
    return DependencySpec(kind=str(dependency), p=p, noise_mode="additive")


def run_power(
    dependency,
    metric: str,
    trials: int,
    n: int,
    alpha: float,
    p_grid,
    seed: int = 0,
) -> PowerCurve:
    """Power of the one-sided dependence test at each noise level.

    Per noise level: the cutoff is the (1 - alpha) quantile of the metric
    over `trials` null samples (the response built from an independent
    regressor draw), and power is the fraction of dependent samples whose
    metric exceeds that cutoff.  Trial streams are derived without the
    metric or the noise level, so all metrics see identical data and the
    noise grid is coupled through common random numbers; power trends in p
    are then monotone up to estimator noise rather than trial noise.
    Trials are scored in blocks: `cos` in one pass per block, the other
    metrics one sample at a time.
    """
    if metric not in POWER_METRICS:
        raise InvalidParam(f"metric must be one of {POWER_METRICS}, got {metric!r}")
    if trials < 100 or n < 100:
        raise InvalidParam("need trials >= 100 and n >= 100")
    if not 0.0 < alpha < 1.0:
        raise InvalidParam("alpha must be in (0, 1)")
    p_grid = tuple(float(p) for p in p_grid)
    dep_name = dependency.kind if isinstance(dependency, DependencySpec) else str(dependency)

    score = _metric_batch(metric)
    powers = []
    for p in p_grid:
        spec = _as_spec(dependency, p)
        null_vals = mc_values(seed, ("power", dep_name, "h0"), trials,
                              lambda rng: gen_dependency(spec, n, rng, independent=True).data,
                              score)
        cutoff = float(np.quantile(null_vals, 1.0 - alpha))
        vals = mc_values(seed, ("power", dep_name, "h1"), trials,
                         lambda rng: gen_dependency(spec, n, rng).data, score)
        powers.append(int(np.count_nonzero(vals > cutoff)) / trials)

    return PowerCurve(
        dependency=dep_name,
        metric=metric,
        p_grid=p_grid,
        power=tuple(powers),
        trials=trials,
        n=n,
        alpha=alpha,
        seed=seed,
    )


@dataclass(frozen=True)
class EquitabilityResult:
    """Mean-statistic curves over R^2 per test function, plus the widths of
    the interpretable intervals they induce."""

    function_ids: tuple[int, ...]
    r2_grid: tuple[float, ...]
    mean_cos: dict[int, tuple[float, ...]]
    worst_interval: float
    average_interval: float
    n: int
    reps: int
    seed: int


def _level_crossings(r2s: np.ndarray, means: np.ndarray, level: float) -> list[float]:
    """R^2 positions where a piecewise-linear curve meets a horizontal level."""
    out = []
    for i in range(len(r2s) - 1):
        y0, y1 = means[i], means[i + 1]
        if y0 == level:
            out.append(float(r2s[i]))
        if (y0 - level) * (y1 - level) < 0:
            frac = (level - y0) / (y1 - y0)
            out.append(float(r2s[i] + frac * (r2s[i + 1] - r2s[i])))
    if means[-1] == level:
        out.append(float(r2s[-1]))
    return out


def run_equitability(
    fn_ids,
    r2_grid,
    n: int = 500,
    reps: int = 30,
    seed: int = 0,
) -> EquitabilityResult:
    """Scan mean statistic versus R^2 for a set of test functions.

    Noise is additive Gaussian with variance Var(f(X)) (1/R^2 - 1), so R^2
    is the exact target coefficient of determination.  The interpretable
    interval at a statistic level is the spread of R^2 values any curve
    assigns that level; worst/average summarize over a 0.01-spaced level
    axis.  Repetition t at the i-th R^2 of function f draws from the
    stream derived from (seed, "equit", f, i, t); repetitions are scored
    in blocks.
    """
    fn_ids = tuple(int(i) for i in fn_ids)
    r2_grid = tuple(sorted(float(r) for r in r2_grid))
    if not all(0.0 < r <= 1.0 for r in r2_grid):
        raise InvalidParam("r2 grid values must lie in (0, 1]")

    curves: dict[int, tuple[float, ...]] = {}
    for fid in fn_ids:
        means = []
        for ri, r2 in enumerate(r2_grid):
            spec = DependencySpec(kind="testfn", fn_id=fid, noise_mode="r2_additive", r2=r2)
            vals = mc_values(seed, ("equit", fid, ri), reps,
                             lambda rng: gen_dependency(spec, n, rng).data, _cos_batch)
            means.append(float(vals.mean()))
        curves[fid] = tuple(means)

    r2s = np.asarray(r2_grid)
    widths = []
    for level in np.arange(0.0, 1.0 + 1e-9, 0.01):
        xs = []
        for fid in fn_ids:
            xs.extend(_level_crossings(r2s, np.asarray(curves[fid]), float(level)))
        if xs:
            widths.append(max(xs) - min(xs))
    return EquitabilityResult(
        function_ids=fn_ids,
        r2_grid=r2_grid,
        mean_cos=curves,
        worst_interval=max(widths) if widths else 0.0,
        average_interval=float(np.mean(widths)) if widths else 0.0,
        n=n,
        reps=reps,
        seed=seed,
    )


@dataclass(frozen=True)
class BiasRow:
    source: str
    n: int
    mu: float
    sigma: float


def _source_sampler(source: str):
    """Parse a generator descriptor: 'indep', 'gauss:R', 'gumbel:T',
    'clayton:T', or 'sin:FREQ' (noise-free sinusoid)."""
    name, _, arg = source.partition(":")
    name = name.strip().lower()
    param = float(arg) if arg else 0.0
    if name == "indep" or (name in ("gauss", "clayton") and param == 0.0) or (
        name == "gumbel" and param == 1.0
    ):
        return lambda n, rng: Sample(rng.random((n, 2)))
    if name in _COPULA_SAMPLERS:
        return lambda n, rng: sample_copula(name, param, n, rng)
    if name == "sin":
        spec = DependencySpec(kind="sinusoidal", freq=param, p=0.0)
        return lambda n, rng: gen_dependency(spec, n, rng)
    raise InvalidParam(f"unknown bias source {source!r}")


def run_bias_table(sources, n_grid, trials: int = 500, seed: int = 0) -> list[BiasRow]:
    """Sample mean and standard deviation of the statistic per generator
    and sample size.  Trial t draws from the stream derived from (seed,
    "bias", source, n, t); trials are scored in blocks."""
    if trials < 500:
        raise InvalidParam("bias tables need at least 500 trials")
    rows = []
    for source in sources:
        sampler = _source_sampler(source)
        for n in n_grid:
            vals = mc_values(seed, ("bias", source, n), trials,
                             lambda rng: sampler(int(n), rng).data, _cos_batch)
            rows.append(BiasRow(source=source, n=int(n), mu=float(vals.mean()),
                                sigma=float(vals.std(ddof=1))))
    return rows


@dataclass(frozen=True)
class NetworkScore:
    """Dependence-matrix evaluation against a reference edge set."""

    matrix: np.ndarray
    roc_points: tuple[tuple[float, float], ...]
    auc: float
    f_max: float
    threshold_at_fmax: float


def dependence_matrix(expr, metric: str = "cos") -> np.ndarray:
    """Symmetric pairwise dependence matrix with zero diagonal."""
    s = as_sample(expr)
    g = s.d
    m = np.zeros((g, g))
    for i, j in itertools.combinations(range(g), 2):
        m[i, j] = m[j, i] = _metric_value(metric, np.column_stack([s.column(i), s.column(j)]))
    return m


def score_matrix(matrix: np.ndarray, true_edges) -> NetworkScore:
    """Score a precomputed dependence matrix against reference edges.

    Every distinct matrix value (plus an above-all sentinel) serves as a
    threshold; pairs scoring >= threshold are predicted edges.  Produces
    ROC points over unordered pairs, the trapezoidal AUC, and the maximum
    F-score with precision defined as 1 when nothing is predicted.
    """
    m = np.asarray(matrix, dtype=float)
    g = m.shape[0]
    if m.shape != (g, g):
        raise InvalidInput("dependence matrix must be square")
    edges = {frozenset((int(a), int(b))) for a, b in true_edges}
    if not edges:
        raise EmptyEdgeList("need at least one reference edge")
    for e in edges:
        if len(e) != 2 or not all(0 <= v < g for v in e):
            raise InvalidInput(f"edge {set(e)} references invalid gene indices")

    pairs = list(itertools.combinations(range(g), 2))
    scores = np.array([m[i, j] for i, j in pairs])
    truth = np.array([frozenset((i, j)) in edges for i, j in pairs])
    pos = int(truth.sum())
    neg = len(pairs) - pos

    thresholds = [math.inf, *sorted(set(scores.tolist()), reverse=True)]
    roc = []
    f_max = 0.0
    t_at_fmax = math.inf
    for t in thresholds:
        pred = scores >= t
        tp = int((pred & truth).sum())
        fp = int((pred & ~truth).sum())
        fn = pos - tp
        tpr = tp / pos
        fpr = fp / neg if neg else 0.0
        roc.append((fpr, tpr))
        precision = tp / (tp + fp) if (tp + fp) else 1.0
        recall = tp / (tp + fn) if (tp + fn) else 0.0
        f = 0.0 if recall == 0.0 else 2.0 * precision * recall / (precision + recall)
        if f > f_max:
            f_max, t_at_fmax = f, t
    roc.sort()
    if roc[-1] != (1.0, 1.0):
        roc.append((1.0, 1.0))

    xs = np.array([p[0] for p in roc])
    ys = np.array([p[1] for p in roc])
    auc = float(np.trapezoid(ys, xs)) if neg else 1.0
    return NetworkScore(
        matrix=m,
        roc_points=tuple(roc),
        auc=auc,
        f_max=f_max,
        threshold_at_fmax=t_at_fmax,
    )


def score_network(expr, true_edges, metric: str = "cos") -> NetworkScore:
    """Pairwise dependence matrix of `expr` scored against reference edges."""
    return score_matrix(dependence_matrix(as_sample(expr), metric), true_edges)
