"""Reproducible Monte Carlo pipelines: statistical power against noisy
functional dependencies, equitability scans, null-bias tables, and
dependence-network scoring with ROC/F-score summaries.

Every pipeline derives one generator sub-stream per trial from
(seed, labels...), so results are identical however trials are scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import synth
from .copula_core import as_sample
from .errors import DegenerateMarginal, EmptyEdgeList, InvalidInput, InvalidParam
from .metrics import _scorer
# copula_statistic, derive_rng, gen_dependency and the sample_*_copula
# samplers stay importable from this module because perfbench's tracer swaps
# them here
from .statistic import _cos_batch, copula_statistic  # noqa: F401
from .synth import (  # noqa: F401
    _COPULA_SAMPLERS,
    DependencySpec,
    _copula,
    _dependency,
    _uniform_pairs,
    derive_rng,
    gen_dependency,
    mc_values,
    sample_clayton_copula,
    sample_gaussian_copula,
    sample_gumbel_copula,
)


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
    Signed metrics are scored by magnitude.  Each block of trials is
    transformed to samples at once and scored: `cos` in one pass per
    block, the other metrics one sample at a time.  `dependency` is a
    DependencySpec or a kind name; its noise is additive at each level.
    """
    score = _scorer(metric, InvalidParam, magnitude=True)
    if trials < 100 or n < 100:
        raise InvalidParam("need trials >= 100 and n >= 100")
    if not 0.0 < alpha < 1.0:
        raise InvalidParam("alpha must be in (0, 1)")
    p_grid = tuple(float(p) for p in p_grid)
    if not isinstance(dependency, DependencySpec):
        dependency = DependencySpec(kind=str(dependency))

    powers = []
    for p in p_grid:
        spec = replace(dependency, p=p, noise_mode="additive", r2=None)
        null_vals = mc_values(seed, ("power", spec.kind, "h0"), trials,
                              _dependency(spec, n, independent=True), score)
        cutoff = float(np.quantile(null_vals, 1.0 - alpha))
        vals = mc_values(seed, ("power", spec.kind, "h1"), trials, _dependency(spec, n), score)
        powers.append(int(np.count_nonzero(vals > cutoff)) / trials)

    return PowerCurve(
        dependency=dependency.kind,
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
            vals = mc_values(seed, ("equit", fid, ri), reps, _dependency(spec, n), _cos_batch)
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
    'clayton:T', or 'sin:FREQ' (noise-free sinusoid).  Returns the source's
    `_Sampler` by sample size."""
    name, _, arg = source.partition(":")
    name = name.strip().lower()
    try:
        param = float(arg) if arg else 0.0
    except ValueError:
        raise InvalidParam(f"bias source {source!r} needs a number after ':'") from None
    # independence members: the registry draws gauss:0 from normals and
    # refuses clayton:0 (gumbel:1 it draws as uniform pairs itself)
    if name == "indep" or (name in ("gauss", "clayton") and param == 0.0):
        return _uniform_pairs
    if name in _COPULA_SAMPLERS:
        return lambda n: _copula(name, param, n)
    if name == "sin":
        spec = DependencySpec(kind="sinusoidal", freq=param, p=0.0)
        return lambda n: _dependency(spec, n)
    raise InvalidParam(f"unknown bias source {source!r}")


def run_bias_table(sources, n_grid, trials: int = 500, seed: int = 0) -> list[BiasRow]:
    """Sample mean and standard deviation of the statistic per generator
    and sample size.  Trial t draws from the stream derived from (seed,
    "bias", source, n, t); blocks of trials are transformed to samples and
    scored at once."""
    if trials < 500:
        raise InvalidParam("bias tables need at least 500 trials")
    rows = []
    for source in sources:
        sampler_at = _source_sampler(source)
        for n in n_grid:
            vals = mc_values(seed, ("bias", source, n), trials, sampler_at(int(n)), _cos_batch)
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
    """Symmetric pairwise dependence matrix with zero diagonal, signed
    metrics by magnitude.  The gene pairs (a, b), a < b, are scored in
    blocks of k = max(1, _BLOCK_CELLS // 2n) pairs, each block's (k, n, 2)
    stack gathered from the gene columns in one indexing pass."""
    x = as_sample(expr).data
    n, g = x.shape
    i, j = np.triu_indices(g, 1)
    pairs = np.stack([i, j], axis=-1)[:, None]  # broadcasts against rows to (pairs, n, 2)
    rows = np.arange(n)[:, None]
    k = max(1, synth._BLOCK_CELLS // (2 * n))
    score = _scorer(metric, magnitude=True)
    try:
        values = np.concatenate([score(x[rows, pairs[first:first + k]])
                                 for first in range(0, len(pairs), k)], dtype=float)
    except DegenerateMarginal:  # a constant gene: name its column, not the pair's
        col = np.flatnonzero((x == x[0]).all(axis=0))[0]
        raise DegenerateMarginal(f"gene column {col} is constant") from None
    m = np.zeros((g, g))
    m[i, j] = m[j, i] = values
    return m


def score_matrix(matrix: np.ndarray, true_edges) -> NetworkScore:
    """Score a precomputed, symmetric dependence matrix against reference
    edges.

    Every distinct value above the diagonal (plus an above-all sentinel)
    serves as a threshold; pairs scoring >= threshold are predicted edges.
    Produces ROC points over unordered pairs, the trapezoidal AUC, and the
    maximum F-score with precision defined as 1 when nothing is predicted.
    The counts at each threshold are running sums over one descending sort.
    """
    m = np.asarray(matrix, dtype=float)
    g = m.shape[0]
    if m.shape != (g, g):
        raise InvalidInput("dependence matrix must be square")
    if not np.isfinite(m).all():
        raise InvalidInput("dependence matrix contains NaN or Inf values")
    # only pairs i < j are scored, so a matrix whose triangles differ would
    # be half ignored
    if not np.array_equal(m, m.T):
        raise InvalidInput("dependence matrix must be symmetric")
    edges = {frozenset((int(a), int(b))) for a, b in true_edges}
    if not edges:
        raise EmptyEdgeList("need at least one reference edge")
    for e in edges:
        if len(e) != 2 or not all(0 <= v < g for v in e):
            raise InvalidInput(f"edge {set(e)} references invalid gene indices")

    is_edge = np.zeros((g, g), dtype=bool)
    for a, b in map(sorted, edges):
        is_edge[a, b] = True
    upper = np.triu_indices(g, 1)
    # stable: equal scores keep pair order, so a threshold where -0.0 and
    # 0.0 tie takes the sign of its first pair
    scores = m[upper]
    order = np.argsort(-scores, kind="stable")
    scores, truth = scores[order], is_edge[upper][order]
    last = np.flatnonzero(np.append(scores[1:] != scores[:-1], True))
    thresholds = scores[np.append(0, last[:-1] + 1)]
    tp = np.cumsum(truth)[last]
    fp = last + 1 - tp
    pos, neg = tp[-1], fp[-1]
    tpr = tp / pos
    fpr = fp / max(neg, 1)  # every fp is 0 when no pair is a non-edge
    # every threshold predicts a pair, and tp = 0 exactly where recall is 0
    precision = tp / (tp + fp)
    f = np.divide(2.0 * precision * tpr, precision + tpr, out=np.zeros(tp.size), where=tp > 0)
    best = int(np.argmax(f))  # the first, highest, threshold of the maximum

    # the sentinel's point, then one per threshold, already in sorted order
    roc = [(0.0, 0.0), *zip(fpr.tolist(), tpr.tolist())]
    if roc[-1] != (1.0, 1.0):
        roc.append((1.0, 1.0))
    xs, ys = np.array(roc).T
    auc = float(np.trapezoid(ys, xs)) if neg else 1.0
    return NetworkScore(
        matrix=m,
        roc_points=tuple(roc),
        auc=auc,
        f_max=float(f[best]),
        threshold_at_fmax=float(thresholds[best]),
    )


def score_network(expr, true_edges, metric: str = "cos") -> NetworkScore:
    """Pairwise dependence matrix of `expr` scored against reference edges."""
    return score_matrix(dependence_matrix(as_sample(expr), metric), true_edges)
