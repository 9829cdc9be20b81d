"""Reference dependence measures computed alongside the copula statistic:
Pearson and Spearman correlation, multivariate Kendall tau, and distance
correlation; and METRICS, the one table of metrics by name, the copula
statistic included."""

from __future__ import annotations

import numpy as np

from .copula_core import _last_tied, _ranked, _require_varying, _trace_counts, as_sample
# pseudo_observations stays importable from this module because perfbench's
# tracer swaps it here
from .copula_core import pseudo_observations  # noqa: F401
from .errors import DegenerateMarginal, DimensionMismatch, InvalidInput
from .statistic import _cos_batch


def _two_columns(sample) -> tuple[np.ndarray, np.ndarray]:
    s = as_sample(sample)
    if s.d != 2:
        raise DimensionMismatch(f"expected 2 columns, got {s.d}")
    return s.column(0), s.column(1)


def pearson(sample) -> float:
    """Product-moment correlation of a two-column sample."""
    x, y = _two_columns(sample)
    sx, sy = x.std(), y.std()
    if sx == 0.0 or sy == 0.0:
        raise DegenerateMarginal("pearson undefined for a column with zero spread")
    return float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))


def spearman(sample) -> float:
    """Rank correlation: Pearson correlation of the columns' average ranks,
    tied values sharing the mean of the ranks they span."""
    x, y = _two_columns(sample)
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise DegenerateMarginal("spearman undefined for a constant column")
    rx, ry = _average_ranks(np.column_stack([x, y]))
    return float(np.corrcoef(rx, ry)[0, 1])


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """(d, n) average ranks of an (n, d) array's columns: 1-based sorted
    positions, tied values sharing the mean of the positions they span."""
    n, d = x.shape
    _, pos, ranked = _ranked(x[None])
    last = _last_tied(ranked, pos)[0]  # equal values span the positions up to it
    by_column = last + (np.arange(d) * n)[:, None]
    span = np.bincount(by_column.ravel(), minlength=d * n).take(by_column)
    return (2 * last - span + 3) / 2


def kendall_mv(sample) -> float:
    """Multivariate Kendall tau via the copula plug-in.

    tau_n = (2^d * mean C_n - 1) / (2^(d-1) - 1), with the copula mass
    averaged over ordered pairs of distinct sample points (the pairwise
    form: self-counts excluded, normalized by n(n-1)).  For d = 2 this is
    exactly the classical concordance estimator; the naive 1/n-weighted
    average would be biased by (3 - tau)/n.  The copula mass is the exact
    integer total of the dominance counts, as `copula_statistic` takes
    them: O(n log n) for two columns and n >= _MERGE_MIN_N, else about
    d n^2 / 128 word operations.
    """
    s = as_sample(sample)
    n, d = s.n, s.d
    order, pos, ranked = _ranked(s.data[None])
    _require_varying(ranked)
    total = int(_trace_counts(order, pos, pos, 0)[1].sum())
    mean_c = (total - n) / (n * (n - 1))
    return (2.0**d * mean_c - 1.0) / (2.0 ** (d - 1) - 1.0)


def dcor(sample) -> float:
    """Sample distance correlation (the biased V-statistic form), in [0, 1].

    Built from double-centered pairwise-distance matrices; 0 is returned
    when either marginal distance variance vanishes.
    """
    x, y = _two_columns(sample)
    a = np.abs(x[:, None] - x[None, :])
    b = np.abs(y[:, None] - y[None, :])
    a = a - a.mean(axis=0)[None, :] - a.mean(axis=1)[:, None] + a.mean()
    b = b - b.mean(axis=0)[None, :] - b.mean(axis=1)[:, None] + b.mean()
    # V-statistic distance covariance is non-negative up to float error
    dcov2_xy = max(float((a * b).mean()), 0.0)
    dcov2_xx = float((a * a).mean())
    dcov2_yy = float((b * b).mean())
    denom = dcov2_xx * dcov2_yy
    if denom <= 0.0:
        return 0.0
    return float(np.sqrt(dcov2_xy) / np.sqrt(np.sqrt(denom)))


def _each(metric):
    """A one-sample metric's values on each sample of a (T, n, d) stack."""
    return lambda x: np.array([metric(sample) for sample in x])


#: name -> (scorer of a (T, n, d) stack of samples, whether the metric is
#: signed); pipelines score signed metrics by magnitude.
METRICS = {
    "cos": (_cos_batch, False),
    "dcor": (_each(dcor), False),
    "kendall": (_each(kendall_mv), True),
    "spearman": (_each(spearman), True),
    "pearson": (_each(pearson), True),
}


def _scorer(name: str, error=InvalidInput, magnitude: bool = False):
    """The stack scorer of metric `name`, of magnitudes for a signed metric
    if `magnitude`; an unknown name raises `error`."""
    try:
        score, signed = METRICS[name]
    except KeyError:
        raise error(f"metric must be one of {tuple(METRICS)}, got {name!r}") from None
    if magnitude and signed:
        return lambda x: np.abs(score(x))
    return score


def compute_metric(name: str, sample) -> float:
    """The value of metric `name` on one sample."""
    return float(_scorer(name)(as_sample(sample).data[None])[0])
