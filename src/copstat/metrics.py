"""Reference dependence measures computed alongside the copula statistic:
Pearson and Spearman correlation, multivariate Kendall tau, and distance
correlation; and METRICS, the one table of metrics by name, the copula
statistic included."""

from __future__ import annotations

import numpy as np

from .copula_core import _rows, _tied_ranks, _trace_counts, _varying_ranks, as_sample
# pseudo_observations stays importable from this module because perfbench's
# tracer swaps it here
from .copula_core import pseudo_observations  # noqa: F401
from .errors import DegenerateMarginal, DimensionMismatch, InvalidInput
from .statistic import _cos_batch


def _column_pairs(x: np.ndarray) -> np.ndarray:
    """The (T, 2, n) C-ordered columns of a (T, n, 2) stack of samples."""
    if x.shape[2] != 2:
        raise DimensionMismatch(f"expected 2 columns, got {x.shape[2]}")
    return np.ascontiguousarray(x.transpose(0, 2, 1))


def _pearson(x: np.ndarray) -> np.ndarray:
    """Product-moment correlation of each two-column sample."""
    c = _column_pairs(x)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        dev = c - c.mean(axis=2, keepdims=True)
        spread = np.sqrt((dev * dev).mean(axis=2))  # each column's std()
    if not spread.all():
        raise DegenerateMarginal("pearson undefined for a column with zero spread")
    if not np.isfinite(spread).all():
        raise InvalidInput("pearson undefined for a column whose spread overflows")
    return (dev[:, 0] * dev[:, 1]).mean(axis=1) / (spread[:, 0] * spread[:, 1])


def _spearman(x: np.ndarray) -> np.ndarray:
    """Rank correlation of each two-column sample: Pearson correlation of
    its columns' average ranks."""
    c = _column_pairs(x)
    if (c == c[..., :1]).all(axis=2).any():
        raise DegenerateMarginal("spearman undefined for a constant column")
    # np.corrcoef one sample at a time: each value keeps the bits of
    # np.corrcoef on scipy's rankdata ranks
    return np.array([np.corrcoef(rx, ry)[0, 1] for rx, ry in _average_ranks(x)])


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """(T, d, n) average ranks of the columns of a (T, n, d) stack: 1-based
    sorted positions, tied values sharing the mean of the positions they
    span.  Constant columns are allowed."""
    last = _tied_ranks(x)[2]  # equal values span the positions up to it
    by_column = last + _rows(last)
    span = np.bincount(by_column.ravel(), minlength=last.size).take(by_column)
    return (2 * last - span + 3) / 2


def _kendall(x: np.ndarray) -> np.ndarray:
    """Multivariate Kendall tau of each sample via the copula plug-in:
    tau_n = (2^d * mean C_n - 1) / (2^(d-1) - 1), the copula mass averaged
    over ordered pairs of distinct points (self-counts excluded, normalized
    by n(n-1)), for d = 2 exactly the classical concordance estimator (a
    1/n-weighted mean would be biased by (3 - tau)/n).  The mass is the
    exact integer total of `copula_statistic`'s dominance counts."""
    _, n, d = x.shape
    order, pos = _varying_ranks(x)
    total = _trace_counts(order, pos, pos, 0)[1].sum(axis=1)
    mean_c = (total - n) / (n * (n - 1))
    return (2.0**d * mean_c - 1.0) / (2.0 ** (d - 1) - 1.0)


def _dcor(x: np.ndarray) -> np.ndarray:
    """Sample distance correlation (the biased V-statistic form) of each
    two-column sample, in [0, 1]; 0 when a column is constant.  Raises
    InvalidInput when a distance moment overflows, or underflows: a
    varying column's distance variance is 0, or the product of the two
    variances lies below the smallest normal float."""
    values = []
    # one sample at a time: a (T, n, n) stack of distance matrices would
    # take T times one sample's memory (a broadcast form was not measured)
    for pair in _column_pairs(x):
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            a, b = (np.abs(v[:, None] - v[None, :]) for v in pair)
            a, b = (m - m.mean(axis=0)[None, :] - m.mean(axis=1)[:, None] + m.mean()
                    for m in (a, b))
            dcov2_xy, var_a, var_b = (float((p * q).mean()) for p, q in ((a, b), (a, a), (b, b)))
        denom = var_a * var_b
        if (pair == pair[:, :1]).all(axis=1).any():  # a constant column's variance is 0
            values.append(0.0)
            continue
        if var_a == 0.0 or var_b == 0.0 or denom < np.finfo(float).tiny:
            raise InvalidInput("dcor undefined for a column whose distance moments underflow")
        if not np.isfinite([dcov2_xy, denom]).all():
            raise InvalidInput("dcor undefined for a column whose distance moments overflow")
        # V-statistic distance covariance is non-negative up to float error
        values.append(np.sqrt(max(dcov2_xy, 0.0)) / np.sqrt(np.sqrt(denom)))
    return np.array(values)


#: name -> (scorer of a (T, n, d) stack of samples, whether the metric is
#: signed); pipelines score signed metrics by magnitude.
METRICS = {
    "cos": (_cos_batch, False),
    "dcor": (_dcor, False),
    "kendall": (_kendall, True),
    "spearman": (_spearman, True),
    "pearson": (_pearson, True),
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
    """The value of metric `name` on one sample: its scorer's stack of one."""
    return float(_scorer(name)(as_sample(sample).data[None])[0])


def pearson(sample) -> float:
    """Product-moment correlation of a two-column sample."""
    return compute_metric("pearson", sample)


def spearman(sample) -> float:
    """Rank correlation of a two-column sample, from average ranks."""
    return compute_metric("spearman", sample)


def kendall_mv(sample) -> float:
    """Multivariate Kendall tau of a sample via the copula plug-in, from
    dominance counts taken in O(n log n) for two columns and
    n >= _MERGE_MIN_N, else in about d n^2 / 128 word operations."""
    return compute_metric("kendall", sample)


def dcor(sample) -> float:
    """Sample distance correlation of a two-column sample, in [0, 1]."""
    return compute_metric("dcor", sample)
