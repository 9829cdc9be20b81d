"""Empirical copulas over rank-transformed data.

Rank transform to pseudo-observations, exact step-function evaluation of
the d-dimensional empirical copula (at any points, or as integer dominance
counts at every sample point), the Frechet-Hoeffding envelopes, the
product copula, and the relative distance of a copula value from the
independence surface.

All containers are immutable after construction (backing arrays are marked
read-only) and all functions are pure, so everything here is safe to use
from concurrent code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundsViolated,
    DegenerateMarginal,
    DimensionMismatch,
    InvalidInput,
)

#: Denominators with magnitude below this are treated as a collapsed
#: Frechet gap (bounds meet the product copula) and yield lambda = 1.
DEGENERATE_EPS = 1e-12

# Comparison-cell budget per block when batch-evaluating the copula; keeps
# the (block, n, d) broadcast under ~100 MB.
_EVAL_BLOCK_CELLS = 8_000_000

# Samples of two columns and at least this many points count dominance by
# merge levels, O(n log n), rather than by the bitset kernel.  For one
# sample the two took about 0.4-0.5 ms each at n = 1100; merge levels took
# 0.3 against 0.2 ms at n = 1000, 1.5 against 7.0 ms at n = 5000 and 6.7
# against 87 ms at n = 20000 (best of 25, 2-core x86 host).
_MERGE_MIN_N = 1100

# uint64 words per prefix table in dominance_counts (~4 MB), one table
# covering one column of every sample of a stack.  Tables that fit in
# cache are also faster: at n = 20000, d = 2 an 8M-word budget took
# about twice as long (207 vs 105 ms on a 2-core x86 host).
_PREFIX_TABLE_WORDS = 500_000


def _observations(data, axes: tuple[str, ...]) -> np.ndarray:
    """`data` as floats of shape `axes`, ending in (n, d): samples of at
    least 2 finite rows and 2 columns."""
    a = np.asarray(data, dtype=float)
    if a.ndim != len(axes):
        raise InvalidInput(f"sample must be a {len(axes)}-D array of shape ({', '.join(axes)})")
    n, d = a.shape[-2:]
    if n < 2:
        raise InvalidInput(f"sample needs at least 2 rows, got {n}")
    if d < 2:
        raise InvalidInput(f"sample needs at least 2 columns, got {d}")
    if not np.isfinite(a).all():
        raise InvalidInput("sample contains NaN or Inf values")
    return a


def _readonly(a: np.ndarray) -> np.ndarray:
    """A read-only C-ordered float copy of `a`, so the caller's array stays
    as it was and writable."""
    a = np.array(a, dtype=float, order="C")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Sample:
    """An n-by-d matrix of finite real observations, one variable per column."""

    data: np.ndarray

    def __post_init__(self) -> None:
        a = _observations(self.data, ("n", "d"))
        object.__setattr__(self, "data", _readonly(a))

    @classmethod
    def from_columns(cls, columns) -> "Sample":
        """Build a sample from a list of equal-length 1-D series."""
        cols = [np.asarray(c, dtype=float).ravel() for c in columns]
        if len(cols) < 2:
            raise InvalidInput("need at least 2 columns")
        if len({c.size for c in cols}) != 1:
            raise InvalidInput("columns differ in length")
        return cls(np.column_stack(cols))

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]

    def column(self, k: int) -> np.ndarray:
        return self.data[:, k]


def as_sample(obj) -> Sample:
    """Coerce an (n, d) array-like or Sample to a Sample."""
    if isinstance(obj, Sample):
        return obj
    return Sample(np.asarray(obj, dtype=float))


@dataclass(frozen=True)
class PseudoSample:
    """Rank-transformed data: entry (j, k) is a rank of x_jk over n, in
    (0, 1].  Columns may hold ties; only `pseudo_observations`' ordinal
    ranks make every column a permutation of {1/n, ..., n/n}."""

    u: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.u, dtype=float)
        if a.ndim != 2:
            raise InvalidInput("pseudo-observations must be a 2-D array")
        if a.size and (a.min() <= 0.0 or a.max() > 1.0):
            raise InvalidInput("pseudo-observations must lie in (0, 1]")
        object.__setattr__(self, "u", _readonly(a))

    @property
    def n(self) -> int:
        return self.u.shape[0]

    @property
    def d(self) -> int:
        return self.u.shape[1]


def _positions(order: np.ndarray) -> np.ndarray:
    """Sorted position of each point, from sorting orders along the last axis."""
    pos = np.empty_like(order)
    np.put_along_axis(pos, order, np.arange(order.shape[-1]), axis=-1)
    return pos


def _ranked(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable sorting order of each column of each (T, n, d) sample, and
    each point's position in it, both shaped (T, d, n).

    (pos + 1) / n are the pseudo-observations: ordinal ranks / n, ties
    resolved by first occurrence, with no two points of a column sharing a
    value.  Raises DegenerateMarginal if a column is constant, that is if
    the ends of its sorted order hold equal values.
    """
    T = x.shape[0]
    columns = x.transpose(0, 2, 1)
    order = np.argsort(columns, axis=2, kind="stable")
    ends = np.take_along_axis(columns, order[..., [0, -1]], axis=2)
    constant = np.argwhere(ends[..., 0] == ends[..., 1])
    if constant.size:
        t, k = constant[0]
        where = f" of sample {t}" if T > 1 else ""
        raise DegenerateMarginal(f"column {k}{where} is constant")
    return order, _positions(order)


def _tie_bounds(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, left, right) of each column of an (n, d) array of values
    that may hold ties, each shaped (d, n): the stable sorting order, and
    each point's `searchsorted` bounds in its sorted column, so `left`
    points lie below it and `right` at or below it."""
    order = np.argsort(u, axis=0, kind="stable").T
    left, right = np.empty_like(order), np.empty_like(order)
    for k, column in enumerate(u.T):
        ranked = column[order[k]]
        left[k] = ranked.searchsorted(column, "left")
        right[k] = ranked.searchsorted(column, "right")
    return order, left, right


def pseudo_observations(sample) -> PseudoSample:
    """Rank-transform each column of `sample` to pseudo-observations R/n.

    Raises DegenerateMarginal if a column is constant and InvalidInput on
    NaN/Inf or fewer than 2 rows.
    """
    _, pos = _ranked(as_sample(sample).data[None])
    return PseudoSample(u=(pos[0].T + 1) / pos.shape[2])


def as_unit_point(point, d: int | None = None) -> np.ndarray:
    """Validate unit-hypercube points, coordinates on the last axis (d of them if given)."""
    p = np.atleast_1d(np.asarray(point, dtype=float))
    if d is not None and p.shape[-1] != d:
        raise DimensionMismatch(f"expected a {d}-dimensional point, got {p.shape[-1]}")
    if p.shape[-1] < 1:
        raise InvalidInput("point has no coordinates")
    if not np.isfinite(p).all():
        raise InvalidInput("point coordinates must be finite")
    if p.min(initial=0.0) < 0.0 or p.max(initial=1.0) > 1.0:
        raise InvalidInput("point coordinates must lie in [0, 1]")
    return p


@dataclass(frozen=True)
class EmpiricalCopula:
    """Step-function copula estimate built from pseudo-observations.

    C_n(u) = (1/n) #{j : u_jk <= u_k for every k}, an exact integer count
    divided by n.
    """

    points: PseudoSample

    @property
    def n(self) -> int:
        return self.points.n

    @property
    def d(self) -> int:
        return self.points.d

    def cdf(self, point) -> float:
        """Evaluate C_n at one point of the unit hypercube."""
        return float(self.cdf_many(np.ravel(point)[None])[0])

    def cdf_many(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate C_n at each row of an (m, d) array of unit points.

        Raises DimensionMismatch unless `pts` has shape (m, d), and
        InvalidInput on coordinates that are not finite or lie outside
        [0, 1].  At the sample's own points, dominance_counts(points) / n
        gives the same values in O(d n^2 / 64) word operations.
        """
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.d:
            raise DimensionMismatch(
                f"expected points of shape (m, {self.d}), got {pts.shape}"
            )
        as_unit_point(pts)
        u = self.points.u
        m = pts.shape[0]
        out = np.empty(m, dtype=float)
        block = max(1, _EVAL_BLOCK_CELLS // (self.n * self.d))
        for lo in range(0, m, block):
            hi = min(lo + block, m)
            hit = np.all(u[None, :, :] <= pts[lo:hi, None, :], axis=2)
            out[lo:hi] = hit.sum(axis=1, dtype=np.int64)
        return out / self.n


def dominance_counts(ps: PseudoSample) -> np.ndarray:
    """n * C_n at every sample point: #{i : u_i <= u_j in every coordinate}.

    Returns int64 counts in row order, in O(d n^2 / 64) word operations;
    see `_dominance_counts`.
    """
    order, _, right = _tie_bounds(ps.u)
    return _dominance_counts(_positions(order)[None], right[None] - 1)[0]


def _dominance_counts(pos: np.ndarray, row: np.ndarray) -> np.ndarray:
    """`dominance_counts` of each sample of a (T, n, d) stack, shape (T, n),
    from two (T, d, n) arrays: `pos`, each point's position in its column's
    stable sorted order, and `row`, the position of the last point sharing
    its value (`pos` itself where a column has no ties, as in `_ranked`'s
    ordinal ranks).

    Per sample and column, row t of a prefix table is the bitset of the
    first t + 1 points in stable sorted order, so point j's set of points
    at or below it in that column is the row of the last point sharing its
    value; AND-ing its d rows and counting bits gives its count.  Points
    are tiled by 64-bit word so that the tables of the whole stack hold at
    most _PREFIX_TABLE_WORDS words, or T * n words (one word per row) when
    that is more.
    """
    T, d, n = pos.shape
    point = np.arange(n)
    bit = np.left_shift(np.uint64(1), (point % 64).astype(np.uint64))
    words = -(-n // 64)
    tile = max(1, min(words, _PREFIX_TABLE_WORDS // (T * n)))
    sample = np.arange(T)[:, None]
    counts = np.zeros((T, n), dtype=np.int64)
    for w0 in range(0, words, tile):
        w1 = min(w0 + tile, words)
        pts = point[64 * w0:64 * w1]
        hit = None
        for k in range(d):
            table = np.zeros((T, n, w1 - w0), dtype=np.uint64)
            table[sample, pos[:, k, pts], pts // 64 - w0] = bit[pts]
            np.bitwise_or.accumulate(table, axis=1, out=table)
            below = table[sample, row[:, k]]
            hit = below if hit is None else np.bitwise_and(hit, below, out=hit)
        # one reduction over the words: sum(axis=2) reduces a short last
        # axis point by point (125 vs 55 us on (32, 200, 4) words, 2-core
        # x86 host)
        counts += np.einsum("...w->...", np.bitwise_count(hit), dtype=np.int64)
    return counts


def _trace_counts(order: np.ndarray, pos: np.ndarray, sort_axis: int) -> np.ndarray:
    """Dominance counts (T, n) of each sample of a (T, n, d) stack, in trace
    order, from `_ranked`'s ordinal `order` and `pos`: the trace visits each
    sample's points sorted on column `sort_axis`.

    Two columns of at least _MERGE_MIN_N points take `_merge_counts`; all
    other stacks take the bitset kernel, `_dominance_counts`.
    """
    by_axis = order[:, sort_axis]
    T, d, n = pos.shape
    if d == 2 and n >= _MERGE_MIN_N:
        # a point's count is itself plus the earlier trace points that lie
        # below it in the other column
        return _merge_counts(np.take_along_axis(pos[:, 1 - sort_axis], by_axis, axis=1))
    return np.take_along_axis(_dominance_counts(pos, pos), by_axis, axis=1)


def _merge_counts(r: np.ndarray) -> np.ndarray:
    """1 + #{j < i : r[t, j] < r[t, i]} at every entry of a (T, n) stack of
    permutations of range(n), in O(T n log n).

    Level h cuts each row into blocks of 2h entries.  An entry's rank in
    its block is the number of the block's entries below it.  A block's
    right half was a whole block one level down, so for an entry there the
    growth of its rank since that level counts the left half's entries
    below it; each earlier, smaller entry is counted once, at the first
    level whose block holds both.  The ranks come from the order that sorts the stack
    by (block, r), kept from level to level: each level's stable sort then
    merges sorted halves.
    """
    T, n = r.shape
    point = np.tile(np.arange(n), T)
    index = np.arange(T * n)
    r = r.ravel()
    counts = np.ones(T * n, dtype=np.int64)
    order = index
    rank = np.zeros(T * n, dtype=np.int64)
    h = 1
    while h < n:
        within = point % (2 * h)
        start = index - within  # of the entry's block, over the whole stack
        order = order[np.argsort((start * n + r)[order], kind="stable")]
        below = np.empty_like(rank)
        below[order] = index
        below -= start
        counts += np.where(within >= h, below - rank, 0)
        rank = below
        h *= 2
    return counts.reshape(T, n)


def empirical_copula(sample) -> EmpiricalCopula:
    """Rank-transform `sample` and wrap it as an empirical copula."""
    return EmpiricalCopula(pseudo_observations(sample))


def _fold(ufunc, p: np.ndarray) -> np.ndarray:
    """ufunc over the coordinates of points p, applied one coordinate at a
    time in order, as a plain loop over each point would.  numpy reduces a
    short last axis point by point: at 4,200 two-dimensional points,
    p.min(axis=-1) took 185 us and this 5 us (2-core x86 host)."""
    out = p[..., 0].copy()
    for k in range(1, p.shape[-1]):
        ufunc(out, p[..., k], out=out)
    return out


def _frechet_lower(p: np.ndarray) -> np.ndarray:
    return np.maximum(_fold(np.add, p) + 1.0 - p.shape[-1], 0.0)


def frechet_upper(point):
    """Upper Frechet-Hoeffding envelope M(u) = min of the coordinates."""
    return _fold(np.minimum, as_unit_point(point))[()]


def frechet_lower(point):
    """Lower Frechet-Hoeffding envelope W(u) = max(sum(u) + 1 - d, 0)."""
    return _frechet_lower(as_unit_point(point))[()]


def product_copula(point):
    """Independence copula Pi(u) = product of the coordinates."""
    return _fold(np.multiply, as_unit_point(point))[()]


def relative_distance(c_value, point, tol: float = 0.0):
    """Distance of copula values from independence, scaled to [0, 1].

    Measures (C - Pi) against the gap between the applicable Frechet
    envelope and Pi: the upper envelope when C >= Pi, the lower one
    otherwise.  A value of 0 means independence at this point, 1 means the
    value sits on an envelope.

    `c_value` has shape (...) and `point` shape (..., d); each value is
    scored at its point, and a scalar call returns a float.  A value may
    exceed the envelopes by at most `tol` (it is clamped); beyond that
    BoundsViolated is raised.  Where the applicable gap is numerically zero
    the envelopes and Pi coincide, which only happens at global-optimum
    points of a functional dependence, so 1 is returned.
    """
    p = as_unit_point(point)
    c = np.asarray(c_value, dtype=float)
    if c.shape != p.shape[:-1]:
        raise DimensionMismatch(f"{c.shape} copula values for {p.shape[:-1]} points")
    upper, lower, pi = _fold(np.minimum, p), _frechet_lower(p), _fold(np.multiply, p)
    above, below = c > upper + tol, c < lower - tol
    if above.any():
        raise BoundsViolated(
            f"copula value {c[above][0]} exceeds upper bound {upper[above][0]} "
            f"beyond tol {tol}"
        )
    if below.any():
        raise BoundsViolated(
            f"copula value {c[below][0]} below lower bound {lower[below][0]} "
            f"beyond tol {tol}"
        )
    c = np.where(c > upper, upper, np.where(c < lower, lower, c))
    denom = np.where(c >= pi, upper - pi, lower - pi)
    gap = np.abs(denom) >= DEGENERATE_EPS
    return np.divide(c - pi, denom, out=np.ones_like(c), where=gap)[()]
