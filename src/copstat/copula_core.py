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
# sample, merge levels took 1.35-1.39 times the kernel's time at n = 1400,
# 0.85-1.19 at n = 1600, 0.82-1.00 at n = 1800 and 0.69-0.93 at n = 2000
# (medians of 20 alternating rounds, two runs, 2-core x86 host).
_MERGE_MIN_N = 1700

# uint64 words per prefix table in _dominance_counts (128 KiB), one table
# covering one column of every sample of a stack, and at least two words
# per row.  Against 1 MiB tables the kernel took 0.62 of the time on a
# (32, 200, 2) Monte Carlo block, 0.59 at n = 2000, d = 5, 0.77 at
# n = 20000, d = 3 and the same at n = 5000, d = 3; filling a fresh
# 200 KiB table took 57 us against 8 us for a reused one.  One-word tiles
# cost more per tile than they save: 92 against 46 ms at n = 20000, d = 3
# (2-core x86 host).
_PREFIX_TABLE_WORDS = 16_384


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


def _rows(a: np.ndarray) -> np.ndarray:
    """Offset of each row of `a`'s last axis in `a` raveled, shaped to
    broadcast against `a`: adding it to indices along the last axis gives
    flat indices, for one `take` or scatter over the whole array (3-index
    fancy indexing costs several times as much)."""
    return (np.arange(a.size // a.shape[-1]) * a.shape[-1]).reshape(*a.shape[:-1], 1)


def _ranked(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable sorting order of each column of each (T, n, d) sample, each
    point's position in it and the sorted values, all shaped (T, d, n).

    (pos + 1) / n are ordinal ranks / n: ties broken by first occurrence.
    Constant columns are allowed; `_require_varying` refuses them.

    Columns are sorted by the default (unstable) sort.  A column without
    ties has one sorting order, the stable one; only the columns where
    adjacent sorted values are equal are sorted again, stably.
    """
    columns = np.ascontiguousarray(x.transpose(0, 2, 1))
    order = np.argsort(columns, axis=2)
    rows = _rows(order)
    ranked = columns.ravel().take(order + rows)
    tied = (ranked[..., 1:] == ranked[..., :-1]).any(axis=2)
    if tied.any():
        order[tied] = np.argsort(columns[tied], axis=1, kind="stable")
    pos = np.empty(order.size, dtype=order.dtype)
    pos[(order + rows).ravel()] = np.tile(np.arange(order.shape[2]), order.size // order.shape[2])
    return order, pos.reshape(order.shape), ranked


def _require_varying(ranked: np.ndarray) -> None:
    """Raise DegenerateMarginal if a column of `_ranked`'s sorted values is constant."""
    constant = np.argwhere(ranked[..., 0] == ranked[..., -1])
    if constant.size:
        t, k = constant[0]
        where = f" of sample {t}" if ranked.shape[0] > 1 else ""
        raise DegenerateMarginal(f"column {k}{where} is constant")


def _last_tied(ranked: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Sorted position of the last point sharing each point's value, shaped
    like `_ranked`'s `pos`, from its sorted values `ranked`: the first
    position at or after the point's own whose next value differs."""
    n = ranked.shape[-1]
    ends = np.full(ranked.shape, n - 1)
    ends[..., :-1] = np.where(ranked[..., 1:] != ranked[..., :-1], np.arange(n - 1), n - 1)
    last = np.minimum.accumulate(ends[..., ::-1], axis=-1)[..., ::-1]
    return last.ravel().take(pos + _rows(pos))


def pseudo_observations(sample) -> PseudoSample:
    """Rank-transform each column of `sample` to pseudo-observations R/n.

    Raises DegenerateMarginal if a column is constant and InvalidInput on
    NaN/Inf or fewer than 2 rows.
    """
    _, pos, ranked = _ranked(as_sample(sample).data[None])
    _require_varying(ranked)
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
        [0, 1].  At the sample's own points, `copula_trace(points).values`
        gives the same values, in trace order, in O(d n^2 / 64) word
        operations.
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


def _trace_ranks(order: np.ndarray, pos: np.ndarray, sort_axis: int) -> np.ndarray:
    """(d - 1, T, n) ranks of each sample of a stack in trace order, from
    `_ranked`'s (T, d, n) `order` and `pos`: for each column other than
    `sort_axis`, in column order, the position in that column of the
    points sorted on `sort_axis`.  `pos` may be any (T, d, n) value per
    point and column."""
    T, d, n = pos.shape
    others = np.arange(d)[np.arange(d) != sort_axis]
    rows = (np.arange(T) * d + others[:, None]) * n  # of pos raveled
    return pos.ravel().take(rows[..., None] + order[:, sort_axis])


#: LOW_BITS[b] is a word whose bits 0..b are set.
_LOW_BITS = np.bitwise_or.accumulate(np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64)))


def _dominance_counts(rank: np.ndarray, row: np.ndarray, cut: np.ndarray) -> np.ndarray:
    """Dominance counts (T, n) of each sample of a stack, in trace order:
    at trace point i, the number of points at or below it in every column.

    The trace visits each sample's points stably sorted on one column, the
    sort axis.  For each other column, `rank` (d - 1, T, n) holds each
    trace point's position in that column's stable sorted order, and `row`
    the position of the last point sharing its value (`rank` itself where
    values are distinct, as in `_ranked`'s ordinal ranks).  `cut` (n,) is
    the last trace index sharing each point's sort-axis value (range(n)
    where values are distinct).

    Bit i of a bitset stands for trace point i.  On the sort axis, the
    points at or below point i are trace points 0..cut[i]: row cut[i] of a
    lower-triangular mask, the same for every sample.  In another column,
    row r of a prefix table is the bitset of the first r + 1 points in
    sorted order, so the points at or below point i are table row row[i].
    AND-ing the mask row with one table row per other column and counting
    bits gives the count.  Points are tiled by 64-bit word so that the
    tables of the whole stack hold at most _PREFIX_TABLE_WORDS words, or
    2 T n words (two words per row) when that is more.
    """
    T, n = rank.shape[1:]
    point = np.arange(n)
    bit = np.left_shift(np.uint64(1), (point % 64).astype(np.uint64))
    words = -(-n // 64)
    tile = min(words, max(2, _PREFIX_TABLE_WORDS // (T * n)))
    sample = (np.arange(T) * n)[:, None]  # first table row of each sample
    gather = (row + sample).reshape(-1, T * n)
    cut_word = cut // 64  # non-decreasing, as the trace is sorted
    counts = np.zeros((T, n), dtype=np.int64)
    for w0 in range(0, words, tile):
        w1 = min(w0 + tile, words)
        wide = w1 - w0
        pts = slice(64 * w0, 64 * w1)
        # the mask's words w0..w1-1 in row c: all ones before c's own word,
        # bits 0..c % 64 in it and none after; the rows are taken from one
        # row per word, then each own word is set
        by_word = (np.arange(w0, w1) < np.arange(words)[:, None]) * _LOW_BITS[63]
        mask = by_word.take(cut_word, axis=0)
        lo, hi = cut_word.searchsorted([w0, w1])
        mask.ravel()[np.arange(lo, hi) * wide + cut_word[lo:hi] - w0] = _LOW_BITS[cut[lo:hi] % 64]
        # each tile point's bit, at its flat index in the tables less its
        # row's offset
        offset = sample * wide + point[pts] // 64 - w0
        bits = np.broadcast_to(bit[pts], offset.shape).ravel()
        table = np.empty(T * n * wide, dtype=np.uint64)
        hit = None
        for r, g in zip(rank, gather):
            table.fill(0)
            table[(r[:, pts] * wide + offset).ravel()] = bits
            np.bitwise_or.accumulate(table.reshape(T, n, wide), axis=1,
                                     out=table.reshape(T, n, wide))
            # mode="clip" skips the bounds check; the rows are in range
            below = table.reshape(T * n, wide).take(g, axis=0, mode="clip")
            hit = below if hit is None else np.bitwise_and(hit, below, out=hit)
        np.bitwise_and(hit.reshape(T, -1), mask.ravel(), out=hit.reshape(T, -1))
        # add the words' bit counts one word column at a time: numpy reduces
        # a short last axis point by point (einsum took 59 us and these adds
        # 22 us on (6400, 4) counts, 2-core x86 host)
        hits = np.bitwise_count(hit)
        for w in range(wide):
            counts += hits[:, w].reshape(T, n)
    return counts


def _trace_counts(order: np.ndarray, pos: np.ndarray, last: np.ndarray,
                  sort_axis: int) -> tuple[np.ndarray, np.ndarray]:
    """(`_trace_ranks` of `pos`, dominance counts (T, n) in trace order) of
    each sample of a stack, from `_ranked`'s `order` and `pos`.

    `last` is the tie rule: the sorted position of the last point counted
    as sharing each point's value.  `pos` breaks ties by first occurrence
    and lets two columns of at least _MERGE_MIN_N points take
    `_merge_counts`; `_last_tied` counts equal values as below each other.
    Other stacks take `_dominance_counts`, whose tied samples must share
    the sort-axis column's ties (a stack of one does).
    """
    rank = _trace_ranks(order, pos, sort_axis)
    if last is not pos:
        cut = last[0, sort_axis].take(order[0, sort_axis])
        return rank, _dominance_counts(rank, _trace_ranks(order, last, sort_axis), cut)
    if rank.shape[0] == 1 and rank.shape[2] >= _MERGE_MIN_N:
        # a point's count is itself plus the earlier trace points that lie
        # below it in the other column
        return rank, _merge_counts(rank[0])
    return rank, _dominance_counts(rank, rank, np.arange(rank.shape[2]))


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


def _fold(ufunc, p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """ufunc over the coordinates of points p, applied one coordinate at a
    time in order, as a plain loop over each point would; into `out` if
    given.  numpy reduces a short last axis point by point: at 4,200
    two-dimensional points, p.min(axis=-1) took 185 us and this 5 us
    (2-core x86 host)."""
    if out is None:
        out = p[..., 0].copy()
    else:
        np.copyto(out, p[..., 0])
    for k in range(1, p.shape[-1]):
        ufunc(out, p[..., k], out=out)
    return out


def _frechet_lower(p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    out = _fold(np.add, p, out)
    out += 1.0
    out -= p.shape[-1]
    return np.maximum(out, 0.0, out=out)


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
    # three value-sized buffers: an envelope or pi that is not needed for a
    # while is computed again from p, which gives the same bits, rather
    # than kept; ufuncs masked with `where` took ten times as long
    upper = _fold(np.minimum, p)
    out = np.add(upper, tol, out=np.empty_like(upper))
    beyond = np.greater(c, out, out=np.empty(c.shape, dtype=bool))
    if beyond.any():
        raise BoundsViolated(
            f"copula value {c[beyond][0]} exceeds upper bound {upper[beyond][0]} "
            f"beyond tol {tol}"
        )
    lower = _frechet_lower(p)
    np.less(c, np.subtract(lower, tol, out=out), out=beyond)
    if beyond.any():
        raise BoundsViolated(
            f"copula value {c[beyond][0]} below lower bound {lower[beyond][0]} "
            f"beyond tol {tol}"
        )
    # clamp: to upper where c exceeds it, else to lower where c is below it
    np.maximum(c, lower, out=out)
    np.putmask(out, np.greater(c, upper, out=beyond), upper)
    # the gap to pi of the upper envelope where c >= pi, else the lower one
    pi = _fold(np.multiply, p, out=upper)
    np.greater_equal(out, pi, out=beyond)
    out -= pi
    np.putmask(lower, beyond, _fold(np.minimum, p, out=upper))
    denom = np.subtract(lower, _fold(np.multiply, p, out=upper), out=lower)
    np.greater_equal(np.abs(denom, out=upper), DEGENERATE_EPS, out=beyond)
    np.divide(out, denom, out=out, where=beyond)
    np.putmask(out, ~beyond, 1.0)
    return out[()]
