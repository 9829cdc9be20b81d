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

import math
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
# merge levels, O(n log n), rather than by the bitset kernel.  On the four
# kinds of n-point sample of the large_bivariate_cli benchmark, merge
# levels took a median over the kinds of 1.21-1.36 times the kernel's time
# at n = 5000, 1.13-1.21 at 6000, 0.87-0.94 at 7000 and 0.83-0.93 at 8000
# (three runs of 30-40 alternating rounds; 2-core x86 host).  With one n
# per process the median crossed 1 near 7350; whole copula_statistic calls
# crossed it below 6000.  A monotone sample, which merge levels sort
# fastest, crosses first: 0.86-0.91 at 5000.
_MERGE_MIN_N = 7000

# uint64 words per tile of _dominance_counts (512 points) for n < 8100;
# larger samples take isqrt(n) // 10 words, as each tile's O(n) set-up
# then weighs more.  Against 8-word tiles, 4-word tiles took 1.21-1.30 of
# the time from n = 2000, d = 5 to n = 50000, d = 3; 16-word tiles 1.13
# at n = 2000, 0.96 at 5000, 0.83 at 20000 and 0.74 at 50000; 24-word
# tiles 2.48, 1.18, 0.87 and 0.73 (medians of 8 alternating rounds).
# Rows are gathered _GATHER_WORDS words (256 KiB) at a time: at n = 20000,
# d = 3, gathers of 8K words took 1.09 of its time, 16K 1.02, 64K 1.22
# and 128K 1.37 (10 rounds; 2-core x86 host).
_TILE_WORDS = 8
_GATHER_WORDS = 1 << 15


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
        # NaN fails both comparisons, where min and max would pass it
        if not ((a > 0.0) & (a <= 1.0)).all():
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
    adjacent sorted values are equal are sorted again, stably, by dense
    value ids: the count of value changes before each sorted position,
    scattered back to the points.  Ids of at most 16 bits (n <= 65,536)
    take numpy's stable radix sort: 107 us against 310 us for a stable
    sort of the values of three 20-level columns at n = 2000 (2-core x86
    host).
    """
    columns = np.ascontiguousarray(x.transpose(0, 2, 1))
    order = np.argsort(columns, axis=2)
    rows = _rows(order)
    ranked = columns.ravel().take(order + rows)
    tied = (ranked[..., 1:] == ranked[..., :-1]).any(axis=2)
    if tied.any():
        values = ranked[tied]
        ids = np.zeros(values.shape, dtype=np.min_scalar_type(values.shape[1] - 1))
        np.cumsum(values[:, 1:] != values[:, :-1], axis=1, dtype=ids.dtype, out=ids[:, 1:])
        by_point = np.empty_like(ids)
        by_point.ravel()[(order[tied] + _rows(ids)).ravel()] = ids.ravel()
        order[tied] = np.argsort(by_point, axis=1, kind="stable")
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


def as_unit_point(point) -> np.ndarray:
    """Validate unit-hypercube points, coordinates on the last axis."""
    p = np.atleast_1d(np.asarray(point, dtype=float))
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
        gives the same values, in trace order, in about d n^2 / 128 word
        operations (`_dominance_counts`).
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


def _triangle(wide: int) -> np.ndarray:
    """(64 wide, wide) bitsets over a tile of 64 wide points: row c holds
    points 0..c, all ones before c's own word, bits 0..c % 64 in it and
    none after."""
    w = np.arange(wide)
    triangle = np.where(w[:, None] > w, _LOW_BITS[63], np.uint64(0)).repeat(64, axis=0)
    triangle.reshape(wide, 64, wide)[w, :, w] = _LOW_BITS
    return triangle


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

    Bit i of a bitset stands for trace point i, and the points are tiled
    by W = max(_TILE_WORDS, isqrt(n) // 10) 64-bit words, the last tile
    holding what is left.  On the sort axis, the points at or below
    point i are trace points 0..cut[i]: none of a tile's points when
    cut[i] lies before the tile, so the tile skips those rows; all of them
    when it lies after; else a row of `_triangle`.  In another column, row
    m of the tile's prefix table is the bitset of the tile's m
    lowest-ranked points, so point i reads the row numbered by how many
    tile points rank at or below its `row`: a running count over a flag
    per tile point, or `row` + 1 when one tile holds every point.  AND-ing
    one table row per other column with the sort-axis bitset and counting
    bits gives the tile's share of point i's count.  For W-word tiles a
    tile's tables cost O(d T (n + 64 W^2)) to build, and gathering the
    rows of all tiles O(d T n^2 / 128) word operations, _GATHER_WORDS
    words at a time.
    """
    columns, T, n = rank.shape
    words = -(-n // 64)
    wide = min(words, max(_TILE_WORDS, math.isqrt(n) // 10))
    triangle = _triangle(wide)
    point = np.arange(n)
    bit = np.left_shift(np.uint64(1), (point % 64).astype(np.uint64))
    # one table per column and sample, each of `height` rows
    table_id = (np.arange(columns)[:, None, None] * T + np.arange(T)[:, None])
    if wide == words:
        # one tile: a point's table row is its rank's, after the empty row
        place = rank + (table_id * (n + 1) + 1)
        look = place if row is rank else row + (table_id * (n + 1) + 1)
    else:
        flat_rank = rank + table_id * n  # flat indices into (columns, T, n)
        flat_row = flat_rank if row is rank else row + table_id * n
        tile_point = np.empty((columns, T, n), dtype=np.int8)
        table_row = np.empty((columns, T, n), dtype=np.intp)
    # each point's bit count by word of its tile, summed over tiles; no
    # sum exceeds the point's count
    bit_counts = np.zeros((T, n, wide), dtype=np.min_scalar_type(n))
    chunk = max(1, _GATHER_WORDS // (T * wide))
    buffer = np.empty(columns * T * (min(n, 64 * wide) + 1) * wide, dtype=np.uint64)
    for w0 in range(0, words, wide):
        p0, p1 = 64 * w0, min(64 * (w0 + wide), n)  # the tile's points
        tile_words = -(-(p1 - p0) // 64)
        height = p1 - p0 + 1
        if wide < words:
            # each position's count of tile points ranked at or below it
            tile_point.fill(0)
            tile_point.ravel()[flat_rank[..., p0:p1]] = 1
            np.cumsum(tile_point, axis=2, out=table_row)
            table_row += table_id * height
            place = table_row.ravel().take(flat_rank[..., p0:p1])
        tables = buffer[:columns * T * height * tile_words].reshape(-1, tile_words)
        tables.fill(0)
        # each tile point's bit, at its flat index in the tables
        tables.ravel()[place * tile_words + (point[p0:p1] // 64 - w0)] = bit[p0:p1]
        stacked = tables.reshape(columns * T, height, tile_words)
        np.bitwise_or.accumulate(stacked, axis=1, out=stacked)
        # rows from lo on reach into the tile; rows from mid on cover all of it
        lo, mid = cut.searchsorted([p0, p1])
        for c0 in range(lo, n, chunk):
            c1 = min(c0 + chunk, n)
            hit = None
            for k in range(columns):
                at = (look[k, :, c0:c1] if wide == words
                      else table_row.ravel().take(flat_row[k, :, c0:c1]))
                # mode="clip" skips the bounds check; the rows are in range
                got = tables.take(at, axis=0, mode="clip")
                hit = got if hit is None else np.bitwise_and(hit, got, out=hit)
            if c0 < mid:
                masked = hit[:, :min(mid, c1) - c0]
                mask = triangle.take(cut[c0:min(mid, c1)] - p0, axis=0)[:, :tile_words]
                np.bitwise_and(masked, mask, out=masked)
            into = bit_counts[:, c0:c1, :tile_words]
            np.add(into, np.bitwise_count(hit), out=into)
    # numpy sums a short last axis point by point; einsum does not
    return np.einsum("tnw->tn", bit_counts).astype(np.int64)


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
