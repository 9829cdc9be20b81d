"""The copula statistic: a rank-based score of multivariate dependence.

The estimator walks the empirical copula along the sample sorted by one
coordinate, splits that trace into maximal monotone runs, scores each run
by the relative distance of its extreme copula values from independence,
and averages the scores weighted by run size.  Runs whose shared boundary
looks like a local optimum of the underlying functional dependence are
credited a full score.

The result lies in [0, 1]: near 0 for independent data, exactly 1 for
noise-free monotone dependence at any n >= 2, and asymptotically 1 for any
functional dependence.

One private scorer, `_score_ranks`, scores a stack of samples in array
passes from their column ranks: `_cos_batch` hands it the ranks of the
Monte Carlo pipelines' blocks of trials and `copula_statistic` those of a
stack of one.  The public stage functions run the same passes one stage
at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

# pseudo_observations stays importable from this module because perfbench's
# tracer swaps it here
from .copula_core import (  # noqa: F401
    PseudoSample,
    _observations,
    _tied_ranks,
    _trace_counts,
    _varying_ranks,
    as_sample,
    pseudo_observations,
    relative_distance,
)
from .errors import InvalidInput

NON_DECREASING = "non-decreasing"
NON_INCREASING = "non-increasing"

#: CosReport.summary()'s run-length groups, in points per run, and the
#: smallest length of every group after the first
RUN_GROUPS = ("2", "3", "4-5", ">5")
_GROUP_STARTS = np.array([3, 4, 6])


class Trace(NamedTuple):
    """Empirical copula evaluated along the sample sorted by one axis.

    points  -- (n, d) pseudo-observations in sorted order
    values  -- (n,) copula value at each sorted point
    order   -- (n,) original row index of each sorted point
    """

    points: np.ndarray
    values: np.ndarray
    order: np.ndarray


@dataclass(frozen=True, eq=False)
class DomainPartition:
    """Maximal monotone runs of a trace, as parallel arrays with one entry
    per run in trace order; sum(n_points) = n + m - 1.

    `start`/`end` are inclusive indices into the trace; consecutive runs
    share exactly one boundary index.  `rising` is True for a
    non-decreasing run.  `argmin`/`argmax` are trace indices of the first
    point attaining the run's extreme copula values.
    """

    start: np.ndarray
    end: np.ndarray
    rising: np.ndarray
    argmin: np.ndarray
    argmax: np.ndarray
    local_opt_min: np.ndarray
    local_opt_max: np.ndarray

    @property
    def m(self) -> int:
        return self.start.size

    @property
    def n_points(self) -> np.ndarray:
        return self.end - self.start + 1


@dataclass(frozen=True)
class DomainRecord:
    """Per-run diagnostics carried by a CosReport."""

    start: int
    end: int
    direction: str
    n_points: int
    lambda_min: float
    lambda_max: float
    gamma: float
    local_opt_min: bool
    local_opt_max: bool


@dataclass(frozen=True, eq=False)
class CosReport:
    """Copula statistic plus the per-run arrays that produced it.

    The arrays hold one entry per run, in trace order, with fields as in
    DomainRecord; `rising` is True for a non-decreasing run.  `domains`
    builds the DomainRecord tuple from them on each access.  Reports
    compare equal when every field and every array entry is equal.
    """

    cos: float
    n: int
    d: int
    sort_axis: int
    start: np.ndarray
    end: np.ndarray
    rising: np.ndarray
    lambda_min: np.ndarray
    lambda_max: np.ndarray
    gamma: np.ndarray
    local_opt_min: np.ndarray
    local_opt_max: np.ndarray

    @property
    def m(self) -> int:
        return self.start.size

    @property
    def n_points(self) -> np.ndarray:
        return self.end - self.start + 1

    def domain_columns(self) -> dict[str, list]:
        """The runs' DomainRecord fields, one list per field name, in field order."""
        direction = np.where(self.rising, NON_DECREASING, NON_INCREASING)
        return {f.name: (direction if f.name == "direction" else getattr(self, f.name)).tolist()
                for f in fields(DomainRecord)}

    @property
    def domains(self) -> tuple[DomainRecord, ...]:
        """The runs as DomainRecord records, built on each access."""
        return tuple(map(DomainRecord, *self.domain_columns().values()))

    def summary(self) -> dict:
        """The runs grouped by length, as a dict ready for JSON.

        `groups` names the groups (2, 3, 4-5 and more than 5 points); the
        lists after it give, group by group, the number of runs, their
        points, the runs credited as local optima and the group's share of
        the score, sum(n_points * gamma) / (n + m - 1), so the shares add
        up to `cos`.  `flagged_boundaries` counts the interior boundaries
        flagged as local optima.  The dict's size does not depend on m.
        """
        n_points = self.n_points
        group = np.searchsorted(_GROUP_STARTS, n_points, side="right")
        k = len(RUN_GROUPS)
        credited = self.local_opt_min | self.local_opt_max
        # adjacent runs turn opposite ways, so a flag on the side a run turns
        # (a rising run's maximum, a falling run's minimum) is the flag of
        # the boundary that ends it
        flagged = np.where(self.rising, self.local_opt_max, self.local_opt_min)
        share = np.bincount(group, n_points * self.gamma, k) / (self.n + self.m - 1)
        return {
            "groups": list(RUN_GROUPS),
            "runs": np.bincount(group, minlength=k).tolist(),
            "points": np.bincount(group, n_points, k).astype(np.int64).tolist(),
            "credited": np.bincount(group[credited], minlength=k).tolist(),
            "share": share.tolist(),
            "flagged_boundaries": int(np.count_nonzero(flagged)),
        }

    def __eq__(self, other):
        if not isinstance(other, CosReport):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))


def copula_trace(ps: PseudoSample, sort_axis: int = 0) -> Trace:
    """Evaluate the empirical copula at every sample point, sorted by one axis.

    Points are ordered by their pseudo-coordinate on `sort_axis` (stable on
    the original index); each trace value is C_n at the point's full
    pseudo-coordinate vector: its exact count of points at or below it in
    every coordinate, ties included, divided by n.  A sample needs at
    least one row and two columns.
    """
    if ps.n < 1 or ps.d < 2:
        raise InvalidInput(f"trace needs at least 1 row and 2 columns, got shape {ps.u.shape}")
    if not 0 <= sort_axis < ps.d:
        raise InvalidInput(f"sort_axis {sort_axis} out of range for d={ps.d}")
    order, pos, last = _tied_ranks(ps.u[None])
    _, counts = _trace_counts(order, pos, last, sort_axis)
    by_axis = order[0, sort_axis]
    return Trace(points=ps.u[by_axis], values=counts[0] / ps.n, order=by_axis)


def _trace_values(trace) -> np.ndarray:
    if isinstance(trace, Trace):
        return np.asarray(trace.values, dtype=float)
    return np.asarray(trace, dtype=float).ravel()


def _runs(s: np.ndarray) -> tuple[np.ndarray, ...]:
    """Maximal monotone runs of each trace in a (T, n) stack, run by run
    in trace order: (trace_id, start, end, rising, argmin, argmax), indices
    within their trace as in DomainPartition."""
    n = s.shape[1]
    step = np.diff(s, axis=1)
    # a step led to index 0 in the direction of the first non-zero step
    # (up in a flat trace; down for NaN, as `up` below counts it), so each
    # trace opens a run of its own
    first_step = np.take_along_axis(step, (step != 0).argmax(axis=1)[:, None], axis=1)
    lead = np.where(first_step >= 0, 1.0, -1.0)
    steps = np.hstack([lead, step]).ravel()  # step j + 1 is s[j] -> s[j + 1]
    strict = np.flatnonzero(steps)
    up = steps[strict] > 0
    trace_id, j = np.divmod(strict, n)
    # position in `strict` of each run's first and last strict step
    opens = j == 0
    opens[1:] |= up[1:] != up[:-1]
    first = np.flatnonzero(opens)
    last = np.append(first[1:], strict.size) - 1
    trace_id = trace_id[first]
    start = np.maximum(j[first] - 1, 0)
    ends_trace = np.append(trace_id[1:] != trace_id[:-1], True)
    end = np.where(ends_trace, n - 1, np.append(start[1:], 0))
    rising = up[first]
    # a monotone run first attains one extreme at its start and the other
    # one past its last strict step, where its closing plateau begins
    late = j[last]
    argmin = np.where(rising, start, late)
    argmax = np.where(rising, late, start)
    return trace_id, start, end, rising, argmin, argmax


def partition_domains(trace) -> DomainPartition:
    """Split a trace into maximal monotone runs.

    Plateaus never break a run; a run's direction is fixed by its first
    strict change, and a fully flat trace is a single non-decreasing run.
    Consecutive runs share their boundary index.
    """
    s = _trace_values(trace)
    if s.size < 2:
        raise InvalidInput("trace needs at least 2 points")
    _, *runs = _runs(s[None])  # runs in DomainPartition's field order
    no_flags = np.zeros(runs[0].size, dtype=bool)
    return DomainPartition(*runs, no_flags, no_flags)


def _optima(s, trace_id, end, n_points, rising, n) -> tuple[np.ndarray, np.ndarray]:
    """(local_opt_min, local_opt_max) of runs given as `_runs` gives them
    over a (T, len) stack of traces; see `detect_local_optima`."""
    flat = s.ravel()
    thr = (1.0 / n) * (1.0 + 1e-9)
    j = trace_id[:-1] * s.shape[1] + end[:-1]
    left, right = n_points[:-1], n_points[1:]
    long_runs = (left > 4) & (right > 4)
    small_steps = (np.abs(flat[j] - flat[j - 1]) <= thr) & (np.abs(flat[j + 1] - flat[j]) <= thr)
    flagged = (long_runs | (small_steps & (left + right > 4))) & (trace_id[:-1] == trace_id[1:])
    # rising into a boundary then falling out is a local maximum
    peak = flagged & rising[:-1]
    valley = flagged & ~rising[:-1]
    return (np.append(valley, False) | np.append(False, valley),
            np.append(peak, False) | np.append(False, peak))


def detect_local_optima(trace, part: DomainPartition, n: int) -> DomainPartition:
    """Flag run boundaries that look like local optima of the dependence.

    An interior boundary index j between two adjacent runs is flagged when
    either

    * both runs hold more than four points (boundary counted in both), or
    * both |s_j - s_{j-1}| and |s_{j+1} - s_j| are at most 1/n and the two
      runs together hold more than four points.

    Noise breaks the trace into runs of two or three points, so a turn
    between two long runs is a turn of the underlying dependence whatever
    the trace step there.  A fixed 1/n step bound misses many of these
    turns: next to an optimum of y = f(x) a trace step is (1 +- k)/n, where
    k counts the earlier points whose y lies between the y values of the
    step's two points (+ where y rises, - where it falls).  k is zero only
    at an optimum whose level no earlier part of f reaches.  Where earlier
    optima or branches share the level, as every peak of a sine does, the
    steps there are several times 1/n.
    The step clause still credits a turn between short runs.
    The flag is recorded on the extremum side of each adjacent run.
    """
    s = _trace_values(trace)
    one_trace = np.zeros(part.m, dtype=np.intp)
    lo_min, lo_max = _optima(s[None], one_trace, part.end, part.n_points, part.rising, n)
    return replace(part, local_opt_min=lo_min, local_opt_max=lo_max)


def domain_gamma(lambda_min, lambda_max, flagged):
    """Score of each run: 1 at a flagged local optimum, else the mean lambda."""
    return np.where(flagged, 1.0, 0.5 * (lambda_min + lambda_max))[()]


def _score_ranks(order: np.ndarray, pos: np.ndarray, sort_axis: int) -> tuple[np.ndarray, ...]:
    """(cos, start, end, rising, lambda_min, lambda_max, gamma,
    local_opt_min, local_opt_max) of a (T, n, d) stack traced along
    `sort_axis`, from ordinal ranks as `_varying_ranks` gives them (any
    permutations `pos` and their inverses `order`): the (T,) statistic,
    then every trace's runs in trace order, fields as in CosReport."""
    T, d, n = pos.shape
    if not 0 <= sort_axis < d:
        raise InvalidInput(f"sort_axis {sort_axis} out of range for d={d}")
    rank, counts = _trace_counts(order, pos, pos, sort_axis)
    s = counts / n
    trace_id, start, end, rising, argmin, argmax = _runs(s)
    n_points = end - start + 1
    lo_min, lo_max = _optima(s, trace_id, end, n_points, rising, n)
    # lambda at every trace point, whose pseudo-observation is (i + 1) / n
    # on the sort axis for trace index i and (rank + 1) / n on the other
    # axes, read at each run's extreme points
    p = np.empty((T, n, d))
    p[..., sort_axis] = np.arange(n)
    p[..., np.arange(d) != sort_axis] = np.moveaxis(rank, 0, -1)
    p += 1
    p /= n
    lam = relative_distance(s, p, 1.0 / (2 * n)).ravel()
    lam_min, lam_max = lam[trace_id * n + argmin], lam[trace_id * n + argmax]
    gamma = domain_gamma(lam_min, lam_max, lo_min | lo_max)
    # bincount adds each trace's weights one at a time in run order, the
    # running sum a plain loop gives, so a value does not depend on T
    m = np.bincount(trace_id, minlength=T)
    cos = np.bincount(trace_id, n_points * gamma, T) / (n + m - 1)
    return cos, start, end, rising, lam_min, lam_max, gamma, lo_min, lo_max


def _cos_batch(x) -> np.ndarray:
    """copula_statistic(x[t]).cos for every sample of a (T, n, d) stack,
    from one rank pass and one `_score_ranks` pass over the whole stack."""
    return _score_ranks(*_varying_ranks(_observations(x, ("T", "n", "d"))), 0)[0]


def copula_statistic(sample, sort_axis: int = 0) -> CosReport:
    """Compute the copula statistic of an n-by-d sample.

    The trace is sorted on `sort_axis` (column 0 by default).  It counts
    every point's dominated points: by merge levels in O(n log n) for two
    columns and n >= _MERGE_MIN_N, else with 64-point bitsets over tiles
    of the trace in about d n^2 / 128 word operations.  Each tile builds a
    prefix table over its own points for each column other than the sort
    axis, and skips the trace points that lie before it on the sort axis.
    Scoring the runs is O(n) array work.  The result is deterministic in the input:
    it is `_score_ranks`' stack of one, bit-identical to `_cos_batch`.  The
    report keeps the runs as arrays; reading `report.domains` builds their
    DomainRecords, which no part of the statistic needs.
    """
    x = as_sample(sample).data
    cos, *runs = _score_ranks(*_varying_ranks(x[None]), sort_axis)  # in CosReport's order
    return CosReport(float(cos[0]), *x.shape, sort_axis, *runs)
