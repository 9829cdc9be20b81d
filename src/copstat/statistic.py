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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .copula_core import (
    EmpiricalCopula,
    PseudoSample,
    as_sample,
    pseudo_observations,
    relative_distance,
)
from .errors import InvalidInput

NON_DECREASING = "non-decreasing"
NON_INCREASING = "non-increasing"


class Trace(NamedTuple):
    """Empirical copula evaluated along the sample sorted by one axis.

    points  -- (n, d) pseudo-observations in sorted order
    values  -- (n,) copula value at each sorted point
    order   -- (n,) original row index of each sorted point
    """

    points: np.ndarray
    values: np.ndarray
    order: np.ndarray


@dataclass(frozen=True)
class DomainRun:
    """One maximal monotone run of the trace.

    `start`/`end` are inclusive indices into the trace; consecutive runs
    share exactly one boundary index.  `argmin`/`argmax` are trace indices
    of the first point attaining the run's extreme copula values.
    """

    start: int
    end: int
    direction: str
    c_min: float
    c_max: float
    argmin: int
    argmax: int
    local_opt_min: bool = False
    local_opt_max: bool = False

    @property
    def n_points(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True, eq=False)
class DomainPartition:
    """Monotone-run decomposition of a trace; sum(n_points) = n + m - 1.

    Parallel arrays with one entry per run, fields as in DomainRun;
    `rising` is True for a non-decreasing run.
    """

    start: np.ndarray
    end: np.ndarray
    rising: np.ndarray
    argmin: np.ndarray
    argmax: np.ndarray
    c_min: np.ndarray
    c_max: np.ndarray
    local_opt_min: np.ndarray
    local_opt_max: np.ndarray

    @property
    def m(self) -> int:
        return self.start.size

    @property
    def n_points(self) -> np.ndarray:
        return self.end - self.start + 1

    @property
    def direction(self) -> np.ndarray:
        return np.where(self.rising, NON_DECREASING, NON_INCREASING)

    @property
    def runs(self) -> tuple[DomainRun, ...]:
        """The runs as DomainRun records, built on each access."""
        columns = (self.start, self.end, self.direction, self.c_min, self.c_max,
                   self.argmin, self.argmax, self.local_opt_min, self.local_opt_max)
        return tuple(map(DomainRun, *(c.tolist() for c in columns)))


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


@dataclass(frozen=True)
class CosReport:
    """Copula statistic plus the per-domain breakdown that produced it."""

    cos: float
    n: int
    d: int
    m: int
    sort_axis: int
    domains: tuple[DomainRecord, ...]


def copula_trace(ps: PseudoSample, sort_axis: int = 0) -> Trace:
    """Evaluate the empirical copula at every sample point, sorted by one axis.

    Points are ordered by their pseudo-coordinate on `sort_axis` (stable on
    the original index); each trace value is C_n at the point's full
    pseudo-coordinate vector.
    """
    if not 0 <= sort_axis < ps.d:
        raise InvalidInput(f"sort_axis {sort_axis} out of range for d={ps.d}")
    order = np.argsort(ps.u[:, sort_axis], kind="stable")
    points = ps.u[order]
    values = EmpiricalCopula(ps).cdf_many(points)
    return Trace(points=points, values=values, order=order)


def _trace_values(trace) -> np.ndarray:
    if isinstance(trace, Trace):
        return np.asarray(trace.values, dtype=float)
    return np.asarray(trace, dtype=float).ravel()


def partition_domains(trace) -> DomainPartition:
    """Split a trace into maximal monotone runs.

    Plateaus never break a run; a run's direction is fixed by its first
    strict change, and a fully flat trace is a single non-decreasing run.
    Consecutive runs share their boundary index.
    """
    s = _trace_values(trace)
    n = s.size
    if n < 2:
        raise InvalidInput("trace needs at least 2 points")

    step = np.diff(s)
    strict = np.flatnonzero(step)  # j with s[j + 1] != s[j]
    up = step[strict] > 0
    if strict.size == 0:
        # a flat trace: one rising run, as if a step led up to index 0
        strict, up = np.array([-1]), np.array([True])
    # position in `strict` of each run's first and last strict step
    first = np.flatnonzero(np.diff(up, prepend=~up[0]))
    last = np.append(first[1:], strict.size) - 1
    start = np.append(0, strict[first[1:]])
    end = np.append(start[1:], n - 1)
    rising = up[first]
    # a monotone run first attains one extreme at its start and the other
    # one past its last strict step, where its closing plateau begins
    late = strict[last] + 1
    argmin = np.where(rising, start, late)
    argmax = np.where(rising, late, start)
    no_flags = np.zeros(start.size, dtype=bool)
    return DomainPartition(
        start=start,
        end=end,
        rising=rising,
        argmin=argmin,
        argmax=argmax,
        c_min=s[argmin],
        c_max=s[argmax],
        local_opt_min=no_flags,
        local_opt_max=no_flags,
    )


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
    thr = (1.0 / n) * (1.0 + 1e-9)
    j = part.end[:-1]
    left, right = part.n_points[:-1], part.n_points[1:]
    long_runs = (left > 4) & (right > 4)
    small_steps = (np.abs(s[j] - s[j - 1]) <= thr) & (np.abs(s[j + 1] - s[j]) <= thr)
    flagged = long_runs | (small_steps & (left + right > 4))
    # rising into a boundary then falling out is a local maximum
    peak = flagged & part.rising[:-1]
    valley = flagged & ~part.rising[:-1]
    return replace(
        part,
        local_opt_min=np.append(valley, False) | np.append(False, valley),
        local_opt_max=np.append(peak, False) | np.append(False, peak),
    )


def domain_gamma(lambda_min, lambda_max, flagged):
    """Score of each run: 1 at a flagged local optimum, else the mean lambda."""
    return np.where(flagged, 1.0, 0.5 * (lambda_min + lambda_max))[()]


def copula_statistic(sample, sort_axis: int = 0) -> CosReport:
    """Compute the copula statistic of an n-by-d sample.

    The trace is sorted on `sort_axis` (column 0 by default).  Runtime is
    O(d n^2), as the trace compares every pair of points; scoring the runs is
    O(n) array work.  The result is deterministic in the input.
    """
    sample = as_sample(sample)
    ps = pseudo_observations(sample)
    n = ps.n
    trace = copula_trace(ps, sort_axis=sort_axis)
    part = detect_local_optima(trace, partition_domains(trace), n)

    tol = 1.0 / (2 * n)
    lam_min = relative_distance(part.c_min, trace.points[part.argmin], tol)
    lam_max = relative_distance(part.c_max, trace.points[part.argmax], tol)
    gamma = domain_gamma(lam_min, lam_max, part.local_opt_min | part.local_opt_max)
    m = part.m
    # cumsum adds in run order, so the total is that of a running sum
    cos = float(np.cumsum(part.n_points * gamma)[-1] / (n + m - 1))
    columns = (part.start, part.end, part.direction, part.n_points, lam_min,
               lam_max, gamma, part.local_opt_min, part.local_opt_max)
    records = tuple(map(DomainRecord, *(c.tolist() for c in columns)))
    return CosReport(cos=cos, n=n, d=ps.d, m=m, sort_axis=sort_axis, domains=records)
