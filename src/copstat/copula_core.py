"""Empirical copulas over rank-transformed data.

Rank transform to pseudo-observations, exact step-function evaluation of
the d-dimensional empirical copula, the Frechet-Hoeffding envelopes, the
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


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Sample:
    """An n-by-d matrix of finite real observations, one variable per column."""

    data: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.data, dtype=float)
        if a.ndim != 2:
            raise InvalidInput("sample must be a 2-D array of shape (n, d)")
        n, d = a.shape
        if n < 2:
            raise InvalidInput(f"sample needs at least 2 rows, got {n}")
        if d < 2:
            raise InvalidInput(f"sample needs at least 2 columns, got {d}")
        if not np.isfinite(a).all():
            raise InvalidInput("sample contains NaN or Inf values")
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
    """Rank-transformed data: entry (j, k) is rank(x_jk)/n, in (0, 1].

    Ranks are ordinal with ties broken by original index order, so every
    column is a permutation of {1/n, ..., n/n}.
    """

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


def _ordinal_ranks(col: np.ndarray) -> np.ndarray:
    """Ranks 1..n, ties resolved by first occurrence (stable sort)."""
    order = np.argsort(col, kind="stable")
    ranks = np.empty(col.size, dtype=np.int64)
    ranks[order] = np.arange(1, col.size + 1)
    return ranks


def pseudo_observations(sample) -> PseudoSample:
    """Rank-transform each column of `sample` to pseudo-observations R/n.

    Raises DegenerateMarginal if a column is constant and InvalidInput on
    NaN/Inf or fewer than 2 rows.
    """
    sample = as_sample(sample)
    n = sample.n
    u = np.empty((n, sample.d), dtype=float)
    for k in range(sample.d):
        col = sample.column(k)
        if np.all(col == col[0]):
            raise DegenerateMarginal(f"column {k} is constant")
        u[:, k] = _ordinal_ranks(col) / n
    return PseudoSample(u=u)


def as_unit_point(point, d: int | None = None) -> np.ndarray:
    """Validate unit-hypercube points, coordinates on the last axis (d of them if given)."""
    p = np.atleast_1d(np.asarray(point, dtype=float))
    if d is not None and p.shape[-1] != d:
        raise DimensionMismatch(f"expected a {d}-dimensional point, got {p.shape[-1]}")
    if p.size < 1 or not np.isfinite(p).all():
        raise InvalidInput("point coordinates must be finite")
    if p.min() < 0.0 or p.max() > 1.0:
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
        p = as_unit_point(np.ravel(point), self.d)
        inside = np.all(self.points.u <= p, axis=1)
        return int(np.count_nonzero(inside)) / self.n

    def cdf_many(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate C_n at each row of an (m, d) array of unit points."""
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.d:
            raise DimensionMismatch(
                f"expected points of shape (m, {self.d}), got {pts.shape}"
            )
        u = self.points.u
        m = pts.shape[0]
        out = np.empty(m, dtype=float)
        block = max(1, _EVAL_BLOCK_CELLS // (self.n * self.d))
        for lo in range(0, m, block):
            hi = min(lo + block, m)
            hit = np.all(u[None, :, :] <= pts[lo:hi, None, :], axis=2)
            out[lo:hi] = hit.sum(axis=1, dtype=np.int64)
        return out / self.n


def empirical_copula(sample) -> EmpiricalCopula:
    """Rank-transform `sample` and wrap it as an empirical copula."""
    return EmpiricalCopula(pseudo_observations(sample))


def frechet_upper(point):
    """Upper Frechet-Hoeffding envelope M(u) = min of the coordinates."""
    return as_unit_point(point).min(axis=-1)[()]


def frechet_lower(point):
    """Lower Frechet-Hoeffding envelope W(u) = max(sum(u) + 1 - d, 0)."""
    p = as_unit_point(point)
    return np.maximum(p.sum(axis=-1) + 1.0 - p.shape[-1], 0.0)[()]


def product_copula(point):
    """Independence copula Pi(u) = product of the coordinates."""
    return as_unit_point(point).prod(axis=-1)[()]


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
    upper, lower, pi = frechet_upper(p), frechet_lower(p), product_copula(p)
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
