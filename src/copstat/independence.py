"""Calibrated independence testing on top of the copula statistic.

The statistic's null distribution shifts with sample size, so the test
standardizes against power-law models of the null mean and standard
deviation fitted over a grid of sample sizes, then applies a two-sided
normal test.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .copula_core import as_sample
from .errors import InvalidGrid, InvalidInput, InvalidParam
from .statistic import _cos_batch, copula_statistic
# derive_rng and sample_copula stay importable from this module because
# perfbench's tracer swaps them here
from .synth import _copula, _uniform_pairs, derive_rng, mc_values, sample_copula  # noqa: F401

H0 = "independent"
H1 = "dependent"


@dataclass(frozen=True)
class CalibrationCurve:
    """Power-law models mu(n) = a n^b and sigma(n) = a n^b of the null.

    Both exponents must be negative: bias and spread shrink with n.
    """

    mu_model: tuple[float, float]
    sigma_model: tuple[float, float]
    fit_grid: tuple[int, ...] = ()
    trials_per_n: int = 0
    seed: int | None = None

    def __post_init__(self) -> None:
        for name, (a, b) in (("mu", self.mu_model), ("sigma", self.sigma_model)):
            if not (math.isfinite(a) and math.isfinite(b)):
                raise InvalidInput(f"{name} model parameters must be finite, got ({a}, {b})")
            if a <= 0:
                raise InvalidInput(f"{name} model amplitude must be positive, got {a}")
            if b >= 0:
                raise InvalidInput(f"{name} model exponent must be negative, got {b}")

    def predict_mu(self, n: int) -> float:
        a, b = self.mu_model
        return a * n**b

    def predict_sigma(self, n: int) -> float:
        a, b = self.sigma_model
        return a * n**b

    def to_json(self) -> str:
        """The curve as compact JSON, as the CLI writes every document."""
        return json.dumps(
            {
                "mu": {"a": self.mu_model[0], "b": self.mu_model[1]},
                "sigma": {"a": self.sigma_model[0], "b": self.sigma_model[1]},
                "grid": list(self.fit_grid),
                "trials": self.trials_per_n,
                "seed": self.seed,
            },
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "CalibrationCurve":
        """The curve `to_json` wrote.  Raises InvalidInput on text that is
        not a JSON object, naming any field that is missing or has the
        wrong type."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidInput(f"calibration curve is not JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise InvalidInput("calibration curve must be a JSON object")
        models = {}
        for name in ("mu", "sigma"):
            model = _field(doc, name, lambda v: isinstance(v, dict), "an object")
            models[name] = tuple(_field(model, k, _is_number, "a finite number", f"{name}.")
                                 for k in "ab")
        return cls(
            mu_model=models["mu"],
            sigma_model=models["sigma"],
            fit_grid=tuple(_field(doc, "grid", _is_int_list, "a list of integers", default=())),
            trials_per_n=_field(doc, "trials", _is_int, "an integer", default=0),
            seed=_field(doc, "seed", lambda v: v is None or _is_int(v), "an integer or null",
                        default=None),
        )


_REQUIRED = object()


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_int_list(v) -> bool:
    return isinstance(v, list) and all(map(_is_int, v))


def _is_number(v) -> bool:
    return (_is_int(v) or isinstance(v, float)) and math.isfinite(v)


def _field(obj: dict, key: str, valid, what: str, prefix: str = "", default=_REQUIRED):
    """obj[key] of a calibration curve's JSON form if `valid`, else
    InvalidInput naming the field; a missing field gives `default` unless
    it is required."""
    if key not in obj:
        if default is _REQUIRED:
            raise InvalidInput(f"calibration curve has no field {prefix + key!r}")
        return default
    value = obj[key]
    if not valid(value):
        raise InvalidInput(
            f"calibration curve field {prefix + key!r} must be {what}, got {value!r}")
    return value


#: Curve constants reported by the original large independence study.
#: This implementation's null follows a different power law (see
#: DEFAULT_NULL_CURVE), so using these constants miscalibrates the test;
#: they are kept for reference and comparison runs.
PUBLISHED_NULL_CURVE = CalibrationCurve(mu_model=(8.05, -0.74), sigma_model=(2.99, -0.81))

#: Null curves fitted to this implementation over n in [50, 3000]
#: (200-500 trials per grid point, power-law residuals ~1%).  Shipped so
#: the test runs with its nominal size without a calibration pass.
#: Predictions below n = 50 are extrapolations and not meaningful.
DEFAULT_NULL_CURVE = CalibrationCurve(
    mu_model=(3.061, -0.469),
    sigma_model=(0.469, -0.472),
    fit_grid=(50, 100, 200, 300, 500, 700, 1000, 1500, 2000, 3000),
    trials_per_n=200,
    seed=0,
)

#: Grid used when calibrating from scratch with defaults.
DEFAULT_GRID = DEFAULT_NULL_CURVE.fit_grid


@dataclass(frozen=True)
class TestResult:
    """Outcome of the standardized independence test."""

    cos: float
    z: float
    cutoff: float
    alpha: float
    decision: str
    n: int

    @property
    def dependent(self) -> bool:
        return self.decision == H1


def null_moments(n: int, trials: int, seed: int) -> tuple[float, float]:
    """Monte Carlo mean and standard deviation of the statistic under
    independence at one sample size.  Trial t draws n independent uniform
    pairs from the stream derived from (seed, "null", n, t); trials are
    scored in blocks, so results do not depend on evaluation order.
    Needs at least 2 trials for the standard deviation."""
    if trials < 2:
        raise InvalidParam(f"null moments need at least 2 trials, got {trials}")
    vals = mc_values(seed, ("null", n), trials, _uniform_pairs(n), _cos_batch)
    return float(vals.mean()), float(vals.std(ddof=1))


def calibrate_null(
    n_grid=DEFAULT_GRID, trials_per_n: int = 500, seed: int = 0
) -> CalibrationCurve:
    """Fit the null mean and sigma power laws over a grid of sample sizes.

    Each grid point runs `trials_per_n` independent-uniform samples; the
    models are least-squares fits of log(statistic) on log(n).  A fit whose
    mean or sigma does not shrink with n, as on a grid too narrow for the
    trial noise, raises InvalidGrid.
    """
    grid = tuple(int(n) for n in n_grid)
    if len(grid) < 2:
        raise InvalidGrid("need at least two grid sizes to fit a power law")
    if any(n < 50 for n in grid):
        raise InvalidGrid("grid sizes below 50 are too small to calibrate")
    if trials_per_n < 200:
        raise InvalidGrid("need at least 200 trials per grid size")

    mus = np.empty(len(grid))
    sigmas = np.empty(len(grid))
    for i, n in enumerate(grid):
        mus[i], sigmas[i] = null_moments(n, trials_per_n, seed)

    logn = np.log(np.asarray(grid, dtype=float))
    b_mu, loga_mu = np.polyfit(logn, np.log(mus), 1)
    b_sg, loga_sg = np.polyfit(logn, np.log(sigmas), 1)
    growing = [f"{name} exponent {float(b)}" for name, b in (("mu", b_mu), ("sigma", b_sg))
               if not b < 0]
    if growing:
        raise InvalidGrid(f"null fit over grid {list(grid)} with {trials_per_n} trials per size "
                          f"has a non-negative {' and '.join(growing)}; "
                          "widen the grid or add trials")
    return CalibrationCurve(
        mu_model=(math.exp(loga_mu), float(b_mu)),
        sigma_model=(math.exp(loga_sg), float(b_sg)),
        fit_grid=grid,
        trials_per_n=trials_per_n,
        seed=seed,
    )


def test_independence(
    sample, curve: CalibrationCurve = DEFAULT_NULL_CURVE, alpha: float = 0.01
) -> TestResult:
    """Two-sided z-test of independence at significance level `alpha`.

    z standardizes the statistic by the null mean and sigma predicted at
    this sample size; dependence is declared when |z| exceeds the normal
    quantile (2.576 at the 1% level).  A sample size at which the curve's
    null mean is at least 1, above any statistic value, is refused with
    InvalidParam: the default curve refuses n <= 10.
    """
    _check_alpha(alpha)
    s = as_sample(sample)
    _check_covered(curve, s.n)
    value = copula_statistic(s).cos
    z, cutoff, dependent = _z_test(value, s.n, curve, alpha)
    decision = H1 if dependent else H0
    return TestResult(cos=value, z=z, cutoff=cutoff, alpha=alpha, decision=decision, n=s.n)


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha <= 0.5:
        raise InvalidParam(f"alpha must be in (0, 0.5], got {alpha}")


def _check_covered(curve: CalibrationCurve, n: int) -> None:
    """Refuse a sample size n >= 2 whose null mean mu(n) is at least 1:
    no statistic value lies above it, so z cannot standardize one.  Fewer
    than 2 points are left to the sample checks, which name them."""
    if n >= 2 and (mu := curve.predict_mu(n)) >= 1.0:
        raise InvalidParam(f"the null curve does not cover n = {n}: its mean mu(n) = {mu:.4f} "
                           "is at least 1, above any cos value")


def _z_test(cos, n: int, curve: CalibrationCurve, alpha: float):
    """z of statistic values from n-point samples, the two-sided cutoff at
    level alpha, and whether each |z| exceeds it (dependence declared)."""
    from scipy.special import ndtri  # imported here, as scipy is most of `import copstat`

    z = (cos - curve.predict_mu(n)) / curve.predict_sigma(n)
    cutoff = float(ndtri(1.0 - alpha / 2.0))
    return z, cutoff, np.abs(z) > cutoff


def type2_error(
    copula_family: str,
    param: float,
    n: int,
    trials: int,
    curve: CalibrationCurve = DEFAULT_NULL_CURVE,
    alpha: float = 0.01,
    seed: int = 0,
) -> float:
    """Fraction of dependent-copula trials the test wrongly accepts as
    independent.  Trial t draws its raw variates from the stream derived
    from (seed, "type2", copula_family, n, t); each block of trials is
    transformed to samples and scored at once, and the z-test of
    `test_independence` is applied to all their values at once.  A sample
    size the curve does not cover is refused before any draw."""
    _check_alpha(alpha)
    _check_covered(curve, n)
    cos = mc_values(seed, ("type2", copula_family, n), trials,
                    _copula(copula_family, param, n), _cos_batch)
    _, _, dependent = _z_test(cos, n, curve, alpha)
    return int(np.count_nonzero(~dependent)) / trials
