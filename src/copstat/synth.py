"""Seeded synthetic-data generators.

Copula samplers (Gaussian, Gumbel, Clayton), noisy functional-dependence
generators, and the deliberately weak linear-congruential streams fed
through a Box-Muller transform that produce structured point patterns.

Randomness comes from numpy's Philox counter-based generator.  Independent
sub-streams are derived from a root seed plus a label path, so parallel
trials reproduce bit-identically regardless of scheduling order.
`mc_values` runs Monte Carlo trials this way, one stream per trial, and
scores them in blocks.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .copula_core import Sample
from .errors import InvalidParam

#: Equitability test functions on [0, 1]; coefficients as used in the
#: equitability scan (id 1..10).
TEST_FUNCTIONS = {
    1: ("identity", lambda t: t),
    2: ("quadratic", lambda t: 4.0 * t**2),
    3: ("cubic-mix", lambda t: 41.0 * (4.0 * t**3 + t**2 - 4.0 * t)),
    4: ("hf-sine", lambda t: np.sin(16.0 * np.pi * t)),
    5: ("hf-cosine", lambda t: np.cos(14.0 * np.pi * t)),
    6: ("sine-trend", lambda t: np.sin(10.0 * np.pi * t) + t),
    7: ("chirp-6", lambda t: np.sin(6.0 * np.pi * t * (1.0 + t))),
    8: ("chirp-5", lambda t: np.sin(5.0 * np.pi * t * (1.0 + t))),
    9: ("exp2", lambda t: 2.0**t),
    10: ("wiggly-line", lambda t: 0.1 * np.sin(10.6 * (2.0 * t - 1.0)) + 1.1 * (2.0 * t - 1.0)),
}

RIPLEY_FORMS = {
    1: (65, 1, 2**11),
    2: (1229, 1, 2**11),
    3: (5, 1, 2**11),
    4: (129, 1, 2**64),
}

NOISE_MODES = ("multiplicative", "additive", "r2_additive")

DEPENDENCY_KINDS = (
    "linear",
    "quadratic",
    "cubic",
    "fourth_root",
    "sinusoidal",
    "circular",
    "fourth_poly",
    "cosine",
    "testfn",
)

#: Default X ranges per dependency kind, chosen to match the ranges the
#: experiment procedures draw from.
DEFAULT_X_RANGE = {
    "linear": (0.0, 1.0),
    "quadratic": (0.0, 1.0),
    "cubic": (0.0, 1.0),
    "fourth_root": (0.0, 1.0),
    "sinusoidal": (-1.0, 1.0),
    "circular": (0.0, 1.0),
    "fourth_poly": (-5.0, 5.0),
    "cosine": (-5.0, 5.0),
    "testfn": (0.0, 1.0),
}


def _label_entropy(label) -> int:
    if isinstance(label, (int, np.integer)):
        if label < 0:
            raise InvalidParam("integer rng labels must be non-negative")
        return int(label)
    digest = hashlib.sha256(str(label).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _label_path(seed: int, labels) -> list[int]:
    return [int(seed)] + [_label_entropy(l) for l in labels]


def _words(value: int) -> list[int]:
    """`value` as SeedSequence takes it in: little-endian uint32 words, [0] for 0."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & 0xFFFFFFFF]
    while value > 0xFFFFFFFF:
        value >>= 32
        words.append(value & 0xFFFFFFFF)
    return words


def _philox(entropy) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def derive_rng(seed: int, *labels) -> np.random.Generator:
    """Independent Philox stream for (seed, label path).

    Same seed and labels always give the identical stream; distinct label
    paths give statistically independent streams, so concurrent trials can
    each derive their own.
    """
    return _philox(_label_path(seed, labels))


#: Sample cells (trials x n x d) per block that mc_values hands to its
#: scorer: 32 trials at n = 200, d = 2.  Bounds the block's working memory.
_BLOCK_CELLS = 12_800


def mc_values(seed: int, labels, trials: int, draw, score) -> np.ndarray:
    """Values of `trials` Monte Carlo trials, shape (trials,).

    Trial t draws one (n, d) sample array with `draw(rng)` from the stream
    derive_rng(seed, *labels, t).  Samples are stacked in trial order into
    blocks of at most _BLOCK_CELLS cells (at least one sample), and
    `score` maps each (T, n, d) block to its T values, so every value
    depends only on its own trial's stream.
    """
    if trials < 1:
        raise InvalidParam(f"need at least 1 trial, got {trials}")
    # SeedSequence takes a uint32 array as is, but converts a list of ints
    # one int at a time, which took most of each trial's stream derivation
    prefix = [w for value in _label_path(seed, labels) for w in _words(value)]
    values = np.empty(trials)
    block = []
    for t in range(trials):
        block.append(draw(_philox(np.array(prefix + _words(t), dtype=np.uint32))))
        if (len(block) + 1) * block[0].size > _BLOCK_CELLS or t == trials - 1:
            values[t + 1 - len(block):t + 1] = score(np.stack(block))
            block = []
    return values


def sample_gaussian_copula(rho: float, n: int, rng: np.random.Generator) -> Sample:
    """Draw n pairs with uniform marginals and Gaussian-copula dependence."""
    if not -1.0 < rho < 1.0:
        raise InvalidParam(f"rho must be in (-1, 1), got {rho}")
    from scipy.special import ndtr  # imported here, as scipy is most of `import copstat`

    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    u = ndtr(z1)
    v = ndtr(rho * z1 + math.sqrt(1.0 - rho * rho) * z2)
    return Sample(np.column_stack([u, v]))


def _positive_stable(alpha: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Chambers-Mallows-Stuck draw of a positive stable variable with
    Laplace transform exp(-t^alpha), alpha in (0, 1)."""
    theta = rng.uniform(0.0, np.pi, n)
    w = rng.exponential(1.0, n)
    a = np.sin(alpha * theta) / np.sin(theta) ** (1.0 / alpha)
    b = (np.sin((1.0 - alpha) * theta) / w) ** ((1.0 - alpha) / alpha)
    return a * b


def sample_gumbel_copula(theta: float, n: int, rng: np.random.Generator) -> Sample:
    """Draw n pairs from the Gumbel copula via the frailty construction.

    A positive stable mixing variable S of index 1/theta is shared by both
    coordinates: u_i = exp(-(E_i / S)^(1/theta)) with E_i ~ Exp(1).
    """
    if theta < 1.0:
        raise InvalidParam(f"gumbel theta must be >= 1, got {theta}")
    if theta == 1.0:
        return Sample(rng.random((n, 2)))
    alpha = 1.0 / theta
    s = _positive_stable(alpha, n, rng)
    e = rng.exponential(1.0, (n, 2))
    u = np.exp(-((e / s[:, None]) ** alpha))
    return Sample(u)


def sample_clayton_copula(theta: float, n: int, rng: np.random.Generator) -> Sample:
    """Draw n pairs from the Clayton copula by conditional inversion.

    Valid for theta in [-1, inf), theta != 0; negative theta gives negative
    dependence, theta = -1 the countermonotonic limit.
    """
    if theta < -1.0 or theta == 0.0:
        raise InvalidParam(f"clayton theta must be in [-1, inf) and nonzero, got {theta}")
    u = rng.random(n)
    t = rng.random(n)
    if theta == -1.0:
        v = 1.0 - u
    else:
        v = ((t ** (-theta / (1.0 + theta)) - 1.0) * u ** (-theta) + 1.0) ** (-1.0 / theta)
    return Sample(np.column_stack([u, v]))


@dataclass(frozen=True)
class DependencySpec:
    """A noisy functional (or circular) relationship between two variables.

    kind       -- one of DEPENDENCY_KINDS
    p          -- noise level, >= 0
    noise_mode -- multiplicative y(1+p*eps), additive y+p*eps, or
                  r2_additive where the noise variance is chosen so the
                  coefficient of determination equals `r2`
    x_range    -- interval X is drawn uniformly from (ignored by circular)
    freq       -- angular frequency for the sinusoidal kind
    fn_id   -- function id 1..10 for kind "testfn"
    r2         -- target R^2 in (0, 1] for r2_additive mode
    """

    kind: str
    p: float = 0.0
    noise_mode: str = "additive"
    x_range: tuple[float, float] | None = None
    freq: float = 1.0
    fn_id: int = 1
    r2: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in DEPENDENCY_KINDS:
            raise InvalidParam(f"unknown dependency kind {self.kind!r}")
        if self.noise_mode not in NOISE_MODES:
            raise InvalidParam(f"unknown noise mode {self.noise_mode!r}")
        if self.p < 0:
            raise InvalidParam("noise level p must be >= 0")
        if self.kind == "testfn" and self.fn_id not in TEST_FUNCTIONS:
            raise InvalidParam(f"testfn id must be 1..10, got {self.fn_id}")
        if self.noise_mode == "r2_additive":
            if self.r2 is None or not 0.0 < self.r2 <= 1.0:
                raise InvalidParam("r2_additive mode needs r2 in (0, 1]")
        if self.x_range is not None and not self.x_range[0] < self.x_range[1]:
            raise InvalidParam("x_range must be an increasing interval")

    @property
    def effective_x_range(self) -> tuple[float, float]:
        return self.x_range if self.x_range is not None else DEFAULT_X_RANGE[self.kind]


def _apply_f(spec: DependencySpec, x: np.ndarray) -> np.ndarray:
    lo, hi = spec.effective_x_range
    t = (x - lo) / (hi - lo)  # normalized coordinate for range-free shapes
    if spec.kind == "linear":
        return 2.0 * x + 1.0
    if spec.kind == "quadratic":
        mid = 0.5 * (lo + hi)
        return (x - mid) ** 2
    if spec.kind == "cubic":
        s = t - 1.0 / 3.0
        return 128.0 * s**3 - 48.0 * s**2 - 12.0 * s
    if spec.kind == "fourth_root":
        return t ** 0.25
    if spec.kind == "sinusoidal":
        return np.sin(spec.freq * x)
    if spec.kind == "fourth_poly":
        return (x**2 - 0.25) * (x**2 - 1.0)
    if spec.kind == "cosine":
        return np.cos(x)
    if spec.kind == "testfn":
        return TEST_FUNCTIONS[spec.fn_id][1](t)
    raise InvalidParam(f"{spec.kind!r} has no closed functional form")


def _add_noise(spec: DependencySpec, y0: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    eps = rng.standard_normal(y0.size)
    if spec.noise_mode == "multiplicative":
        return y0 * (1.0 + spec.p * eps)
    if spec.noise_mode == "additive":
        return y0 + spec.p * eps
    var = float(np.var(y0))
    sigma = math.sqrt(var * (1.0 / spec.r2 - 1.0))
    return y0 + sigma * eps


def gen_dependency(
    spec: DependencySpec,
    n: int,
    rng: np.random.Generator,
    independent: bool = False,
) -> Sample:
    """Generate an n-point sample (X, Y) following `spec`.

    With `independent=True` the response is built from a fresh independent
    draw of the regressor, which is how null samples for power studies are
    constructed: X and Y then share the marginal structure but nothing else.
    """
    if n < 2:
        raise InvalidParam("need n >= 2")
    if spec.kind == "circular":
        theta = rng.uniform(0.0, 2.0 * np.pi, n)
        x = np.cos(theta)
        theta_y = rng.uniform(0.0, 2.0 * np.pi, n) if independent else theta
        y = _add_noise(spec, np.sin(theta_y), rng)
        return Sample(np.column_stack([x, y]))
    lo, hi = spec.effective_x_range
    x = rng.uniform(lo, hi, n)
    x_src = rng.uniform(lo, hi, n) if independent else x
    y = _add_noise(spec, _apply_f(spec, x_src), rng)
    return Sample(np.column_stack([x, y]))


@dataclass(frozen=True)
class LcgStream:
    """x_{i+1} = (a x_i + c) mod M, the classical congruential recurrence."""

    a: int
    c: int
    m: int
    seed: int = 1

    def uniforms(self, count: int) -> np.ndarray:
        """First `count` states after the seed, normalized to (0, 1).

        A zero state would break the Box-Muller log, so it maps to 1/(2M).
        """
        out = np.empty(count, dtype=float)
        x = self.seed % self.m
        for i in range(count):
            x = (self.a * x + self.c) % self.m
            out[i] = (x / self.m) if x else 1.0 / (2.0 * self.m)
        return out


def gen_ripley(form: int, n: int, seed: int = 1) -> Sample:
    """Structured bivariate normals from a weak LCG through Box-Muller.

    Forms 1-3 use M = 2048 (deliberately low quality, the lattice structure
    is the point); form 4 uses M = 2^64.  Consecutive disjoint pairs of
    normalized states feed z = sqrt(-2 ln u1) cos(2 pi u2) and the matching
    sine term.
    """
    if form not in RIPLEY_FORMS:
        raise InvalidParam(f"form must be 1..4, got {form}")
    if n < 2:
        raise InvalidParam("need n >= 2")
    a, c, m = RIPLEY_FORMS[form]
    u = LcgStream(a, c, m, seed).uniforms(2 * n)
    u1, u2 = u[0::2], u[1::2]
    r = np.sqrt(-2.0 * np.log(u1))
    z = r * np.cos(2.0 * np.pi * u2)
    w = r * np.sin(2.0 * np.pi * u2)
    return Sample(np.column_stack([z, w]))
