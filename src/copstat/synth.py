"""Seeded synthetic-data generators.

Copula samplers (Gaussian, Gumbel, Clayton) and `sample_copula`, which
draws from them by family name; noisy functional-dependence generators;
and the deliberately weak linear-congruential streams fed through a
Box-Muller transform that produce structured point patterns.

Randomness comes from numpy's Philox counter-based generator.  Independent
sub-streams are derived from a root seed plus a label path, so parallel
trials reproduce bit-identically regardless of scheduling order.  The
path becomes uint32 words (`_key_words`), and `_stream_key` mixes them
into a 128-bit Philox key exactly as numpy's SeedSequence would, so a
stream is numpy's Philox(SeedSequence(words)).  A Philox stream is fixed
by its key and counter, so it can be replayed from its start by setting
the key with a zero counter on any Philox generator.  `derive_rng` keys a
new generator; `mc_values` runs Monte Carlo trials, one stream per trial,
keys all of them in one array pass, replays each on one reused generator
and scores the trials in blocks.
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

#: Dependency kind -> (default X range, shape y0 = f(spec, x, t)), t being
#: x rescaled to [0, 1] over the spec's X range.  The ranges match the ones
#: the experiment procedures draw from; circular has no shape, as
#: `gen_dependency` draws it from an angle.
_DEPENDENCIES = {
    "linear": ((0.0, 1.0), lambda spec, x, t: 2.0 * x + 1.0),
    "quadratic": ((0.0, 1.0), lambda spec, x, t: (x - 0.5 * sum(spec.effective_x_range)) ** 2),
    "cubic": ((0.0, 1.0), lambda spec, x, t:
              128.0 * (t - 1.0 / 3.0) ** 3 - 48.0 * (t - 1.0 / 3.0) ** 2 - 12.0 * (t - 1.0 / 3.0)),
    "fourth_root": ((0.0, 1.0), lambda spec, x, t: t ** 0.25),
    "sinusoidal": ((-1.0, 1.0), lambda spec, x, t: np.sin(spec.freq * x)),
    "circular": ((0.0, 1.0), None),
    "fourth_poly": ((-5.0, 5.0), lambda spec, x, t: (x**2 - 0.25) * (x**2 - 1.0)),
    "cosine": ((-5.0, 5.0), lambda spec, x, t: np.cos(x)),
    "testfn": ((0.0, 1.0), lambda spec, x, t: TEST_FUNCTIONS[spec.fn_id][1](t)),
}

DEPENDENCY_KINDS = tuple(_DEPENDENCIES)

#: Noise mode -> noisy response y = g(spec, y0, eps) for standard normal
#: eps: multiplicative, additive, or additive with the variance that makes
#: the coefficient of determination spec.r2.
_NOISE = {
    "multiplicative": lambda spec, y0, eps: y0 * (1.0 + spec.p * eps),
    "additive": lambda spec, y0, eps: y0 + spec.p * eps,
    "r2_additive": lambda spec, y0, eps:
        y0 + math.sqrt(float(np.var(y0)) * (1.0 / spec.r2 - 1.0)) * eps,
}

NOISE_MODES = tuple(_NOISE)


# SeedSequence's hash and mix constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK = 0xFFFFFFFF


def _label_entropy(label) -> int:
    if isinstance(label, (int, np.integer)):
        if label < 0:
            raise InvalidParam("integer rng labels must be non-negative")
        return int(label)
    digest = hashlib.sha256(str(label).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _key_words(seed: int, *labels) -> list[int]:
    """The uint32 words that key the stream of (seed, *labels): the seed
    and each label's entropy as little-endian words, [0] for 0, which is
    how SeedSequence reads a list of ints."""
    words = []
    for value in (int(seed), *map(_label_entropy, labels)):
        if value < 0:
            raise ValueError("expected non-negative integer")
        words.append(value & _MASK)
        while value > _MASK:
            value >>= 32
            words.append(value & _MASK)
    return words


def _stream_key(words: list) -> np.ndarray:
    """The Philox key of the stream keyed by uint32 `words`, as
    SeedSequence(words).generate_state(2, np.uint64) gives it.

    It runs SeedSequence's mixing, a pool of four words hashed and mixed
    pairwise, then hashed out into four key words.  A word is an int below
    2**32 or a uint32 array with one entry per stream, so one call keys
    many streams: the key is then a (streams, 2) array.  Every product is
    masked to 32 bits, so ints and uint32 arrays wrap alike.
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK
        value = value * const & _MASK
        return value ^ value >> 16

    def mix(x, y):
        value = (x * _MIX_L & _MASK) - (y * _MIX_R & _MASK) & _MASK
        return value ^ value >> 16

    # a pool longer than the entropy is filled by hashing zeros
    pool = [hashmix(w) for w in (*words[:4], *[0] * (4 - len(words)))]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    const = _INIT_B
    state = []
    for w in pool:
        w = w ^ const
        const = const * _MULT_B & _MASK
        w = w * const & _MASK
        state.append(w ^ w >> 16)
    # pairs of little-endian 32-bit words, as SeedSequence reads them
    return np.stack(state, axis=-1).astype("<u4", copy=False).view("<u8")


def derive_rng(seed: int, *labels) -> np.random.Generator:
    """Independent Philox stream for (seed, label path).

    Same seed and labels always give the identical stream; distinct label
    paths give statistically independent streams, so concurrent trials can
    each derive their own.  The stream is numpy's
    Philox(SeedSequence(words)) for the path's uint32 words (see `_key_words`).
    """
    return np.random.Generator(np.random.Philox(key=_stream_key(_key_words(seed, *labels))))


#: Cells (samples x n x d) per block that _score_blocks hands to its
#: scorer: 32 trials at n = 200, d = 2.  Bounds the block's memory.
_BLOCK_CELLS = 12_800


def _score_blocks(arrays, score) -> np.ndarray:
    """`score`'s values of a sequence of equal-shape (n, d) arrays, in
    order.  The arrays are stacked into blocks of at most _BLOCK_CELLS cells
    (at least one array), and `score` maps each (T, n, d) block to its T
    values, so every value depends only on its own array."""
    values, block = [], []
    for x in arrays:
        block.append(x)
        if (len(block) + 1) * x.size > _BLOCK_CELLS:
            values.append(score(np.stack(block)))
            block = []
    if block:
        values.append(score(np.stack(block)))
    return np.concatenate(values, dtype=float)


def mc_values(seed: int, labels, trials: int, draw, score) -> np.ndarray:
    """Values of `trials` Monte Carlo trials, shape (trials,): trial t
    draws one (n, d) sample array with `draw(rng)` from the stream
    derive_rng(seed, *labels, t), and `_score_blocks` scores them.

    One `_stream_key` pass keys every trial's stream.  `rng` is one
    generator, set back to the start of each trial's stream before its
    draw, so `draw` may not keep `rng` after it returns.
    """
    if trials < 1:
        raise InvalidParam(f"need at least 1 trial, got {trials}")
    # a trial index below 2**32 is one key word
    keys = _stream_key([*_key_words(seed, *labels), np.arange(trials, dtype=np.uint32)])
    rng = np.random.Generator(np.random.Philox())
    bitgen = rng.bit_generator

    def draws():
        for key in keys:
            # counter 0 and empty output buffers: a freshly keyed Philox
            bitgen.state = {"bit_generator": "Philox",
                            "state": {"counter": [0, 0, 0, 0], "key": key},
                            "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                            "has_uint32": 0, "uinteger": 0}
            yield draw(rng)

    return _score_blocks(draws(), score)


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


#: The copula-family registry: the type-II error study's families and the
#: bias tables' copula sources.
_COPULA_SAMPLERS = {
    "gauss": sample_gaussian_copula,
    "gumbel": sample_gumbel_copula,
    "clayton": sample_clayton_copula,
}


def sample_copula(family: str, param: float, n: int, rng: np.random.Generator) -> Sample:
    """Draw from a named copula family; param 0 for gauss and 1 for gumbel
    are the independence members."""
    try:
        sampler = _COPULA_SAMPLERS[family]
    except KeyError:
        raise InvalidParam(f"unknown copula family {family!r}") from None
    return sampler(param, n, rng)


@dataclass(frozen=True)
class DependencySpec:
    """A noisy functional (or circular) relationship between two variables.

    kind       -- one of DEPENDENCY_KINDS
    p          -- noise level, >= 0
    noise_mode -- multiplicative y(1+p*eps), additive y+p*eps, or
                  r2_additive where the noise variance is chosen so the
                  coefficient of determination equals `r2`
    x_range    -- (lo, hi), finite with lo < hi: the interval X is drawn
                  uniformly from (ignored by circular)
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
        if self.x_range is not None:
            try:
                lo, hi = map(float, self.x_range)
            except (TypeError, ValueError):
                lo = hi = math.nan
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise InvalidParam(
                    f"x_range must be two finite, increasing bounds, got {self.x_range!r}")

    @property
    def effective_x_range(self) -> tuple[float, float]:
        return self.x_range if self.x_range is not None else _DEPENDENCIES[self.kind][0]


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
        y0 = np.sin(theta_y)
    else:
        lo, hi = spec.effective_x_range
        x = rng.uniform(lo, hi, n)
        x_src = rng.uniform(lo, hi, n) if independent else x
        y0 = _DEPENDENCIES[spec.kind][1](spec, x_src, (x_src - lo) / (hi - lo))
    y = _NOISE[spec.noise_mode](spec, y0, rng.standard_normal(n))
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
