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
the key with a zero counter on any Philox generator.  `derive_rng` builds
a new generator on SeedSequence(words) itself, so it can spawn;
`mc_values` runs Monte Carlo trials, one stream per trial, keys all of
them in one array pass, replays each on one reused generator into its
block's array of raw draws and scores the trials a block at a time.

Each sampler comes in two steps, a `_Sampler`: a trial's stream gives only
the sample's raw variates, and the family's transform maps a whole block
of raw draws to samples in one elementwise pass.  The public samplers are
the transform of a block of one draw.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

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
#: x rescaled to [0, 1] over the spec's X range, both (T, n) stacks of
#: samples.  The ranges match the ones the experiment procedures draw from;
#: circular has no shape, as `gen_dependency` draws it from an angle.
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
#: each sample's coefficient of determination spec.r2.  y0 and eps are
#: (T, n) stacks of samples' responses and noise draws.
_NOISE = {
    "multiplicative": lambda spec, y0, eps: y0 * (1.0 + spec.p * eps),
    "additive": lambda spec, y0, eps: y0 + spec.p * eps,
    "r2_additive": lambda spec, y0, eps:
        y0 + np.sqrt(np.var(y0, axis=-1, keepdims=True) * (1.0 / spec.r2 - 1.0)) * eps,
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
            raise InvalidParam(f"rng seeds and integer labels must be non-negative, got {label}")
        return int(label)
    digest = hashlib.sha256(str(label).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _key_words(seed: int, *labels) -> list[int]:
    """The uint32 words that key the stream of (seed, *labels): the seed
    and each label's entropy as little-endian words, [0] for 0, which is
    how SeedSequence reads a list of ints."""
    words = []
    for value in map(_label_entropy, (int(seed), *labels)):
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
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(_key_words(seed, *labels))))


#: Cells (samples x n x d) of the scored samples in a Monte Carlo or gene
#: pair block: 32 trials at n = 200, d = 2.  Bounds the block's memory,
#: which the scorer's temporaries multiply about 11-fold; larger blocks were
#: measured no faster (25,600 cells: 0.78-0.98 of the mc_pipelines
#: benchmark's samples_per_s over 6 pairs, peak RSS 1.1 MB higher).
_BLOCK_CELLS = 12_800


def _block_size(n: int) -> int:
    """Two-column samples of n points per Monte Carlo or gene pair block:
    max(1, _BLOCK_CELLS // 2n), with the budget read at each call."""
    return max(1, _BLOCK_CELLS // (2 * n))


class _Sampler(NamedTuple):
    """A sampler of n pairs in two steps.  `draw(rng)` gives one sample's
    raw variates, in stream order, as one array; `transform` maps a
    (T, ...) stack of raw draws to the (T, n, 2) samples in one elementwise
    pass, so the t-th sample depends only on the t-th draw and equals the
    transform of that draw alone, bit for bit."""

    n: int
    draw: Callable[[np.random.Generator], np.ndarray]
    transform: Callable[[np.ndarray], np.ndarray]


def mc_values(seed: int, labels, trials: int, sampler: _Sampler, score) -> np.ndarray:
    """Values of `trials` Monte Carlo trials, shape (trials,).

    Trial t calls `sampler.draw(rng)` on the stream derive_rng(seed,
    *labels, t) for its sample's raw variates.  The trials run in blocks of
    k = _block_size(n) (2n sample cells a trial, however many raw variates
    a draw holds): each draw is written into a new (k, ...) array of the
    block's raw draws, `sampler.transform` maps the block to its (k, n, 2)
    samples, and `score` maps those to their k values, each depending on
    its own sample alone.  `score` may keep the block it is given.

    Fewer than 1 trial or 2 points a sample raise InvalidParam before any
    stream is keyed.  One `_stream_key` pass keys every trial's stream.
    `rng` is one generator, set back to the start of each trial's stream
    before its draw, so `draw` may not keep `rng` after it returns.
    """
    if trials < 1:
        raise InvalidParam(f"need at least 1 trial, got {trials}")
    if sampler.n < 2:
        raise InvalidParam(f"need samples of at least 2 points, got n = {sampler.n}")
    # a trial index below 2**32 is one key word
    keys = _stream_key([*_key_words(seed, *labels), np.arange(trials, dtype=np.uint32)])
    rng = np.random.Generator(np.random.Philox())
    bitgen = rng.bit_generator
    k = _block_size(sampler.n)
    values = []
    for first in range(0, trials, k):
        block_keys = keys[first:first + k]
        for b, key in enumerate(block_keys):
            # counter 0 and empty output buffers: a freshly keyed Philox
            bitgen.state = {"bit_generator": "Philox",
                            "state": {"counter": [0, 0, 0, 0], "key": key},
                            "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                            "has_uint32": 0, "uinteger": 0}
            raw = sampler.draw(rng)
            if not b:
                block = np.empty((len(block_keys), *raw.shape), raw.dtype)
            block[b] = raw
        values.append(score(sampler.transform(block)))
    return np.concatenate(values, dtype=float)


def _sample(sampler: _Sampler, rng: np.random.Generator) -> Sample:
    """One sample: `sampler`'s transform of a stack of its one draw."""
    return Sample(sampler.transform(sampler.draw(rng)[None])[0])


def _uniform_pairs(n: int) -> _Sampler:
    """n independent uniform pairs, drawn as the sample itself."""
    return _Sampler(n, lambda rng: rng.random((n, 2)), lambda raw: raw)


def _gaussian_copula(rho: float, n: int) -> _Sampler:
    """Two rows of n standard normals z1, z2, mapped to u = Phi(z1) and
    v = Phi(rho z1 + sqrt(1 - rho^2) z2)."""
    if not -1.0 < rho < 1.0:
        raise InvalidParam(f"gauss rho must be in (-1, 1), got {rho}")
    from scipy.special import ndtr  # imported here, as scipy is most of `import copstat`

    c = math.sqrt(1.0 - rho * rho)
    return _Sampler(n, lambda rng: rng.standard_normal((2, n)),
                    lambda z: np.stack([ndtr(z[:, 0]), ndtr(rho * z[:, 0] + c * z[:, 1])], axis=-1))


def _gumbel_copula(theta: float, n: int) -> _Sampler:
    """The frailty construction: a positive stable S of index 1/theta,
    drawn by Chambers-Mallows-Stuck from an angle in (0, pi) and an Exp(1)
    variable W, is shared by both coordinates, u_i = exp(-(E_i / S)^(1/theta))
    with E_i ~ Exp(1).  The raw draw is the n angles, then the n W and the
    (n, 2) E in stream order; theta = 1 draws uniform pairs."""
    if not 1.0 <= theta < math.inf:
        raise InvalidParam(f"gumbel theta must be in [1, inf), got {theta}")
    if theta == 1.0:
        return _uniform_pairs(n)
    alpha = 1.0 / theta

    def draw(rng):
        raw = np.empty((4, n))
        raw[0] = rng.uniform(0.0, np.pi, n)
        rng.standard_exponential(out=raw[1:])
        return raw

    def transform(raw):
        angle, w = raw[:, 0], raw[:, 1]
        a = np.sin(alpha * angle) / np.sin(angle) ** (1.0 / alpha)
        b = (np.sin((1.0 - alpha) * angle) / w) ** ((1.0 - alpha) / alpha)
        s = a * b
        e = raw[:, 2:].reshape(len(raw), n, 2)
        return np.exp(-((e / s[..., None]) ** alpha))

    return _Sampler(n, draw, transform)


def _clayton_copula(theta: float, n: int) -> _Sampler:
    """Conditional inversion of two rows of n uniforms u, t:
    v = ((t^(-theta/(1+theta)) - 1) u^(-theta) + 1)^(-1/theta), and
    v = 1 - u in the countermonotonic limit theta = -1."""
    if not -1.0 <= theta < math.inf or theta == 0.0:
        raise InvalidParam(f"clayton theta must be in [-1, inf) and nonzero, got {theta}")

    def transform(raw):
        u, t = raw[:, 0], raw[:, 1]
        if theta == -1.0:
            v = 1.0 - u
        else:
            v = ((t ** (-theta / (1.0 + theta)) - 1.0) * u ** (-theta) + 1.0) ** (-1.0 / theta)
        return np.stack([u, v], axis=-1)

    return _Sampler(n, lambda rng: rng.random((2, n)), transform)


#: The copula-family registry: the type-II error study's families and the
#: bias tables' copula sources, each family's sampler by (param, n).
_COPULA_SAMPLERS = {
    "gauss": _gaussian_copula,
    "gumbel": _gumbel_copula,
    "clayton": _clayton_copula,
}


def _copula(family: str, param: float, n: int) -> _Sampler:
    """The sampler of a named copula family; its parameter is checked."""
    try:
        sampler = _COPULA_SAMPLERS[family]
    except KeyError:
        raise InvalidParam(f"unknown copula family {family!r}") from None
    return sampler(param, n)


def sample_gaussian_copula(rho: float, n: int, rng: np.random.Generator) -> Sample:
    """Draw n pairs with uniform marginals and Gaussian-copula dependence."""
    return _sample(_gaussian_copula(rho, n), rng)


def sample_gumbel_copula(theta: float, n: int, rng: np.random.Generator) -> Sample:
    """Draw n pairs from the Gumbel copula via the frailty construction.

    A positive stable mixing variable S of index 1/theta is shared by both
    coordinates: u_i = exp(-(E_i / S)^(1/theta)) with E_i ~ Exp(1).
    """
    return _sample(_gumbel_copula(theta, n), rng)


def sample_clayton_copula(theta: float, n: int, rng: np.random.Generator) -> Sample:
    """Draw n pairs from the Clayton copula by conditional inversion.

    Valid for theta in [-1, inf), theta != 0; negative theta gives negative
    dependence, theta = -1 the countermonotonic limit.
    """
    return _sample(_clayton_copula(theta, n), rng)


def sample_copula(family: str, param: float, n: int, rng: np.random.Generator) -> Sample:
    """Draw from a named copula family; param 0 for gauss and 1 for gumbel
    are the independence members."""
    return _sample(_copula(family, param, n), rng)


@dataclass(frozen=True)
class DependencySpec:
    """A noisy functional (or circular) relationship between two variables.

    kind       -- one of DEPENDENCY_KINDS
    p          -- noise level, finite and >= 0
    noise_mode -- multiplicative y(1+p*eps), additive y+p*eps, or
                  r2_additive where the noise variance is chosen so the
                  coefficient of determination equals `r2`
    x_range    -- (lo, hi), finite with lo < hi: the interval X is drawn
                  uniformly from (ignored by circular)
    freq       -- finite angular frequency for the sinusoidal kind
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
        for name in ("p", "freq"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParam(f"{name} must be finite, got {getattr(self, name)}")
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


def _dependency(spec: DependencySpec, n: int, independent: bool = False) -> _Sampler:
    """The sampler of `gen_dependency`.  The raw draw is n values of X (an
    angle for circular), then n of the independent regressor draw when
    `independent`, then n standard normal eps; the transform shapes and
    noises the response."""
    if n < 2:
        raise InvalidParam("need n >= 2")
    circular = spec.kind == "circular"
    lo, hi = (0.0, 2.0 * np.pi) if circular else spec.effective_x_range
    rows = 3 if independent else 2

    def draw(rng):
        raw = np.empty((rows, n))
        raw[0] = rng.uniform(lo, hi, n)
        if independent:
            raw[1] = rng.uniform(lo, hi, n)
        rng.standard_normal(out=raw[-1])
        return raw

    def transform(raw):
        x, src = raw[:, 0], raw[:, rows - 2]
        if circular:
            x, y0 = np.cos(x), np.sin(src)
        else:
            y0 = _DEPENDENCIES[spec.kind][1](spec, src, (src - lo) / (hi - lo))
        return np.stack([x, _NOISE[spec.noise_mode](spec, y0, raw[:, -1])], axis=-1)

    return _Sampler(n, draw, transform)


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
    return _sample(_dependency(spec, n, independent), rng)


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
