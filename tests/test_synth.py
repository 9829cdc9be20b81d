"""Generators: copula samplers, dependency builder, LCG/Box-Muller forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from copstat import (
    DependencySpec,
    InvalidParam,
    LcgStream,
    copula_statistic,
    derive_rng,
    empirical_copula,
    gen_dependency,
    gen_ripley,
    sample_clayton_copula,
    sample_gaussian_copula,
    sample_gumbel_copula,
    spearman,
)
from copstat import synth
from copstat.synth import DEPENDENCY_KINDS, NOISE_MODES, mc_values, sample_copula

from oracles import (
    gaussian_copula_at_half,
    naive_gen_dependency,
    naive_sample_copula,
    seed_sequence_rng,
)

#: (family, param) covering each family's special members and both signs
#: of Clayton's dependence.
COPULA_CASES = [("gauss", 0.0), ("gauss", 0.3), ("gauss", -0.9), ("gumbel", 1.0),
                ("gumbel", 1.26), ("gumbel", 5.0), ("clayton", -1.0), ("clayton", -0.88),
                ("clayton", 0.51)]


class TestDeriveRng:
    def test_reproducible(self):
        a = derive_rng(7, "x", 3).random(5)
        b = derive_rng(7, "x", 3).random(5)
        assert np.array_equal(a, b)

    def test_labels_give_distinct_streams(self):
        a = derive_rng(7, "x", 3).random(5)
        b = derive_rng(7, "x", 4).random(5)
        c = derive_rng(7, "y", 3).random(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("seed, labels", [
        (0, ()), (0, (0,)), (7, ("x", 3)), (0, ("",)), (5, (2**32 - 1, 2**32, 0)),
        (3, (np.int64(9), True, "null")), (2**64, ("y", 2**40 + 3)), (2**70 + 1, (2**64 - 1,)),
    ])
    def test_is_the_seed_sequence_of_the_label_ints(self, seed, labels):
        want = seed_sequence_rng(seed, *labels).random(8)
        assert np.array_equal(derive_rng(seed, *labels).random(8), want)

    def test_is_the_stream_key_stream(self):
        # derive_rng's stream is the one mc_values replays for the same words
        for seed, labels in [(0, ()), (7, ("x", 3)), (2**64, ("y", 2**40 + 3))]:
            key = synth._stream_key(synth._key_words(seed, *labels))
            want = np.random.Generator(np.random.Philox(key=key)).random(8)
            assert np.array_equal(derive_rng(seed, *labels).random(8), want)

    def test_spawns_the_seed_sequences_children(self):
        children = derive_rng(7, "x", 3).spawn(3)
        want = seed_sequence_rng(7, "x", 3).spawn(3)
        for got, ref in zip(children, want, strict=True):
            assert np.array_equal(got.random(8), ref.random(8))
        assert len({child.random() for child in derive_rng(7, "x", 3).spawn(3)}) == 3

    def test_rejects_negative_integers(self):
        with pytest.raises(InvalidParam, match="non-negative"):
            derive_rng(0, "x", -1)
        with pytest.raises(ValueError, match="non-negative"):
            derive_rng(-1, "x")


class TestStreamKey:
    @given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_is_seed_sequences_state(self, words):
        want = np.random.SeedSequence(np.array(words, dtype=np.uint32)).generate_state(2, np.uint64)
        assert synth._stream_key(words).tolist() == want.tolist()

    @pytest.mark.parametrize("length", range(1, 9))
    def test_short_entropy_is_zero_padded(self, length):
        # SeedSequence hashes zeros into a pool longer than its entropy, so
        # trailing zero words below the pool size give the same key
        words = [7] * length
        key = synth._stream_key(words).tolist()
        if length < 4:
            assert key == synth._stream_key(words + [0] * (4 - length)).tolist()
        want = np.random.SeedSequence(np.array(words, dtype=np.uint32)).generate_state(2, np.uint64)
        assert key == want.tolist()

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 8])
    def test_array_words_key_each_stream(self, length):
        # one call over uint32 columns gives each row's key
        rows = np.random.default_rng(length).integers(0, 2**32, size=(50, length), dtype=np.uint32)
        rows[:3] = 0
        rows[3:6] = 2**32 - 1
        keys = synth._stream_key([*rows.T])
        assert keys.shape == (50, 2)
        for row, key in zip(rows.tolist(), keys.tolist()):
            assert key == synth._stream_key(row).tolist()


def _as_drawn(draw):
    """A sampler of 2 pairs whose samples are its raw draws."""
    return synth._Sampler(2, draw, lambda raw: raw)


class TestMcValues:
    def test_trial_streams_are_derive_rng(self):
        labels = ("x", 3, "y")
        vals = mc_values(7, labels, 9, _as_drawn(lambda rng: rng.random((2, 2))),
                         lambda b: b[:, 0, 0])
        want = [derive_rng(7, *labels, t).random((2, 2))[0, 0] for t in range(9)]
        assert vals.tolist() == want

    @pytest.mark.parametrize("cells, sizes", [(1, [1] * 9), (8, [2, 2, 2, 2, 1]),
                                              (None, [9])])
    def test_blocks_stay_within_the_cell_budget(self, monkeypatch, cells, sizes):
        if cells is not None:
            monkeypatch.setattr(synth, "_BLOCK_CELLS", cells)
        seen = []

        def score(block):
            seen.append(block.shape[0])
            return block[:, 1, 0]

        vals = mc_values(3, ("b",), 9, _as_drawn(lambda rng: rng.random((2, 2))), score)
        assert seen == sizes
        assert vals.tolist() == [derive_rng(3, "b", t).random((2, 2))[1, 0] for t in range(9)]

    def test_scorer_may_keep_its_blocks(self, monkeypatch):
        # uniform pairs are their own raw draws, so `score` is handed the
        # block of draws itself: no block may be a reused buffer
        monkeypatch.setattr(synth, "_BLOCK_CELLS", 3 * 2 * 5)
        blocks = []
        mc_values(4, ("k",), 8, synth._uniform_pairs(5),
                  lambda b: blocks.append(b) or b[:, 0, 0])
        assert [len(b) for b in blocks] == [3, 3, 2]
        for t, got in enumerate(np.concatenate(blocks)):
            assert got.tobytes() == derive_rng(4, "k", t).random((5, 2)).tobytes()

    @pytest.mark.parametrize("family, param", [("gumbel", 2.5), ("clayton", -1.0)])
    def test_score_sees_each_trial_as_the_public_sampler_draws_it(self, monkeypatch,
                                                                  family, param):
        # blocks of 3 samples of 5 pairs, however many raw variates a draw
        # holds (Gumbel's 4n), each block transformed before scoring
        monkeypatch.setattr(synth, "_BLOCK_CELLS", 3 * 2 * 5)
        blocks = []
        mc_values(3, ("c",), 7, synth._copula(family, param, 5),
                  lambda b: blocks.append(b.copy()) or b[:, 0, 0])
        assert [len(b) for b in blocks] == [3, 3, 1]
        for t, got in enumerate(np.concatenate(blocks)):
            want = sample_copula(family, param, 5, derive_rng(3, "c", t)).data
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed, labels", [
        (0, ()), (0, (0,)), (5, (2**32 - 1,)), (5, (2**32, "x")), (5, (2**64 - 1, 0)),
        (2**32, ("y", 2**40 + 3)),
    ])
    def test_streams_at_uint32_word_boundaries(self, seed, labels):
        # mc_values hands SeedSequence the path as uint32 words; integers of
        # 2**32 and more take several words
        vals = mc_values(seed, labels, 3, _as_drawn(lambda rng: rng.random((2, 2))),
                         lambda b: b[:, 1, 1])
        assert vals.tolist() == [derive_rng(seed, *labels, t).random((2, 2))[1, 1]
                                 for t in range(3)]

    @pytest.mark.parametrize("seed, labels", [(0, ()), (11, ("fresh", 2**40))])
    def test_reset_generator_matches_a_fresh_one(self, seed, labels):
        # each draw leaves a part-used Philox buffer and a cached uint32
        # half-word, which the next trial's reset must discard
        def draw(rng):
            values = [rng.random(3), rng.uniform(-2.0, 5.0, 3), rng.standard_normal(5),
                      rng.exponential(2.0, 3), rng.integers(0, 2**32, 3, dtype=np.uint32)]
            return np.concatenate(values)[:, None]

        blocks = []
        mc_values(seed, labels, 7, _as_drawn(draw),
                  lambda b: blocks.append(b.copy()) or b[:, 0, 0])
        got = np.concatenate(blocks)
        for t in range(7):
            assert np.array_equal(got[t], draw(seed_sequence_rng(seed, *labels, t)))

    @pytest.mark.parametrize("trials", [0, -1])
    def test_needs_a_trial(self, trials):
        with pytest.raises(InvalidParam):
            mc_values(0, (), trials, _as_drawn(lambda rng: rng.random((2, 2))),
                      lambda b: b[:, 0, 0])


class TestSampleCopula:
    @pytest.mark.parametrize("n", [2, 7, 200])
    @pytest.mark.parametrize("family, param", COPULA_CASES)
    def test_matches_the_per_family_formula(self, family, param, n):
        got = sample_copula(family, param, n, derive_rng(2, family, n)).data
        want = naive_sample_copula(family, param, n, derive_rng(2, family, n))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [7, 200])
    @pytest.mark.parametrize("trials", [1, 5, 64])
    @pytest.mark.parametrize("family, param", COPULA_CASES)
    def test_a_block_transforms_as_its_draws_one_by_one(self, family, param, trials, n):
        sampler = synth._copula(family, param, n)
        raw = np.stack([sampler.draw(derive_rng(4, t)) for t in range(trials)])
        got = sampler.transform(raw)
        assert got.shape == (trials, n, 2)
        for t in range(trials):
            want = sample_copula(family, param, n, derive_rng(4, t)).data
            assert got[t].tobytes() == want.tobytes()


class TestGaussianCopula:
    def test_param_validation(self):
        with pytest.raises(InvalidParam):
            sample_gaussian_copula(1.0, 10, derive_rng(0))
        with pytest.raises(InvalidParam):
            sample_gaussian_copula(-1.5, 10, derive_rng(0))

    def test_independent_at_zero(self):
        s = sample_gaussian_copula(0.0, 5000, derive_rng(0, "g0"))
        assert abs(spearman(s)) < 0.04

    def test_midpoint_matches_closed_form(self):
        s = sample_gaussian_copula(0.5, 10000, derive_rng(0, "g5"))
        cop = empirical_copula(s)
        assert cop.cdf([0.5, 0.5]) == pytest.approx(gaussian_copula_at_half(0.5), abs=0.01)

    def test_uniform_marginals(self):
        s = sample_gaussian_copula(0.7, 5000, derive_rng(0, "gm"))
        for k in range(2):
            assert kstest(s.column(k), "uniform").statistic < 0.03

    def test_deterministic(self):
        a = sample_gaussian_copula(0.3, 50, derive_rng(1, "d"))
        b = sample_gaussian_copula(0.3, 50, derive_rng(1, "d"))
        assert np.array_equal(a.data, b.data)


class TestGumbelCopula:
    def test_param_validation(self):
        with pytest.raises(InvalidParam):
            sample_gumbel_copula(0.9, 10, derive_rng(0))

    def test_independent_at_one(self):
        s = sample_gumbel_copula(1.0, 5000, derive_rng(0, "gu1"))
        assert abs(spearman(s)) < 0.04

    def test_spearman_target(self):
        s = sample_gumbel_copula(1.26, 5000, derive_rng(0, "gu"))
        assert spearman(s) == pytest.approx(0.30, abs=0.04)

    def test_midpoint_matches_closed_form(self):
        theta = 2.0
        s = sample_gumbel_copula(theta, 10000, derive_rng(0, "gu2"))
        expected = math.exp(-((2 * math.log(2) ** theta) ** (1 / theta)))
        assert empirical_copula(s).cdf([0.5, 0.5]) == pytest.approx(expected, abs=0.015)

    def test_uniform_marginals(self):
        s = sample_gumbel_copula(5.0, 5000, derive_rng(0, "gu5"))
        for k in range(2):
            assert kstest(s.column(k), "uniform").statistic < 0.03


class TestClaytonCopula:
    def test_param_validation(self):
        with pytest.raises(InvalidParam):
            sample_clayton_copula(0.0, 10, derive_rng(0))
        with pytest.raises(InvalidParam):
            sample_clayton_copula(-1.2, 10, derive_rng(0))

    def test_spearman_target_positive(self):
        s = sample_clayton_copula(0.51, 5000, derive_rng(0, "cl"))
        assert spearman(s) == pytest.approx(0.30, abs=0.04)

    def test_spearman_target_negative(self):
        s = sample_clayton_copula(-0.88, 5000, derive_rng(0, "cln"))
        assert spearman(s) == pytest.approx(-0.87, abs=0.04)

    def test_near_independence_limit(self):
        s = sample_clayton_copula(0.01, 5000, derive_rng(0, "cl0"))
        assert abs(spearman(s)) < 0.05

    def test_countermonotonic_limit(self):
        s = sample_clayton_copula(-1.0, 100, derive_rng(0, "clw"))
        assert np.allclose(s.column(0) + s.column(1), 1.0)

    def test_midpoint_matches_closed_form(self):
        theta = 2.0
        s = sample_clayton_copula(theta, 10000, derive_rng(0, "cl2"))
        expected = (2 * 2.0**theta - 1.0) ** (-1.0 / theta)
        assert empirical_copula(s).cdf([0.5, 0.5]) == pytest.approx(expected, abs=0.015)

    def test_uniform_marginals(self):
        s = sample_clayton_copula(0.51, 5000, derive_rng(0, "clm"))
        for k in range(2):
            assert kstest(s.column(k), "uniform").statistic < 0.03


class TestDependencySpec:
    def test_unknown_kind(self):
        with pytest.raises(InvalidParam):
            DependencySpec(kind="spiral")

    def test_bad_noise_mode(self):
        with pytest.raises(InvalidParam):
            DependencySpec(kind="linear", noise_mode="salt")

    def test_negative_noise(self):
        with pytest.raises(InvalidParam):
            DependencySpec(kind="linear", p=-0.5)

    @pytest.mark.parametrize("field", ["p", "freq"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_p_and_freq_are_refused(self, field, value):
        with pytest.raises(InvalidParam, match=f"^{field} must be finite, got {value}$"):
            DependencySpec(kind="sinusoidal", **{field: value})

    def test_r2_mode_needs_r2(self):
        with pytest.raises(InvalidParam):
            DependencySpec(kind="linear", noise_mode="r2_additive")
        with pytest.raises(InvalidParam):
            DependencySpec(kind="linear", noise_mode="r2_additive", r2=1.5)

    def test_fn_id_range(self):
        with pytest.raises(InvalidParam):
            DependencySpec(kind="testfn", fn_id=11)

    @pytest.mark.parametrize("x_range", [(1.0, -1.0), (2.0, 2.0), (0.0,), (0.0, 1.0, 2.0),
                                         (0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0),
                                         ("a", "b"), 5.0])
    def test_x_range_must_increase(self, x_range):
        with pytest.raises(InvalidParam, match="increasing"):
            DependencySpec(kind="linear", x_range=x_range)

    def test_kinds_and_modes(self):
        assert DEPENDENCY_KINDS == ("linear", "quadratic", "cubic", "fourth_root", "sinusoidal",
                                    "circular", "fourth_poly", "cosine", "testfn")
        assert NOISE_MODES == ("multiplicative", "additive", "r2_additive")


class TestGenDependency:
    def test_noise_free_linear_is_functional(self):
        s = gen_dependency(DependencySpec(kind="linear"), 500, derive_rng(0, "lin"))
        assert copula_statistic(s).cos == 1.0

    def test_multiplicative_noise_changes_y(self):
        spec = DependencySpec(kind="linear", p=1.0, noise_mode="multiplicative",
                              x_range=(-5.0, 5.0))
        s = gen_dependency(spec, 200, derive_rng(0, "mn"))
        assert copula_statistic(s).cos < 1.0

    def test_r2_additive_hits_target_r2(self):
        spec = DependencySpec(kind="testfn", fn_id=1, noise_mode="r2_additive", r2=0.5)
        s = gen_dependency(spec, 20000, derive_rng(0, "r2"))
        x, y = s.column(0), s.column(1)
        # R^2 of the true regression f(x) = x on y
        resid = y - x
        r2 = 1.0 - resid.var() / y.var()
        assert r2 == pytest.approx(0.5, abs=0.03)

    def test_circular_lies_near_unit_circle(self):
        s = gen_dependency(DependencySpec(kind="circular"), 400, derive_rng(0, "cc"))
        radius = np.hypot(s.column(0), s.column(1))
        assert np.allclose(radius, 1.0)

    def test_independent_flag_decouples(self):
        spec = DependencySpec(kind="linear", p=0.1)
        dep = gen_dependency(spec, 3000, derive_rng(0, "dep"))
        ind = gen_dependency(spec, 3000, derive_rng(0, "ind"), independent=True)
        assert abs(spearman(dep)) > 0.9
        assert abs(spearman(ind)) < 0.06

    def test_sinusoidal_frequency(self):
        spec = DependencySpec(kind="sinusoidal", freq=5.0)
        s = gen_dependency(spec, 1000, derive_rng(0, "sf"))
        assert np.allclose(s.column(1), np.sin(5.0 * s.column(0)))

    def test_deterministic(self):
        spec = DependencySpec(kind="cosine", p=0.5, noise_mode="multiplicative")
        a = gen_dependency(spec, 100, derive_rng(3, "z"))
        b = gen_dependency(spec, 100, derive_rng(3, "z"))
        assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("mode", NOISE_MODES)
    @pytest.mark.parametrize("kind", DEPENDENCY_KINDS)
    def test_matches_the_per_kind_formula(self, kind, mode):
        r2 = 0.6 if mode == "r2_additive" else None
        for x_range in (None, (-2.0, 3.0)):
            for fn_id in ((1, 6, 10) if kind == "testfn" else (1,)):
                spec = DependencySpec(kind=kind, p=0.3, noise_mode=mode, x_range=x_range,
                                      freq=3.0, fn_id=fn_id, r2=r2)
                for independent in (False, True):
                    got = gen_dependency(spec, 60, derive_rng(1, kind), independent)
                    want = naive_gen_dependency(spec, 60, derive_rng(1, kind), independent)
                    assert np.array_equal(got.data, want), (x_range, fn_id, independent)

    @pytest.mark.parametrize("n", [37, 200])
    @pytest.mark.parametrize("trials", [1, 5, 64])
    @pytest.mark.parametrize("independent", [False, True])
    @pytest.mark.parametrize("mode", NOISE_MODES)
    @pytest.mark.parametrize("kind", DEPENDENCY_KINDS)
    def test_a_block_transforms_as_its_draws_one_by_one(self, kind, mode, independent, trials, n):
        for fn_id in ((1, 6, 9) if kind == "testfn" else (1,)):
            spec = DependencySpec(kind=kind, p=0.3, noise_mode=mode, freq=3.0, fn_id=fn_id,
                                  r2=0.6 if mode == "r2_additive" else None)
            sampler = synth._dependency(spec, n, independent)
            got = sampler.transform(np.stack([sampler.draw(derive_rng(5, t))
                                              for t in range(trials)]))
            assert got.shape == (trials, n, 2)
            for t in range(trials):
                want = gen_dependency(spec, n, derive_rng(5, t), independent).data
                assert got[t].tobytes() == want.tobytes(), (fn_id, t)

    def test_needs_two_points(self):
        with pytest.raises(InvalidParam, match="n >= 2"):
            gen_dependency(DependencySpec(kind="linear"), 1, derive_rng(0))


class TestRipley:
    def test_form1_first_step(self):
        u = LcgStream(65, 1, 2048, seed=1).uniforms(1)
        assert u[0] == pytest.approx(66 / 2048)

    def test_zero_state_guard(self):
        # for x_{i+1} = (x_i + 1) mod 2, seed 1 -> state 0 -> mapped to 1/(2M)
        u = LcgStream(1, 1, 2, seed=1).uniforms(2)
        assert u[0] == pytest.approx(1 / 4)

    def test_needs_two_points(self):
        with pytest.raises(InvalidParam, match="n >= 2"):
            gen_ripley(1, 1)

    def test_form_validation(self):
        with pytest.raises(InvalidParam):
            gen_ripley(5, 100)

    def test_form4_box_muller_moments(self):
        s = gen_ripley(4, 10000)
        flat = s.data.ravel()
        assert abs(flat.mean()) < 0.05
        assert flat.var() == pytest.approx(1.0, abs=0.1)

    def test_deterministic(self):
        a = gen_ripley(2, 500)
        b = gen_ripley(2, 500)
        assert np.array_equal(a.data, b.data)

    def test_forms_shapes(self):
        for form in (1, 2, 3, 4):
            s = gen_ripley(form, 250)
            assert s.data.shape == (250, 2)
            assert np.isfinite(s.data).all()
