"""Calibration curves and the standardized independence test."""

import math
import re

import numpy as np
import pytest
from scipy.stats import skew

from copstat import (
    DEFAULT_NULL_CURVE,
    PUBLISHED_NULL_CURVE,
    CalibrationCurve,
    InvalidGrid,
    InvalidInput,
    InvalidParam,
    Sample,
    calibrate_null,
    derive_rng,
    null_moments,
    type2_error,
)
from copstat import test_independence as run_test  # alias: pytest must not collect it
from copstat.independence import sample_copula

from oracles import loop_null_moments, loop_type2_error


class TestCalibrationCurve:
    def test_validation(self):
        with pytest.raises(InvalidInput):
            CalibrationCurve(mu_model=(8.0, 0.1), sigma_model=(3.0, -0.8))
        with pytest.raises(InvalidInput):
            CalibrationCurve(mu_model=(-1.0, -0.7), sigma_model=(3.0, -0.8))

    @pytest.mark.parametrize("field", ["mu", "sigma"])
    @pytest.mark.parametrize("model", [(math.nan, -0.5), (math.inf, -0.5), (-math.inf, -0.5),
                                       (8.0, math.nan), (8.0, -math.inf)])
    def test_non_finite_parameters_are_refused(self, field, model):
        models = {"mu_model": (8.05, -0.74), "sigma_model": (2.99, -0.81)}
        models[f"{field}_model"] = model
        with pytest.raises(InvalidInput, match=rf"^{field} model parameters must be finite, got "
                                               rf"\({re.escape(str(model[0]))}, "):
            CalibrationCurve(**models)

    def test_prediction(self):
        curve = CalibrationCurve(mu_model=(8.05, -0.74), sigma_model=(2.99, -0.81))
        assert curve.predict_mu(1000) == pytest.approx(0.0485, abs=0.001)
        assert curve.predict_sigma(500) == pytest.approx(0.0195, abs=0.001)

    def test_json_round_trip(self):
        curve = CalibrationCurve(
            mu_model=(3.0, -0.5),
            sigma_model=(0.5, -0.45),
            fit_grid=(50, 100),
            trials_per_n=200,
            seed=9,
        )
        back = CalibrationCurve.from_json(curve.to_json())
        assert back == curve

    def test_json_schema_fields(self):
        import json

        doc = json.loads(DEFAULT_NULL_CURVE.to_json())
        assert set(doc) == {"mu", "sigma", "grid", "trials", "seed"}
        assert set(doc["mu"]) == {"a", "b"}

    def test_published_constants(self):
        assert PUBLISHED_NULL_CURVE.mu_model == (8.05, -0.74)
        assert PUBLISHED_NULL_CURVE.sigma_model == (2.99, -0.81)


class TestNullMoments:
    def test_matches_trial_loop(self):
        # 300 trials at n = 100: blocks of 64 and a last one of 44
        assert null_moments(100, 300, 14) == loop_null_moments(100, 300, 14)

    @pytest.mark.parametrize("trials", [0, 1])
    def test_needs_two_trials(self, trials):
        with pytest.raises(InvalidParam):
            null_moments(100, trials, 0)


class TestCalibrateNull:
    def test_grid_validation(self):
        with pytest.raises(InvalidGrid):
            calibrate_null([30, 100], trials_per_n=200)
        with pytest.raises(InvalidGrid):
            calibrate_null([100], trials_per_n=200)
        with pytest.raises(InvalidGrid):
            calibrate_null([50, 100], trials_per_n=100)

    def test_reproducible_and_decaying(self):
        a = calibrate_null([50, 100, 200], trials_per_n=200, seed=11)
        b = calibrate_null([50, 100, 200], trials_per_n=200, seed=11)
        assert a == b
        assert a.mu_model[1] < 0 and a.sigma_model[1] < 0
        c = calibrate_null([50, 100, 200], trials_per_n=200, seed=12)
        assert c != a

    def test_fit_matches_default_curve(self):
        # small refit should land near the shipped default constants
        curve = calibrate_null([50, 100, 200, 500], trials_per_n=200, seed=3)
        assert curve.predict_mu(300) == pytest.approx(
            DEFAULT_NULL_CURVE.predict_mu(300), rel=0.06
        )
        assert curve.predict_sigma(300) == pytest.approx(
            DEFAULT_NULL_CURVE.predict_sigma(300), rel=0.25
        )


class TestIndependenceTest:
    def test_alpha_validation(self):
        data = np.random.default_rng(0).random((100, 2))
        with pytest.raises(InvalidParam):
            run_test(Sample(data), alpha=0.0)
        with pytest.raises(InvalidParam):
            run_test(Sample(data), alpha=0.7)

    def test_cutoff_at_one_percent(self):
        data = np.random.default_rng(1).random((100, 2))
        res = run_test(Sample(data), alpha=0.01)
        assert res.cutoff == pytest.approx(2.5758, abs=1e-3)
        assert abs(res.cutoff - 2.57) < 0.01

    def test_comonotonic_detected(self):
        x = np.arange(500.0)
        res = run_test(Sample.from_columns([x, 2 * x + 1]), alpha=0.01)
        assert res.decision == "dependent"
        assert res.cos == 1.0
        assert res.z > res.cutoff

    def test_decision_rule_consistency(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            res = run_test(Sample(rng.random((150, 2))), alpha=0.05)
            assert (abs(res.z) > res.cutoff) == res.dependent

    def test_size_near_nominal(self):
        # acceptance-style size check at reduced scale: H0 acceptance rate
        # should be close to 1 - alpha with the self-calibrated default
        trials = 400
        accepted = 0
        for t in range(trials):
            rng = derive_rng(100, "size", t)
            res = run_test(Sample(rng.random((1000, 2))), alpha=0.01)
            accepted += not res.dependent
        assert accepted / trials >= 0.97

    def test_null_z_nearly_gaussian_at_600(self):
        zs = []
        for t in range(500):
            rng = derive_rng(101, "normality", t)
            res = run_test(Sample(rng.random((600, 2))), alpha=0.01)
            zs.append(res.z)
        assert abs(skew(zs)) < 0.5
        assert abs(np.mean(zs)) < 0.25


class TestType2Error:
    def test_unknown_family(self):
        with pytest.raises(InvalidParam):
            sample_copula("frank", 2.0, 10, derive_rng(0))

    def test_needs_a_trial(self):
        with pytest.raises(InvalidParam):
            type2_error("gauss", 0.3, 100, trials=0)

    @pytest.mark.parametrize("param", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("family", ["gauss", "gumbel", "clayton"])
    def test_non_finite_parameters_are_refused_before_any_draw(self, family, param):
        # no generator: the check must come before the first draw
        with pytest.raises(InvalidParam, match=family):
            sample_copula(family, param, 10, None)
        with pytest.raises(InvalidParam, match=family):
            type2_error(family, param, 100, trials=10)

    @pytest.mark.parametrize("alpha", [0.01, 0.3])
    def test_matches_trial_loop(self, alpha):
        # 150 trials at n = 90: blocks of 71 and a last one of 8
        assert type2_error("clayton", 0.51, 90, 150, alpha=alpha, seed=15) == loop_type2_error(
            "clayton", 0.51, 90, 150, 15, alpha)

    def test_strong_dependence_always_detected(self):
        err = type2_error("gauss", 0.5, 500, trials=60, seed=5)
        assert err <= 0.02

    def test_nonincreasing_in_n(self):
        e_small = type2_error("gauss", 0.3, 100, trials=120, seed=6)
        e_large = type2_error("gauss", 0.3, 400, trials=120, seed=6)
        assert e_large <= e_small + 0.05

    def test_nonincreasing_in_rho(self):
        e_weak = type2_error("gauss", 0.1, 200, trials=120, seed=7)
        e_strong = type2_error("gauss", 0.4, 200, trials=120, seed=7)
        assert e_strong <= e_weak + 0.05
