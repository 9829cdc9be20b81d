"""Experiment pipelines: power, equitability, bias tables, network scoring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copstat import (
    DegenerateMarginal,
    DependencySpec,
    EmptyEdgeList,
    InvalidInput,
    InvalidParam,
    dependence_matrix,
    derive_rng,
    null_moments,
    run_bias_table,
    run_equitability,
    run_power,
    score_matrix,
    score_network,
    type2_error,
)
from copstat import experiments, synth

from oracles import (
    loop_bias_table,
    loop_dependence_matrix,
    loop_equitability_means,
    loop_interval_widths,
    loop_power,
    naive_score_matrix,
)

#: run_equitability's level axis
LEVELS = np.arange(0.0, 1.0 + 1e-9, 0.01)


class TestRunPower:
    def test_validation(self):
        with pytest.raises(InvalidParam):
            run_power("linear", "mic", 100, 100, 0.05, [0.1])
        with pytest.raises(InvalidParam):
            run_power("linear", "cos", 50, 100, 0.05, [0.1])
        with pytest.raises(InvalidParam):
            run_power("linear", "cos", 100, 50, 0.05, [0.1])
        for alpha in (0.0, 1.0, -0.1):
            with pytest.raises(InvalidParam, match=r"alpha must be in \(0, 1\)"):
                run_power("linear", "cos", 100, 100, alpha, [0.1])

    def test_noise_free_power_is_one(self):
        curve = run_power("linear", "cos", 100, 100, 0.05, [0.0], seed=1)
        assert curve.power == (1.0,)

    def test_overwhelming_noise_attains_size(self):
        curve = run_power("linear", "cos", 500, 100, 0.05, [60.0], seed=2)
        assert curve.power[0] == pytest.approx(0.05, abs=0.05)

    def test_reproducible(self):
        a = run_power("linear", "dcor", 100, 100, 0.05, [0.2, 0.5], seed=3)
        b = run_power("linear", "dcor", 100, 100, 0.05, [0.2, 0.5], seed=3)
        assert a == b

    def test_values_in_unit_interval(self):
        curve = run_power("quadratic", "spearman", 100, 100, 0.05, [0.1, 1.0], seed=4)
        assert all(0.0 <= p <= 1.0 for p in curve.power)

    @pytest.mark.parametrize("metric", ["cos", "spearman"])
    def test_matches_trial_loop(self, metric):
        # 130 trials at n = 100: blocks of 64, 64 and 2 samples
        args = ("circular", metric, 130, 100, 0.05, (0.0, 0.5, 2.0), 11)
        assert run_power(*args).power == loop_power(*args)

    def test_unknown_kind_refused_without_noise_levels(self):
        with pytest.raises(InvalidParam, match="unknown dependency kind 'helix'"):
            run_power("helix", "cos", 100, 100, 0.05, [])

    def test_accepts_dependency_spec(self):
        spec = DependencySpec(kind="sinusoidal", freq=4.0)
        curve = run_power(spec, "cos", 100, 100, 0.05, [0.0], seed=5)
        assert curve.dependency == "sinusoidal"
        assert curve.power == (1.0,)


class TestRunEquitability:
    def test_r2_validation(self):
        with pytest.raises(InvalidParam):
            run_equitability([1], [0.0, 0.5], n=100, reps=3)
        with pytest.raises(InvalidParam, match="r2 grid is empty"):
            run_equitability([1], [], n=100, reps=3)

    def test_noise_free_scores_high(self):
        res = run_equitability([1], [1.0, 0.5], n=2000, reps=5, seed=1)
        assert res.mean_cos[1][-1] >= 0.95  # r2 = 1.0 is last after sorting

    def test_curves_increase_with_r2(self):
        res = run_equitability([1], [0.1, 0.5, 1.0], n=400, reps=10, seed=2)
        means = res.mean_cos[1]
        assert means[0] < means[-1]

    def test_noisy_midpoint_strictly_interior(self):
        res = run_equitability([1], [0.25], n=500, reps=10, seed=3)
        assert 0.0 < res.mean_cos[1][0] < 1.0

    def test_interval_summaries(self):
        res = run_equitability([1, 2, 4], [0.2, 0.6, 1.0], n=300, reps=8, seed=4)
        assert 0.0 <= res.average_interval <= res.worst_interval <= 1.0

    def test_reps_validation(self):
        with pytest.raises(InvalidParam):
            run_equitability([1], [0.5], n=100, reps=0)

    def test_matches_trial_loop(self):
        # 70 reps at n = 150: blocks of 42 and 28 samples
        res = run_equitability([1, 4], [1.0, 0.3], n=150, reps=70, seed=12)
        assert res.mean_cos == loop_equitability_means([1, 4], [1.0, 0.3], 150, 70, 12)

    def test_interval_summaries_match_the_level_loop(self):
        # three of the four curves end at exactly 1.0, a level of the axis
        res = run_equitability([1, 2, 4, 6], [0.2, 0.6, 1.0], n=100, reps=4, seed=7)
        widths = loop_interval_widths(res.r2_grid, list(res.mean_cos.values()), LEVELS)
        assert res.worst_interval.hex() == max(widths).hex()
        assert res.average_interval.hex() == float(np.mean(widths)).hex()

    def test_reproducible(self):
        a = run_equitability([1], [0.5], n=200, reps=5, seed=5)
        b = run_equitability([1], [0.5], n=200, reps=5, seed=5)
        assert a == b


def _widths_match_the_level_loop(r2s, curves):
    r2s = np.asarray(r2s, dtype=float)
    means = np.asarray(curves, dtype=float).reshape(len(curves), len(r2s))
    got = experiments._interval_widths(r2s, means, LEVELS).tolist()
    want = loop_interval_widths(r2s, means, LEVELS)
    assert [w.hex() for w in got] == [w.hex() for w in want]
    return got


class TestIntervalWidths:
    @pytest.mark.parametrize("r2s, curves", [
        # a flat segment on a level, then a crossing segment
        ((0.2, 0.6, 1.0), ((LEVELS[10], LEVELS[10], 0.555),)),
        # exact hits at both ends and inside, falling then rising
        ((0.1, 0.4, 0.9), ((LEVELS[80], LEVELS[20], LEVELS[60]),)),
        # one-point grids, on a level and between levels
        ((0.5,), ((LEVELS[37],), (LEVELS[50],))),
        ((0.5,), ((0.3715,),)),
        # no curves
        ((0.1, 0.9), ()),
    ])
    def test_hand_made_curves(self, r2s, curves):
        _widths_match_the_level_loop(r2s, curves)

    def test_hits_and_crossings_give_the_spread(self):
        # levels 0.25-0.75 meet the rising curve at one point each; level 0.3
        # also meets all three grid points of the flat curve on it, 0.2 to 1.0
        widths = _widths_match_the_level_loop((0.2, 0.6, 1.0), ((LEVELS[30],) * 3, (0.25, 0.5, 0.75)))
        assert len(widths) == 51 and widths[5] == pytest.approx(0.8)
        assert widths[:5] + widths[6:] == [0.0] * 50

    def test_no_crossings_give_no_width(self):
        # both points between the same two levels
        assert _widths_match_the_level_loop((0.1, 0.9), ((0.0051, 0.0093),)) == []

    def test_random_curves(self):
        rng = np.random.default_rng(5)
        for k in range(300):
            g, f = rng.integers(1, 8), rng.integers(1, 6)
            r2s = np.sort(rng.random(g))
            curves = LEVELS[rng.integers(0, 101, (f, g))] if k % 2 else rng.random((f, g))
            _widths_match_the_level_loop(r2s, curves)


class TestRunBiasTable:
    def test_trials_floor(self):
        with pytest.raises(InvalidParam):
            run_bias_table(["indep"], [100], trials=100)

    def test_unknown_source(self):
        with pytest.raises(InvalidParam):
            run_bias_table(["cauchy:1"], [100], trials=500)

    def test_independence_aliases_agree(self):
        rows_a = run_bias_table(["indep"], [60], trials=500, seed=7)
        rows_b = run_bias_table(["gauss:0"], [60], trials=500, seed=7)
        # different source labels derive different streams; means must agree
        # statistically (identical generators), not bit-for-bit
        assert rows_a[0].mu == pytest.approx(rows_b[0].mu, abs=0.01)

    def test_monotone_source_pegged_at_one(self):
        rows = run_bias_table(["sin:1"], [60], trials=500, seed=8)
        assert rows[0].mu == 1.0
        assert rows[0].sigma == 0.0

    def test_matches_trial_loop(self):
        # 500 trials at n = 60: blocks of 106 samples and a last one of 76;
        # the oracle draws the independence members as uniform pairs
        sources = ["indep", "gauss:0", "clayton:0", "gumbel:1", "gumbel:1.26", "sin:3"]
        rows = run_bias_table(sources, [60], trials=500, seed=13)
        assert [(r.source, r.n, r.mu, r.sigma) for r in rows] == loop_bias_table(
            sources, [60], 500, 13)

    def test_layout(self):
        rows = run_bias_table(["indep", "sin:1"], [60, 80], trials=500, seed=9)
        assert [(r.source, r.n) for r in rows] == [
            ("indep", 60), ("indep", 80), ("sin:1", 60), ("sin:1", 80),
        ]


#: 20 genes of 60 samples: 190 pairs, two blocks at the default budget.
GENES = np.random.default_rng(26).random((60, 20))

#: Each Monte Carlo pipeline and gene-pair scan as a function of nothing,
#: giving its floats.
PIPELINES = {
    "null_moments": lambda: null_moments(60, 140, 21),
    "type2_gauss": lambda: [type2_error("gauss", 0.3, 70, 140, seed=22)],
    "type2_gumbel": lambda: [type2_error("gumbel", 1.26, 70, 140, seed=22)],
    "type2_clayton": lambda: [type2_error("clayton", -0.88, 70, 140, seed=22)],
    "bias_table": lambda: [v for r in run_bias_table(["indep", "gumbel:2", "clayton:0.51",
                                                      "gauss:0.3", "sin:3"], [40], 500, 23)
                           for v in (r.mu, r.sigma)],
    "power_cos": lambda: run_power("circular", "cos", 100, 100, 0.05, (0.5, 2.0), 24).power,
    "power_pearson": lambda: run_power("linear", "pearson", 100, 100, 0.05, (0.5, 2.0), 24).power,
    "equitability": lambda: [v for means in run_equitability([1, 6], [0.3, 1.0], n=60, reps=40,
                                                             seed=25).mean_cos.values()
                             for v in means],
    "dependence_cos": lambda: dependence_matrix(GENES, "cos").ravel(),
    "dependence_kendall": lambda: dependence_matrix(GENES, "kendall").ravel(),
}


class TestBlockSize:
    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_never_changes_a_result(self, monkeypatch, pipeline):
        # one trial per block, the default budget and four times it
        results = []
        for cells in (1, synth._BLOCK_CELLS, 4 * synth._BLOCK_CELLS):
            monkeypatch.setattr(synth, "_BLOCK_CELLS", cells)
            results.append(np.array(PIPELINES[pipeline](), dtype=float).tobytes())
        assert results[0] == results[1] == results[2]


class TestScoreMatrix:
    def grid(self, vals):
        g = 4
        m = np.zeros((g, g))
        for (i, j), v in vals.items():
            m[i, j] = m[j, i] = v
        return m

    def test_perfect_separator(self):
        m = self.grid({(0, 1): 0.9, (2, 3): 0.8, (0, 2): 0.1, (0, 3): 0.2,
                       (1, 2): 0.15, (1, 3): 0.05})
        score = score_matrix(m, [(0, 1), (2, 3)])
        assert score.auc == 1.0
        assert score.f_max == 1.0

    def test_constant_scorer_auc_half(self):
        m = self.grid({(i, j): 0.5 for i in range(4) for j in range(i + 1, 4)})
        score = score_matrix(m, [(0, 1)])
        assert score.auc == pytest.approx(0.5)

    def test_precision_recall_half_gives_f_half(self):
        # best operating point predicts {false(0,2), true(0,1)}: P = R = 0.5
        m = self.grid({(0, 2): 0.9, (0, 1): 0.8, (1, 2): 0.7, (0, 3): 0.2,
                       (1, 3): 0.1, (2, 3): 0.0})
        score = score_matrix(m, [(0, 1), (2, 3)])
        assert score.f_max == pytest.approx(0.5)
        assert score.threshold_at_fmax == pytest.approx(0.8)

    def test_roc_endpoints(self):
        rng = np.random.default_rng(1)
        m = self.grid({(i, j): rng.random() for i in range(4) for j in range(i + 1, 4)})
        score = score_matrix(m, [(0, 3)])
        assert score.roc_points[0] == (0.0, 0.0)
        assert score.roc_points[-1] == (1.0, 1.0)
        fprs = [p[0] for p in score.roc_points]
        assert fprs == sorted(fprs)

    def test_auc_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(2)
        m = self.grid({(i, j): rng.random() for i in range(4) for j in range(i + 1, 4)})
        edges = [(0, 1), (1, 3)]
        base = score_matrix(m, edges).auc
        assert score_matrix(np.exp(3 * m), edges).auc == pytest.approx(base)

    def test_empty_edges(self):
        with pytest.raises(EmptyEdgeList):
            score_matrix(np.zeros((3, 3)), [])

    def test_bad_edge_indices(self):
        with pytest.raises(InvalidInput):
            score_matrix(np.zeros((3, 3)), [(0, 5)])
        with pytest.raises(InvalidInput):
            score_matrix(np.zeros((3, 3)), [(1, 1)])

    @pytest.mark.parametrize("shape", [(3, 4), (9,), (2, 2, 2)])
    def test_rejects_non_square_matrix(self, shape):
        with pytest.raises(InvalidInput, match="must be square"):
            score_matrix(np.zeros(shape), [(0, 1)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_scores(self, bad):
        m = np.array([[0.0, bad, 0.3], [bad, 0.0, 0.2], [0.3, 0.2, 0.0]])
        with pytest.raises(InvalidInput, match="NaN or Inf"):
            score_matrix(m, [(0, 1)])

    def test_rejects_asymmetric_matrix(self):
        # read from i < j alone, this matrix scored AUC 1.0 and its
        # transpose AUC 0.0
        m = np.array([[0.0, 0.9, 0.1], [0.1, 0.0, 0.8], [0.9, 0.2, 0.0]])
        for bad in (m, m.T):
            with pytest.raises(InvalidInput, match="must be symmetric"):
                score_matrix(bad, [(0, 1)])

    def test_signed_zeros_count_as_symmetric(self):
        m = np.array([[0.0, -0.0, 0.9], [0.0, 0.0, 0.5], [0.9, 0.5, 0.0]])
        assert score_matrix(m, [(0, 2)]).auc == 1.0

    @staticmethod
    def assert_matches_naive(m, edges):
        score = score_matrix(m, edges)
        got = (score.roc_points, score.auc, score.f_max, score.threshold_at_fmax)
        assert repr(got) == repr(naive_score_matrix(m, edges))  # tells -0.0 from 0.0

    @pytest.mark.parametrize("levels", [1, 2, 3, 50])
    @pytest.mark.parametrize("which", ["one", "some", "all"])
    def test_matches_threshold_loop(self, levels, which):
        # few levels tie many pairs; "all" leaves no non-edge pair
        rng = np.random.default_rng(levels)
        g = 7
        m = np.triu(rng.integers(0, levels, (g, g)) / levels, 1)
        m = m + m.T
        pairs = [(i, j) for i in range(g) for j in range(i + 1, g)]
        edges = {"one": pairs[5:6], "some": pairs[::3], "all": pairs}[which]
        self.assert_matches_naive(m, edges)

    @given(st.integers(2, 8).flatmap(lambda g: st.tuples(
        st.lists(st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0]), min_size=g * g, max_size=g * g),
        st.sets(st.tuples(st.integers(0, g - 1), st.integers(0, g - 1))
                .filter(lambda e: e[0] != e[1]), min_size=1),
        st.just(g))))
    @settings(max_examples=150, deadline=None)
    def test_property_matches_threshold_loop(self, case):
        values, edges, g = case
        m = np.array(values).reshape(g, g)
        # mirror the upper triangle, -0.0 entries included: score_matrix
        # takes only symmetric matrices
        m = np.where(np.triu(np.ones((g, g), dtype=bool)), m, m.T)
        self.assert_matches_naive(m, sorted(edges))


class TestScoreNetwork:
    def test_recovers_planted_structure(self):
        rng = derive_rng(3, "net")
        n, g = 300, 4
        z = rng.standard_normal(n)
        expr = np.column_stack([
            z + 0.05 * rng.standard_normal(n),
            z + 0.05 * rng.standard_normal(n),
            rng.standard_normal(n),
            rng.standard_normal(n),
        ])
        score = score_network(expr, [(0, 1)], metric="pearson")
        assert score.auc == 1.0
        assert score.f_max == 1.0

    def test_matrix_shape_properties(self):
        rng = derive_rng(4, "net2")
        m = dependence_matrix(rng.random((80, 4)), metric="kendall")
        assert np.allclose(m, m.T)
        assert np.all(np.diag(m) == 0.0)

    @pytest.mark.parametrize("metric", ["cos", "dcor", "kendall", "spearman", "pearson"])
    def test_matrix_matches_pair_loop(self, metric):
        # 435 pairs at n = 50: cos scores them in blocks of 127 pairs
        x = derive_rng(6, "net4").random((50, 30))
        x[:, 7] = np.round(x[:, 7], 1)  # a gene with tied values
        assert dependence_matrix(x, metric).tobytes() == loop_dependence_matrix(x, metric).tobytes()

    def test_constant_gene_named_by_its_column(self):
        x = derive_rng(7, "net5").random((40, 6))
        x[:, 4] = 0.5
        with pytest.raises(DegenerateMarginal, match="column 4") as info:
            dependence_matrix(x, "cos")
        assert "sample" not in str(info.value)
        m = dependence_matrix(x, "dcor")
        assert np.all(m[4] == 0.0) and np.all(m[:, 4] == 0.0)

    def test_scorer_degeneracy_without_a_constant_gene_is_the_scorers(self):
        # 0 and the smallest subnormal differ, but their float std is 0
        x = derive_rng(7, "net6").random((40, 3))
        x[:, 1] = np.resize([0.0, 5e-324], 40)
        with pytest.raises(DegenerateMarginal, match="^pearson undefined for a column with "
                                                     "zero spread$"):
            dependence_matrix(x, "pearson")

    def test_unknown_metric(self):
        with pytest.raises(InvalidInput):
            dependence_matrix(np.eye(3) + 1.0, "mic")

    def test_works_with_cos_metric(self):
        rng = derive_rng(5, "net3")
        score = score_network(rng.random((60, 3)), [(0, 1)], metric="cos")
        assert 0.0 <= score.auc <= 1.0
