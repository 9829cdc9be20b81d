"""The copula statistic: trace, domain partition, local optima, gamma."""

import json
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copstat import (
    BoundsViolated,
    DegenerateMarginal,
    DomainRecord,
    InvalidInput,
    PseudoSample,
    Sample,
    copula_statistic,
    copula_trace,
    detect_local_optima,
    domain_gamma,
    kendall_mv,
    partition_domains,
    pseudo_observations,
)
from copstat import copula_core, statistic
from copstat.statistic import _cos_batch

from oracles import loop_cos_summary, naive_copula_count, naive_cos_report


def make_trace(values):
    return np.asarray(values, dtype=float)


class TestCopulaTrace:
    def test_comonotonic(self):
        ps = pseudo_observations(Sample.from_columns([[1, 2, 3], [1, 2, 3]]))
        tr = copula_trace(ps)
        assert np.allclose(tr.values, [1 / 3, 2 / 3, 1.0])

    def test_countermonotonic_sits_on_lower_envelope(self):
        ps = pseudo_observations(Sample.from_columns([[1, 2, 3], [3, 2, 1]]))
        tr = copula_trace(ps)
        assert np.allclose(tr.values, [1 / 3, 1 / 3, 1 / 3])

    def test_monotone_trace_is_nondecreasing(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=100)
        ps = pseudo_observations(Sample.from_columns([x, np.exp(x)]))
        tr = copula_trace(ps)
        assert np.all(np.diff(tr.values) >= 0)

    def test_sort_axis_bounds(self):
        ps = pseudo_observations(Sample(np.random.default_rng(1).random((10, 2))))
        with pytest.raises(InvalidInput):
            copula_trace(ps, sort_axis=2)

    @pytest.mark.parametrize("shape", [(3, 1), (0, 2), (3, 0), (0, 1)])
    def test_refuses_fewer_than_one_row_or_two_columns(self, shape):
        ps = PseudoSample(np.full(shape, 0.5))
        message = f"trace needs at least 1 row and 2 columns, got shape {shape}"
        with pytest.raises(InvalidInput) as exc:
            copula_trace(ps)
        assert str(exc.value) == message

    @pytest.mark.parametrize("d", [2, 3])
    def test_one_row_traces_to_one(self, d):
        tr = copula_trace(PseudoSample(np.full((1, d), 0.5)), sort_axis=d - 1)
        assert tr.values.tolist() == [1.0] and tr.order.tolist() == [0]

    @pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 129])
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_tied_points_match_stable_order_and_naive_count(self, n, d):
        # values on a 4-level grid, so points share coordinates
        ps = PseudoSample(np.random.default_rng(100 * n + d).integers(1, 5, size=(n, d)) / 4)
        rows = ps.u.tolist()
        for axis in range(d):
            tr = copula_trace(ps, sort_axis=axis)
            order = sorted(range(n), key=lambda j: (rows[j][axis], j))
            assert tr.order.tolist() == order
            assert np.array_equal(tr.points, ps.u[order])
            assert tr.values.tolist() == [naive_copula_count(rows, rows[j]) / n for j in order]


class TestPartitionDomains:
    def test_single_monotone_run(self):
        part = partition_domains(make_trace([1, 2, 3]))
        assert part.m == 1
        assert part.n_points[0] == 3
        assert part.rising[0]

    def test_single_peak(self):
        part = partition_domains(make_trace([1, 2, 1]))
        assert part.m == 2
        assert (part.start[0], part.end[0]) == (0, 1)
        assert (part.start[1], part.end[1]) == (1, 2)
        assert part.n_points[0] == part.n_points[1] == 2
        assert part.n_points.sum() == 3 + part.m - 1

    def test_plateau_absorbed_into_rising_run(self):
        part = partition_domains(make_trace([1, 1, 2, 1]))
        assert part.m == 2
        assert (part.start[0], part.end[0]) == (0, 2)
        assert part.rising[0]

    def test_flat_trace_single_nondecreasing_run(self):
        part = partition_domains(make_trace([0.5, 0.5, 0.5, 0.5]))
        assert part.m == 1
        assert part.rising[0]

    def test_boundary_sharing_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(2, 60))
            s = rng.integers(0, 6, size=n) / 5.0
            part = partition_domains(s)
            assert part.n_points.sum() == n + part.m - 1
            assert np.array_equal(part.end[:-1], part.start[1:])
            assert part.start[0] == 0
            assert part.end[-1] == n - 1

    def test_runs_are_monotone_in_direction(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            s = rng.integers(0, 8, size=40) / 7.0
            part = partition_domains(s)
            for start, end, rising in zip(part.start, part.end, part.rising):
                seg = np.diff(s[start : end + 1])
                if rising:
                    assert np.all(seg >= 0)
                else:
                    assert np.all(seg <= 0)

    def test_extrema_first_attaining_index(self):
        part = partition_domains(make_trace([1, 2, 2, 2, 1]))
        assert part.argmax[0] == 1  # first index attaining the plateau max
        assert part.argmin[0] == 0

    def test_too_short_trace(self):
        with pytest.raises(InvalidInput):
            partition_domains(make_trace([1.0]))

    def test_nan_step_counts_as_falling(self):
        # NaN > 0 is False: a NaN step falls, and leads no rising run
        part = partition_domains(np.array([0.0, np.nan, 1.0]))
        assert part.m == 1
        assert (part.start[0], part.end[0]) == (0, 2)
        assert not part.rising[0]
        part = partition_domains(np.array([0.0, 0.0, np.nan, 1.0, 2.0]))
        assert list(zip(part.start.tolist(), part.end.tolist(), part.rising.tolist())) == [
            (0, 3, False), (3, 4, True)]


class TestDetectLocalOptima:
    def test_big_jump_not_flagged(self):
        n = 10
        s = np.array([1, 2, 3, 5, 3, 2, 1, 0, 0, 0]) / n  # 2/n drop at peak
        part = detect_local_optima(s, partition_domains(s), n)
        assert not (part.local_opt_min | part.local_opt_max).any()

    def test_unit_steps_and_six_points_flagged(self):
        n = 10
        s = np.array([1, 2, 3, 2, 1, 0]) / n  # 1/n steps, 3 + 4 > 4 points
        part = detect_local_optima(s, partition_domains(s), n)
        assert part.local_opt_max[0] and part.local_opt_max[1]

    def test_small_domains_not_flagged(self):
        n = 10
        s = np.array([1, 2, 1]) / n  # 2 + 2 = 4 points, needs more than 4
        part = detect_local_optima(s, partition_domains(s), n)
        assert not (part.local_opt_min | part.local_opt_max).any()

    def test_valley_sets_min_flags(self):
        n = 12
        s = np.array([5, 4, 3, 4, 5, 6]) / n
        part = detect_local_optima(s, partition_domains(s), n)
        assert part.local_opt_min[0] and part.local_opt_min[1]
        assert not part.local_opt_max[0]

    def test_quartic_interior_maximum_flagged(self):
        # noise-free two-well quartic: global minima at +-sqrt(0.625) and a
        # local maximum at x = 0, i.e. near u = 0.5 on an even grid
        n = 1000
        x = np.linspace(-5, 5, n)
        y = (x**2 - 0.25) * (x**2 - 1.0)
        ps = pseudo_observations(Sample.from_columns([x, y]))
        tr = copula_trace(ps)
        part = detect_local_optima(tr.values, partition_domains(tr.values), n)
        flagged = (part.local_opt_max | part.local_opt_min)[:-1]
        flagged_u = tr.points[part.end[:-1][flagged], 0]
        assert any(0.45 <= u <= 0.55 for u in flagged_u)

    def test_sine_optima_sharing_a_level_flagged(self):
        # noise-free sin(14x) on U(-1, 1): eight optima, all at level +-1, so
        # the trace steps there reach several times 1/n; each turn still joins
        # two long runs
        n = 1000
        x = np.random.default_rng(14).uniform(-1.0, 1.0, n)
        ps = pseudo_observations(Sample.from_columns([x, np.sin(14 * x)]))
        tr = copula_trace(ps)
        part = detect_local_optima(tr.values, partition_domains(tr.values), n)
        optima = (np.pi / 2 + np.pi * np.arange(-4, 4)) / 14
        boundaries_x = np.sort(x)[part.end[:-1]]
        assert boundaries_x == pytest.approx(optima, abs=0.01)
        assert (part.local_opt_max | part.local_opt_min).all()


class TestGamma:
    def test_flag_wins(self):
        assert domain_gamma(0.2, 0.6, True) == 1.0

    def test_mean_of_lambdas(self):
        assert domain_gamma(0.2, 0.6, False) == pytest.approx(0.4)

    def test_unit_lambdas(self):
        assert domain_gamma(1.0, 1.0, False) == 1.0


class TestCopulaStatistic:
    def test_monotone_increasing_exact_one(self):
        rng = np.random.default_rng(4)
        for n in (2, 3, 5, 17, 50):
            x = rng.normal(size=n)
            rep = copula_statistic(Sample.from_columns([x, 3 * x + 2]))
            assert rep.cos == 1.0
            assert rep.m == 1

    def test_monotone_decreasing_exact_one(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 11, 40):
            x = rng.normal(size=n)
            rep = copula_statistic(Sample.from_columns([x, np.exp(-x)]))
            assert rep.cos == 1.0

    def test_weighted_average_identity(self):
        rng = np.random.default_rng(6)
        rep = copula_statistic(Sample(rng.random((80, 2))))
        recomputed = sum(r.n_points * r.gamma for r in rep.domains) / (
            rep.n + rep.m - 1
        )
        assert rep.cos == pytest.approx(recomputed, abs=1e-15)
        assert sum(r.n_points for r in rep.domains) == rep.n + rep.m - 1

    def test_in_unit_interval(self):
        rng = np.random.default_rng(7)
        for d in (2, 3, 4, 5):
            for _ in range(20):
                n = int(rng.integers(2, 80))
                data = rng.random((n, d))
                # discretise some columns, keeping two distinct values in each
                for k in np.flatnonzero(rng.random(d) < 0.5):
                    data[:, k] = rng.integers(0, int(rng.integers(2, 6)), size=n)
                    data[:2, k] = (0, 1)
                try:
                    rep = copula_statistic(Sample(data))
                except BoundsViolated as exc:
                    pytest.fail(f"d={d}, n={n}: {exc}")
                assert 0.0 <= rep.cos <= 1.0
                assert all(0.0 <= r.gamma <= 1.0 for r in rep.domains)

    def test_matches_oracle(self):
        rng = np.random.default_rng(13)
        cases = [
            (kind, d, n)
            for kind in ("random", "tied", "monotone", "sine", "noisy_sine")
            for d in (2, 3, 4, 5)
            for n in (2, 5, 40, int(rng.integers(60, 201)))
        ]
        for kind, d, n in cases:
            x = rng.uniform(-1.0, 1.0, n)
            if kind == "random":
                data = rng.random((n, d))
            elif kind == "tied":
                data = rng.integers(0, 5, size=(n, d)).astype(float)
                data[:2] = ((0,), (1,))  # no constant column
            elif kind == "monotone":
                data = np.column_stack([x] + [(-1) ** k * np.exp(k * x) for k in range(1, d)])
            else:
                noise = 0.3 if kind == "noisy_sine" else 0.0
                data = np.column_stack(
                    [x] + [np.sin(14 * x + k) + noise * rng.normal(size=n) for k in range(1, d)]
                )
            ps = pseudo_observations(data)
            for axis in range(d):
                rep = copula_statistic(Sample(data), sort_axis=axis)
                cos, m, domains = naive_cos_report(data.tolist(), axis)
                assert (rep.cos, rep.m) == (cos, m), (kind, d, n, axis)
                assert [asdict(r) for r in rep.domains] == domains, (kind, d, n, axis)
                # the public stage functions find the runs the scorer found
                trace = copula_trace(ps, axis)
                part = detect_local_optima(trace, partition_domains(trace), n)
                for name in ("start", "end", "rising", "local_opt_min", "local_opt_max"):
                    assert np.array_equal(getattr(part, name), getattr(rep, name)), (
                        kind, d, n, axis, name)

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(60, 2))
        base = copula_statistic(Sample(data)).cos
        warped = np.column_stack([np.exp(data[:, 0]), data[:, 1] ** 3])
        assert copula_statistic(Sample(warped)).cos == base

    def test_symmetry_for_monotone_data(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=30)
        y = x**3 + 1
        assert (
            copula_statistic(Sample.from_columns([x, y])).cos
            == copula_statistic(Sample.from_columns([y, x])).cos
        )

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_invariant_under_increasing_marginal_maps(self, data):
        n = data.draw(st.integers(2, 40))
        d = data.draw(st.integers(2, 4))
        column = st.lists(st.integers(-500, 500), min_size=n, max_size=n, unique=True)
        x = np.column_stack([data.draw(column) for _ in range(d)]).astype(float)
        # each map is strictly increasing in float64 on distinct integers in [-500, 500]
        maps = st.sampled_from([
            lambda v: 3.0 * v - 7.0, lambda v: v**3, lambda v: np.exp(v / 50.0),
            np.arctan, lambda v: np.log(v + 501.0),
        ])
        warped = np.column_stack([data.draw(maps)(x[:, k]) for k in range(d)])
        assert copula_statistic(Sample(warped)) == copula_statistic(Sample(x))

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        data = rng.random((50, 3))
        a = copula_statistic(Sample(data))
        b = copula_statistic(Sample(data))
        assert a == b

    def test_reports_of_different_data_differ(self):
        rng = np.random.default_rng(14)
        a = copula_statistic(Sample(rng.random((50, 3))))
        assert a != copula_statistic(Sample(rng.random((50, 3))))
        # one per-run entry apart is enough
        lam = a.lambda_min.copy()
        assert replace(a, lambda_min=lam) == a
        lam[-1] = np.nextafter(lam[-1], 2.0)
        assert replace(a, lambda_min=lam) != a

    def test_records_built_only_when_read(self, monkeypatch):
        built = []

        class CountedRecord(DomainRecord):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(statistic, "DomainRecord", CountedRecord)
        data = np.random.default_rng(15).random((300, 2))
        report = copula_statistic(Sample(data))
        assert 0.0 <= report.cos <= 1.0
        assert built == []
        assert len(report.domains) == report.m == len(built)

    def test_multivariate_monotone(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=40)
        rep = copula_statistic(Sample.from_columns([x, 2 * x, x + 1, x**3]))
        assert rep.cos == 1.0
        assert rep.d == 4

    def test_sort_axis_option(self):
        rng = np.random.default_rng(12)
        data = rng.random((50, 3))
        rep0 = copula_statistic(Sample(data), sort_axis=0)
        rep2 = copula_statistic(Sample(data), sort_axis=2)
        assert rep0.sort_axis == 0 and rep2.sort_axis == 2
        assert 0.0 <= rep2.cos <= 1.0

    @pytest.mark.parametrize("axis", [3, -1])
    def test_sort_axis_out_of_range(self, axis):
        data = np.random.default_rng(20).random((30, 3))
        with pytest.raises(InvalidInput, match=f"sort_axis {axis} out of range for d=3"):
            copula_statistic(data, sort_axis=axis)
        # a constant column is reported first, as with a valid axis
        data = data.copy()
        data[:, 1] = 0.5
        with pytest.raises(DegenerateMarginal):
            copula_statistic(data, sort_axis=axis)


def _stack(kind, T, n, d, rng):
    if kind == "random":
        return rng.random((T, n, d))
    if kind == "tied":
        x = rng.integers(0, 5, size=(T, n, d)).astype(float)
        x[:, :2] = ((0,), (1,))  # no constant column
        return x
    z = rng.normal(size=(T, n, 1))
    sign = 1 if kind == "monotone" else -1  # countermonotonic: a flat trace, one run
    return np.concatenate([z] + [sign**k * np.exp(k * z) for k in range(1, d)], axis=2)


def _loop_cos(x):
    return [copula_statistic(Sample(sample)).cos.hex() for sample in x]


class TestLargeBivariate:
    """Above the crossover the trace counts come from merge levels; every
    report field must equal the bitset kernel's.  Each side's path is set
    by the crossover it runs under, so the tuned value may move."""

    @pytest.mark.parametrize("n", [5000, 20000])
    def test_reports_equal_the_bitset_path(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        x = rng.random(n)
        cases = {
            "independent": rng.random((n, 2)),
            "noisy_sine": np.column_stack([x, np.sin(9 * x) + 0.3 * rng.normal(size=n)]),
            "countermonotone": np.column_stack([x, -x]),
        }
        for axis in (0, 1):
            with monkeypatch.context() as mp:
                mp.setattr(copula_core, "_MERGE_MIN_N", n)
                merged = [copula_statistic(data, axis) for data in cases.values()]
            with monkeypatch.context() as mp:
                mp.setattr(copula_core, "_MERGE_MIN_N", n + 1)
                kernel = [copula_statistic(data, axis) for data in cases.values()]
            for name, got, want in zip(cases, merged, kernel):
                assert got.cos.hex() == want.cos.hex(), (name, axis)
                assert got.m == want.m and got == want, (name, axis)


class TestSummary:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["random", "noisy_sine", "tied", "monotone", "countermonotonic"]),
           st.integers(2, 400), st.integers(2, 3), st.integers(0, 1), st.integers(0, 2**32 - 1))
    def test_groups_add_up_and_match_the_loop(self, kind, n, d, sort_axis, seed):
        rng = np.random.default_rng(seed)
        if kind == "noisy_sine":
            x = _stack("random", 1, n, d, rng)[0]
            x[:, 1] = np.sin(9 * x[:, 0]) + 0.2 * rng.normal(size=n)
        else:
            x = _stack(kind, 1, n, d, rng)[0]
        report = copula_statistic(x, sort_axis)
        summary = report.summary()
        assert sum(summary["runs"]) == report.m
        assert sum(summary["points"]) == n + report.m - 1
        assert all(c <= r for c, r in zip(summary["credited"], summary["runs"]))
        assert summary["flagged_boundaries"] <= report.m - 1
        assert abs(sum(summary["share"]) - report.cos) <= 1e-12
        assert summary == loop_cos_summary(report)
        assert json.loads(json.dumps(summary)) == summary

    def test_flagged_boundaries_of_a_noisy_sine(self):
        rng = np.random.default_rng(21)
        x = rng.random(2000)
        y = np.sin(14 * x) + 0.05 * rng.normal(size=2000)
        report = copula_statistic(np.column_stack([x, y]))
        summary = report.summary()
        assert summary["flagged_boundaries"] >= 4 and sum(summary["credited"]) >= 8
        assert summary == loop_cos_summary(report)

    def test_monotone_sample_is_one_long_run(self):
        x = np.arange(50.0)
        summary = copula_statistic(np.column_stack([x, x**3])).summary()
        assert summary == {
            "groups": ["2", "3", "4-5", ">5"], "runs": [0, 0, 0, 1], "points": [0, 0, 0, 50],
            "credited": [0, 0, 0, 0], "share": [0.0, 0.0, 0.0, 1.0], "flagged_boundaries": 0,
        }


class TestCosBatch:
    @pytest.mark.parametrize("words", [1, 3, None])
    @pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 200])
    def test_matches_copula_statistic(self, monkeypatch, n, words):
        rng = np.random.default_rng(n)
        cases = []
        for kind in ("random", "tied", "monotone", "countermonotonic"):
            for d in (2, 3, 4, 5):
                x = _stack(kind, 5, n, d, rng)
                cases.append((x, _loop_cos(x)))
        if words is not None:
            # several tiles of `words` 64-bit words
            monkeypatch.setattr(copula_core, "_TILE_WORDS", words)
        for x, want in cases:
            assert [c.hex() for c in _cos_batch(x)] == want, x.shape

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4), st.integers(2, 30), st.integers(2, 4), st.integers(2, 5),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_copula_statistic_on_tied_grids(self, T, n, d, levels, seed):
        x = np.random.default_rng(seed).integers(0, levels, size=(T, n, d)).astype(float)
        x[:, :2] = ((0,), (1,))
        assert [c.hex() for c in _cos_batch(x)] == _loop_cos(x)

    def test_one_bad_sample_raises_as_the_loop_does(self):
        x = np.random.default_rng(16).random((4, 30, 3))
        bad = [(DegenerateMarginal, 1.0), (InvalidInput, np.nan), (InvalidInput, np.inf)]
        for error, value in bad:
            y = x.copy()
            y[2, :, 1] = 1.0
            y[2, 5, 1] = value
            with pytest.raises(error):
                copula_statistic(y[2])
            with pytest.raises(error):
                _cos_batch(y)

    @pytest.mark.parametrize("constant", [[(0, 0)], [(2, 1), (3, 0)], [(1, 2), (1, 0), (3, 1)]])
    def test_names_the_loops_first_constant_column(self, constant):
        x = np.random.default_rng(19).random((4, 25, 3))
        for t, k in constant:
            x[t, :, k] = 0.5
        for t, sample in enumerate(x):
            try:
                copula_statistic(sample)
            except DegenerateMarginal as exc:
                message = str(exc)
                break
        # the loop's message, with the sample it came from
        want = message.replace(" is constant", f" of sample {t} is constant")
        with pytest.raises(DegenerateMarginal) as exc:
            _cos_batch(x)
        assert str(exc.value) == want
        with pytest.raises(DegenerateMarginal) as exc:
            _cos_batch(x[t:t + 1])
        assert str(exc.value) == message

    def test_rejects_other_shapes(self):
        x = np.random.default_rng(17).random((3, 20, 2))
        for bad in (x[0], x[None], x[:, :1], x[:, :, :1]):
            with pytest.raises(InvalidInput):
                _cos_batch(bad)


class TestRowOrder:
    """Without ties a sample's rows may come in any order: every result is
    bit-identical (tied copula_trace counts: TestDominanceCounts)."""

    @staticmethod
    def _assert_row_order_free(data, perm):
        shuffled = data[perm]
        assert kendall_mv(shuffled).hex() == kendall_mv(data).hex()
        for axis in range(data.shape[1]):
            want, got = copula_statistic(data, axis), copula_statistic(shuffled, axis)
            assert got.cos.hex() == want.cos.hex(), axis
            assert got == want, axis  # every CosReport array

    @given(st.integers(2, 80).flatmap(lambda n: st.tuples(
               st.just(n), st.sampled_from([2, 3]), st.sampled_from(["random", "sine"]),
               st.integers(0, 2**32 - 1), st.permutations(range(n)))))
    @settings(max_examples=60, deadline=None)
    def test_without_ties_rows_may_come_in_any_order(self, case):
        n, d, kind, seed, perm = case
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((n, d))
        if kind == "sine":
            data[:, 1:] += np.sin(9 * data[:, :1])
        assert all(np.unique(column).size == n for column in data.T)  # no ties
        self._assert_row_order_free(data, np.array(perm))

    def test_without_ties_rows_may_come_in_any_order_past_the_crossover(self):
        n = copula_core._MERGE_MIN_N + 37
        rng = np.random.default_rng(41)
        x = rng.random(n)
        data = np.column_stack([x, np.sin(9 * x) + 0.3 * rng.normal(size=n)])
        self._assert_row_order_free(data, rng.permutation(n))
