"""The copula statistic: trace, domain partition, local optima, gamma."""

from dataclasses import asdict

import numpy as np
import pytest

from copstat import (
    BoundsViolated,
    InvalidInput,
    Sample,
    copula_statistic,
    copula_trace,
    detect_local_optima,
    domain_gamma,
    partition_domains,
    pseudo_observations,
)
from copstat.statistic import NON_DECREASING, NON_INCREASING

from oracles import naive_cos_report


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


class TestPartitionDomains:
    def test_single_monotone_run(self):
        part = partition_domains(make_trace([1, 2, 3]))
        assert part.m == 1
        assert part.runs[0].n_points == 3
        assert part.runs[0].direction == NON_DECREASING

    def test_single_peak(self):
        part = partition_domains(make_trace([1, 2, 1]))
        assert part.m == 2
        assert (part.runs[0].start, part.runs[0].end) == (0, 1)
        assert (part.runs[1].start, part.runs[1].end) == (1, 2)
        assert part.runs[0].n_points == part.runs[1].n_points == 2
        assert sum(r.n_points for r in part.runs) == 3 + part.m - 1

    def test_plateau_absorbed_into_rising_run(self):
        part = partition_domains(make_trace([1, 1, 2, 1]))
        assert part.m == 2
        assert (part.runs[0].start, part.runs[0].end) == (0, 2)
        assert part.runs[0].direction == NON_DECREASING

    def test_flat_trace_single_nondecreasing_run(self):
        part = partition_domains(make_trace([0.5, 0.5, 0.5, 0.5]))
        assert part.m == 1
        assert part.runs[0].direction == NON_DECREASING

    def test_boundary_sharing_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(2, 60))
            s = rng.integers(0, 6, size=n) / 5.0
            part = partition_domains(s)
            assert sum(r.n_points for r in part.runs) == n + part.m - 1
            for a, b in zip(part.runs, part.runs[1:]):
                assert a.end == b.start
            assert part.runs[0].start == 0
            assert part.runs[-1].end == n - 1

    def test_runs_are_monotone_in_direction(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            s = rng.integers(0, 8, size=40) / 7.0
            for run in partition_domains(s).runs:
                seg = np.diff(s[run.start : run.end + 1])
                if run.direction == NON_DECREASING:
                    assert np.all(seg >= 0)
                else:
                    assert np.all(seg <= 0)

    def test_extrema_first_attaining_index(self):
        part = partition_domains(make_trace([1, 2, 2, 2, 1]))
        run = part.runs[0]
        assert run.argmax == 1  # first index attaining the plateau max
        assert run.argmin == 0

    def test_too_short_trace(self):
        with pytest.raises(InvalidInput):
            partition_domains(make_trace([1.0]))


class TestDetectLocalOptima:
    def test_big_jump_not_flagged(self):
        n = 10
        s = np.array([1, 2, 3, 5, 3, 2, 1, 0, 0, 0]) / n  # 2/n drop at peak
        part = detect_local_optima(s, partition_domains(s), n)
        assert not any(r.local_opt_min or r.local_opt_max for r in part.runs)

    def test_unit_steps_and_six_points_flagged(self):
        n = 10
        s = np.array([1, 2, 3, 2, 1, 0]) / n  # 1/n steps, 3 + 4 > 4 points
        part = detect_local_optima(s, partition_domains(s), n)
        assert part.runs[0].local_opt_max and part.runs[1].local_opt_max

    def test_small_domains_not_flagged(self):
        n = 10
        s = np.array([1, 2, 1]) / n  # 2 + 2 = 4 points, needs more than 4
        part = detect_local_optima(s, partition_domains(s), n)
        assert not any(r.local_opt_min or r.local_opt_max for r in part.runs)

    def test_valley_sets_min_flags(self):
        n = 12
        s = np.array([5, 4, 3, 4, 5, 6]) / n
        part = detect_local_optima(s, partition_domains(s), n)
        assert part.runs[0].local_opt_min and part.runs[1].local_opt_min
        assert not part.runs[0].local_opt_max

    def test_quartic_interior_maximum_flagged(self):
        # noise-free two-well quartic: global minima at +-sqrt(0.625) and a
        # local maximum at x = 0, i.e. near u = 0.5 on an even grid
        n = 1000
        x = np.linspace(-5, 5, n)
        y = (x**2 - 0.25) * (x**2 - 1.0)
        ps = pseudo_observations(Sample.from_columns([x, y]))
        tr = copula_trace(ps)
        part = detect_local_optima(tr.values, partition_domains(tr.values), n)
        flagged_u = [
            tr.points[r.end, 0]
            for r in part.runs[:-1]
            if r.local_opt_max or r.local_opt_min
        ]
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
        boundaries_x = np.sort(x)[[r.end for r in part.runs[:-1]]]
        assert boundaries_x == pytest.approx(optima, abs=0.01)
        assert all(r.local_opt_max or r.local_opt_min for r in part.runs)


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
            for axis in range(d):
                rep = copula_statistic(Sample(data), sort_axis=axis)
                cos, m, domains = naive_cos_report(data.tolist(), axis)
                assert (rep.cos, rep.m) == (cos, m), (kind, d, n, axis)
                assert [asdict(r) for r in rep.domains] == domains, (kind, d, n, axis)

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

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        data = rng.random((50, 3))
        a = copula_statistic(Sample(data))
        b = copula_statistic(Sample(data))
        assert a == b

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
