"""Core layer: rank transform, empirical copula, bounds, relative distance."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from copstat import (
    BoundsViolated,
    DegenerateMarginal,
    DimensionMismatch,
    EmpiricalCopula,
    InvalidInput,
    Sample,
    copula_core,
    copula_statistic,
    copula_trace,
    empirical_copula,
    frechet_lower,
    frechet_upper,
    product_copula,
    pseudo_observations,
    relative_distance,
)
from copstat.copula_core import PseudoSample

from oracles import (
    gaussian_copula_at_half,
    naive_copula_count,
    naive_ranks,
    naive_relative_distance,
)


class TestSample:
    def test_rejects_single_row(self):
        with pytest.raises(InvalidInput):
            Sample(np.array([[5.0, 1.0]]))

    def test_rejects_single_column(self):
        with pytest.raises(InvalidInput):
            Sample(np.arange(10.0).reshape(-1, 1))

    def test_rejects_nan_and_inf(self):
        with pytest.raises(InvalidInput):
            Sample(np.array([[1.0, 2.0], [np.nan, 3.0]]))
        with pytest.raises(InvalidInput):
            Sample(np.array([[1.0, 2.0], [np.inf, 3.0]]))

    def test_from_columns_checks_lengths(self):
        with pytest.raises(InvalidInput):
            Sample.from_columns([[1, 2, 3], [1, 2]])

    def test_data_is_readonly(self):
        s = Sample(np.array([[1.0, 2.0], [3.0, 4.0]]))
        with pytest.raises(ValueError):
            s.data[0, 0] = 9.0

    def test_leaves_caller_arrays_writable(self):
        x = np.random.default_rng(6).random((20, 2))
        u = (np.argsort(np.argsort(x, axis=0), axis=0) + 1) / 20
        x0, u0 = x.copy(), u.copy()
        s, ps = Sample(x), PseudoSample(u)
        copula_statistic(x)
        x[0, 0] = u[0, 0] = 9.0
        assert np.array_equal(s.data, x0)
        assert np.array_equal(ps.u, u0)


class TestPseudoObservations:
    def test_basic_ranks(self):
        ps = pseudo_observations(Sample.from_columns([[10, 30, 20], [1, 2, 3]]))
        assert np.allclose(ps.u[:, 0], [1 / 3, 1.0, 2 / 3])

    def test_stable_tie_breaking(self):
        ps = pseudo_observations(Sample.from_columns([[7, 7, 9], [1, 2, 3]]))
        assert np.allclose(ps.u[:, 0], [1 / 3, 2 / 3, 1.0])

    def test_constant_column_rejected(self):
        with pytest.raises(DegenerateMarginal):
            pseudo_observations(Sample.from_columns([[4, 4, 4], [1, 2, 3]]))

    def test_each_column_is_permutation_of_grid(self):
        rng = np.random.default_rng(0)
        ps = pseudo_observations(Sample(rng.normal(size=(37, 3))))
        for k in range(3):
            assert np.allclose(np.sort(ps.u[:, k]), np.arange(1, 38) / 37)
        assert ps.u.max() == 1.0

    def test_matches_naive_ranks_with_ties(self):
        rng = np.random.default_rng(1)
        col = rng.integers(0, 5, size=20).astype(float)
        ps = pseudo_observations(Sample.from_columns([col, rng.normal(size=20)]))
        assert np.allclose(ps.u[:, 0], np.array(naive_ranks(col)) / 20)


class TestRanked:
    def test_matches_stable_sort_where_only_some_columns_tie(self):
        rng = np.random.default_rng(21)
        x = rng.random((4, 90, 3))
        x[1, :, 2] = rng.integers(0, 6, size=90)  # one tied column in one sample
        x[3, :, 0] = rng.integers(0, 3, size=90)
        x[3, :, 1] = np.round(x[3, :, 1], 1)
        x0 = x.copy()
        order, pos, ranked = copula_core._ranked(x)
        want = np.argsort(x.transpose(0, 2, 1), axis=2, kind="stable")
        assert np.array_equal(order, want)
        assert np.array_equal(ranked, np.sort(x.transpose(0, 2, 1), axis=2))
        assert np.array_equal(np.take_along_axis(pos, order, axis=2),
                              np.broadcast_to(np.arange(90), order.shape))
        assert np.array_equal(x, x0)

    @staticmethod
    def _assert_stable(x):
        order, pos, ranked = copula_core._ranked(x)
        columns = x.transpose(0, 2, 1)
        want = np.argsort(columns, axis=2, kind="stable")
        assert np.array_equal(order, want)
        assert np.array_equal(ranked, np.take_along_axis(columns, want, axis=2))
        assert np.array_equal(np.take_along_axis(pos, want, axis=2),
                              np.broadcast_to(np.arange(x.shape[1]), order.shape))

    @pytest.mark.parametrize("n,distinct", [(256, 255), (257, 256), (600, 256), (600, 257)])
    def test_value_ids_of_either_width_sort_stably(self, n, distinct):
        # value ids of 8 bits up to n = 256, 16 bits above; ids up to
        # distinct - 1, on either side of 255
        rng = np.random.default_rng(n + distinct)
        levels = rng.permutation(rng.random(distinct))
        tied = np.concatenate([levels, rng.choice(levels, n - distinct)])
        x = np.stack([np.column_stack([rng.permutation(tied), rng.random(n)]),
                      np.column_stack([rng.random(n), rng.permutation(tied)])])
        self._assert_stable(x)

    def test_more_value_ids_than_16_bits_hold(self):
        rng = np.random.default_rng(22)
        distinct = rng.random(67_000)
        column = rng.permutation(np.concatenate([distinct, rng.choice(distinct, 3_000)]))
        assert np.unique(column).size > 2**16
        self._assert_stable(np.column_stack([column, rng.random(column.size)])[None])

    def test_tied_and_untied_columns_across_a_stack(self):
        rng = np.random.default_rng(23)
        x = rng.random((3, 300, 4))
        x[0, :, 1] = rng.integers(0, 280, size=300)  # ids up to 279
        x[1, :, 3] = rng.integers(0, 2, size=300)
        x[2, :, 0] = np.repeat(rng.random(100), 3)
        x[2, :, 2] = rng.integers(0, 30, size=300) / 7
        self._assert_stable(x)


class TestPseudoSample:
    @pytest.mark.parametrize("u", [[0.5, 1.0], np.full((2, 2, 2), 0.5)])
    def test_must_be_2d(self, u):
        with pytest.raises(InvalidInput, match="2-D"):
            PseudoSample(u)

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, np.nan])
    def test_values_must_lie_in_the_half_open_unit_interval(self, bad):
        with pytest.raises(InvalidInput, match=r"\(0, 1\]"):
            PseudoSample([[0.5, 1.0], [bad, 0.5]])


class TestEmpiricalCopula:
    def test_comonotonic_point(self):
        cop = empirical_copula(Sample.from_columns([[1, 2, 3], [1, 2, 3]]))
        assert cop.cdf([2 / 3, 2 / 3]) == pytest.approx(2 / 3)

    def test_zero_coordinate_gives_zero(self):
        cop = empirical_copula(Sample(np.random.default_rng(2).random((25, 2))))
        assert cop.cdf([0.0, 0.7]) == 0.0

    def test_all_ones_gives_one(self):
        cop = empirical_copula(Sample(np.random.default_rng(3).random((25, 3))))
        assert cop.cdf([1.0, 1.0, 1.0]) == 1.0

    def test_dimension_mismatch(self):
        cop = empirical_copula(Sample(np.random.default_rng(4).random((10, 2))))
        with pytest.raises(DimensionMismatch):
            cop.cdf([0.5, 0.5, 0.5])

    @pytest.mark.parametrize("n,d", [(2, 2), (5, 2), (8, 2), (6, 3), (8, 4)])
    def test_matches_naive_enumeration(self, n, d):
        rng = np.random.default_rng(n * 10 + d)
        cop = empirical_copula(Sample(rng.normal(size=(n, d))))
        rows = cop.points.u.tolist()
        grid = np.linspace(0, 1, 2 * n + 1)
        pts = rng.choice(grid, size=(40, d))
        for p in pts:
            expected = naive_copula_count(rows, p.tolist()) / n
            assert cop.cdf(p) == pytest.approx(expected)

    def test_cdf_many_agrees_with_cdf(self):
        rng = np.random.default_rng(5)
        cop = empirical_copula(Sample(rng.random((30, 3))))
        pts = rng.random((50, 3))
        batch = cop.cdf_many(pts)
        for i, p in enumerate(pts):
            assert batch[i] == cop.cdf(p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1, 2.0])
    def test_cdf_many_rejects_points_off_the_unit_cube(self, bad):
        cop = empirical_copula(Sample(np.random.default_rng(6).random((10, 2))))
        with pytest.raises(InvalidInput):
            cop.cdf_many(np.array([[0.5, 0.5], [bad, 0.5]]))

    @pytest.mark.parametrize("shape", [(2,), (4, 3), (1, 1, 2)])
    def test_cdf_many_rejects_wrong_shapes(self, shape):
        cop = empirical_copula(Sample(np.random.default_rng(7).random((10, 2))))
        with pytest.raises(DimensionMismatch):
            cop.cdf_many(np.full(shape, 0.5))

    def test_cdf_many_of_empty_batch_is_empty(self):
        cop = empirical_copula(Sample(np.random.default_rng(8).random((10, 2))))
        assert cop.cdf_many(np.empty((0, 2))).shape == (0,)

    def test_bounds_hold_on_rank_grid(self):
        # On points aligned to the 1/n grid the step function respects both
        # envelopes exactly; off-grid the lower envelope may dip by O(1/n).
        rng = np.random.default_rng(6)
        for _ in range(5):
            n = int(rng.integers(3, 30))
            cop = empirical_copula(Sample(rng.normal(size=(n, 2))))
            grid = np.arange(0, n + 1) / n
            for u in grid:
                for v in grid:
                    c = cop.cdf([u, v])
                    assert frechet_lower([u, v]) - 1e-12 <= c <= frechet_upper([u, v]) + 1e-12

    def test_monotone_in_each_coordinate(self):
        rng = np.random.default_rng(7)
        cop = empirical_copula(Sample(rng.random((40, 2))))
        pts = rng.random((30, 2))
        for p in pts:
            base = cop.cdf(p)
            for k in range(2):
                q = p.copy()
                q[k] = min(1.0, q[k] + rng.random() * (1 - q[k]))
                assert cop.cdf(q) >= base - 1e-12


def _kernel_input(kind, n, d, rng):
    """Pseudo-observations with distinct ranks, tied values or equal columns."""
    if kind == "random":
        return pseudo_observations(Sample(rng.random((n, d))))
    if kind == "tied":
        # values on a 4-level grid, so columns share values (not rank / n)
        return PseudoSample(rng.integers(1, 5, size=(n, d)) / 4)
    return pseudo_observations(Sample(np.repeat(rng.random((n, 1)), d, axis=1)))


def _naive_counts(ps):
    rows = ps.u.tolist()
    return [naive_copula_count(rows, p) for p in rows]


def dominance_counts(ps, sort_axis=0):
    """n * C_n at every sample point, in row order: `copula_trace`'s counts
    mapped back to rows through its order."""
    trace = copula_trace(ps, sort_axis)
    counts = np.empty(ps.n, dtype=np.int64)
    counts[trace.order] = np.rint(trace.values * ps.n)
    return counts


class TestDominanceCounts:
    @pytest.mark.parametrize("kind", ["random", "tied", "monotone"])
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 127, 128, 129])
    def test_matches_naive_count_across_tiles(self, n, d, kind, monkeypatch):
        ps = _kernel_input(kind, n, d, np.random.default_rng(1000 * n + 10 * d))
        expected = _naive_counts(ps)
        for words in (1, 2, copula_core._TILE_WORDS):
            monkeypatch.setattr(copula_core, "_TILE_WORDS", words)
            counts = dominance_counts(ps)
            assert counts.dtype == np.int64
            assert counts.tolist() == expected

    @pytest.mark.parametrize("kind", ["random", "tied", "monotone"])
    @pytest.mark.parametrize("n,d", [(700, 2), (1500, 3), (1100, 5)])
    def test_divided_by_n_equals_cdf_many(self, n, d, kind):
        ps = _kernel_input(kind, n, d, np.random.default_rng(n + d))
        assert np.array_equal(dominance_counts(ps) / n, EmpiricalCopula(ps).cdf_many(ps.u))

    @given(
        st.integers(min_value=2, max_value=5).flatmap(
            lambda d: st.lists(
                st.lists(st.integers(1, 6), min_size=d, max_size=d),
                min_size=2,
                max_size=140,
            )
        ),
        st.sampled_from([1, 3, 500_000]),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_matches_naive_count(self, levels, words):
        ps = PseudoSample(np.array(levels, dtype=float) / 6)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(copula_core, "_TILE_WORDS", words)
            assert dominance_counts(ps).tolist() == _naive_counts(ps)

    @given(st.integers(2, 80).flatmap(lambda n: st.tuples(
               st.sampled_from([2, 3]), st.sampled_from([2, 4]),
               st.integers(0, 2**32 - 1), st.permutations(range(n)))))
    @settings(max_examples=60, deadline=None)
    def test_counts_move_with_their_rows(self, case):
        d, levels, seed, perm = case
        perm = np.array(perm)
        rng = np.random.default_rng(seed)
        ps = PseudoSample(rng.integers(1, levels + 1, size=(perm.size, d)) / levels)
        shuffled = PseudoSample(ps.u[perm])
        for axis in range(d):
            assert np.array_equal(dominance_counts(shuffled, axis), dominance_counts(ps, axis)[perm])


def _trace_kernel_inputs(x):
    """`_dominance_counts`' inputs for a (T, n, d) stack whose samples share
    column 0, the sort axis: stable trace order, per-column stable
    positions and last tied positions, and the shared sort-axis cut."""
    order, pos, last = copula_core._tied_ranks(x)
    traces = order[:, 0]
    rank = copula_core._trace_ranks(order, pos, 0)
    row = copula_core._trace_ranks(order, last, 0)
    cut = last[0, 0, traces[0]]
    return traces, rank, row, cut


class TestTraceKernel:
    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("n", [63, 64, 65, 128, 200])
    def test_stack_matches_naive_count(self, n, d, tied, monkeypatch):
        rng = np.random.default_rng(100 * n + 10 * d + tied)
        T = 3
        x = rng.integers(1, 5, size=(T, n, d)) / 4 if tied else rng.random((T, n, d))
        x[:, :, 0] = x[0, :, 0]
        traces, rank, row, cut = _trace_kernel_inputs(x)
        want = [[naive_copula_count(sample.tolist(), sample[i].tolist()) for i in trace]
                for sample, trace in zip(x, traces)]
        for words in (1, 3, copula_core._TILE_WORDS):
            monkeypatch.setattr(copula_core, "_TILE_WORDS", words)
            counts = copula_core._dominance_counts(rank, row, cut)
            assert counts.dtype == np.int64
            assert counts.tolist() == want


def _counts_from_values(x, traces):
    """Points at or below each trace point of a (T, n, d) stack, ties
    included, counted by broadcasting over the raw values."""
    return np.stack([(sample[None] <= sample[trace][:, None]).all(axis=2).sum(axis=1)
                     for sample, trace in zip(x, traces)])


class TestTiles:
    """Tiles of _TILE_WORDS words, rows gathered _GATHER_WORDS words at a
    time: tile and chunk edges on and off the points' 64-bit words."""

    @pytest.mark.parametrize("T", [1, 3])
    @pytest.mark.parametrize("tile,ks", [(1, (2, 3)), (2, (1, 2, 3)), (8, (1, 2))])
    def test_counts_at_tile_edges(self, T, tile, ks, monkeypatch):
        monkeypatch.setattr(copula_core, "_TILE_WORDS", tile)
        for k in ks:
            for n in (64 * tile * k - 1, 64 * tile * k + 1):
                rng = np.random.default_rng(n + T)
                x = rng.random((T, n, 3))
                x[..., 2] = rng.integers(0, 9, size=(T, n))
                x[:, :, 0] = x[0, :, 0]
                traces, rank, row, cut = _trace_kernel_inputs(x)
                assert np.array_equal(copula_core._dominance_counts(rank, row, cut),
                                      _counts_from_values(x, traces)), (n, k)

    @pytest.mark.parametrize("T", [1, 3])
    @pytest.mark.parametrize("gather", [1, 50, copula_core._GATHER_WORDS])
    def test_sort_axis_tie_group_across_a_tile_edge(self, T, gather, monkeypatch):
        # trace points 100..140 share one sort-axis value: their cut lies in
        # the second 128-point tile, past the first tile's rows
        monkeypatch.setattr(copula_core, "_TILE_WORDS", 2)
        monkeypatch.setattr(copula_core, "_GATHER_WORDS", gather)
        rng = np.random.default_rng(24 + T)
        n = 300
        axis = np.sort(rng.random(n))
        axis[100:141] = axis[100]
        x = rng.random((T, n, 4))
        x[..., 3] = rng.integers(0, 5, size=(T, n))
        x[:, :, 0] = rng.permutation(axis)
        traces, rank, row, cut = _trace_kernel_inputs(x)
        assert cut[100] == 140 and cut[99] == 99
        assert np.array_equal(copula_core._dominance_counts(rank, row, cut),
                              _counts_from_values(x, traces))

    def test_traces_at_tile_edges_equal_cdf_many(self):
        tile = 64 * copula_core._TILE_WORDS
        rng = np.random.default_rng(25)
        for n in (tile - 1, tile + 1, 3 * tile + 1):
            for d in (3, 5):
                ps = pseudo_observations(Sample(rng.random((n, d))))
                trace = copula_trace(ps, 1)
                assert np.array_equal(trace.values, EmpiricalCopula(ps).cdf_many(trace.points))

    def test_kernel_keeps_a_small_peak(self):
        # n = 20000, d = 3: 3.39 MiB measured (numpy 2.4), against 2.95 MiB
        # for the 128 KiB full-column tables it replaced
        x = np.random.default_rng(26).random((1, 20_000, 3))
        order, pos, _ = copula_core._ranked(x)
        tracemalloc.start()
        try:
            _, counts = copula_core._trace_counts(order, pos, pos, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.shape == (1, 20_000)
        assert peak <= 3.5 * 2**20


def _bivariate(kind, T, n, rng):
    """A (T, n, 2) stack: independent, comonotone or countermonotone."""
    x = rng.random((T, n, 2))
    if kind == "comonotone":
        x[..., 1] = x[..., 0] ** 3
    elif kind == "countermonotone":
        x[..., 1] = -x[..., 0]
    return x


def _trace_counts(order, pos, sort_axis):
    return copula_core._trace_counts(order, pos, pos, sort_axis)[1]


def _kernel_trace_counts(order, pos, sort_axis):
    rank = copula_core._trace_ranks(order, pos, sort_axis)
    return copula_core._dominance_counts(rank, rank, np.arange(pos.shape[2]))


class TestTraceCounts:
    # the dispatch rule is under test, not the tuned crossover, so the test
    # sets its own; TestLargeBivariate runs the library's
    CROSSOVER = 1100

    @pytest.mark.parametrize("kind", ["independent", "comonotone", "countermonotone"])
    @pytest.mark.parametrize("T,n", [(1, CROSSOVER - 1), (1, CROSSOVER), (2, CROSSOVER + 37),
                                     (1, 5000)])
    def test_equal_the_kernel_across_the_crossover(self, T, n, kind, monkeypatch):
        monkeypatch.setattr(copula_core, "_MERGE_MIN_N", self.CROSSOVER)
        order, pos, _ = copula_core._ranked(_bivariate(kind, T, n, np.random.default_rng(n)))
        merges = []
        merge_counts = copula_core._merge_counts
        monkeypatch.setattr(copula_core, "_merge_counts",
                            lambda r: merges.append(r.shape) or merge_counts(r))
        for axis in (0, 1):
            counts = _trace_counts(order, pos, axis)
            assert counts.dtype == np.int64
            assert np.array_equal(counts, _kernel_trace_counts(order, pos, axis))
        assert merges == ([(T, n)] * 2 if n >= self.CROSSOVER else [])

    def test_kernel_serves_more_than_two_columns(self, monkeypatch):
        monkeypatch.setattr(copula_core, "_MERGE_MIN_N", 2)
        monkeypatch.setattr(copula_core, "_merge_counts", None)  # never called
        order, pos, _ = copula_core._ranked(np.random.default_rng(3).random((2, 50, 3)))
        for axis in range(3):
            got = _trace_counts(order, pos, axis)
            assert np.array_equal(got, _kernel_trace_counts(order, pos, axis))

    @given(st.integers(1, 3), st.integers(2, 70), st.integers(0, 1),
           st.sampled_from(["independent", "comonotone", "countermonotone"]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_merge_levels_match_naive_count(self, T, n, axis, kind, seed):
        x = _bivariate(kind, T, n, np.random.default_rng(seed))
        order, pos, _ = copula_core._ranked(x)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(copula_core, "_MERGE_MIN_N", 2)
            counts = _trace_counts(order, pos, axis)
        for t in range(T):
            rows = ((pos[t].T + 1) / n).tolist()
            want = [naive_copula_count(rows, rows[i]) for i in order[t, axis]]
            assert counts[t].tolist() == want


class TestTiedRanks:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("T", [1, 3])
    def test_untied_stacks_get_pos_itself_as_last(self, T, d):
        x = np.random.default_rng(10 * T + d).random((T, 40, d))
        _, pos, last = copula_core._tied_ranks(x)
        assert last is pos

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("T", [1, 3])
    def test_one_tie_anywhere_gives_the_tie_rule(self, T, d):
        x = np.random.default_rng(10 * T + d).random((T, 40, d))
        x[-1, 5, -1] = x[-1, 9, -1]
        _, pos, last = copula_core._tied_ranks(x)
        assert last is not pos
        assert last[-1, -1, 5] == last[-1, -1, 9] == max(pos[-1, -1, 5], pos[-1, -1, 9])
        assert np.array_equal(np.delete(last.ravel(), last.size - 40 + np.array([5, 9])),
                              np.delete(pos.ravel(), pos.size - 40 + np.array([5, 9])))


class TestTiedTraceCrossover:
    """Tied input never reaches merge levels, which assume permutations:
    copula_trace takes the bitset kernel on either side of the crossover.
    Untied pairs take merge levels from the crossover on, as
    copula_statistic does."""

    @pytest.mark.parametrize("offset", [-1, 0, 37])
    def test_tied_traces_equal_cdf_many_on_the_kernel(self, offset, monkeypatch):
        n = copula_core._MERGE_MIN_N + offset
        ps = PseudoSample(np.random.default_rng(n).integers(1, 5, size=(n, 2)) / 4)
        merges = []
        merge_counts = copula_core._merge_counts
        monkeypatch.setattr(copula_core, "_merge_counts",
                            lambda r: merges.append(r.shape) or merge_counts(r))
        for axis in (0, 1):
            trace = copula_trace(ps, axis)
            assert np.array_equal(trace.values, EmpiricalCopula(ps).cdf_many(trace.points))
        assert merges == []

    @pytest.mark.parametrize("offset", [-1, 0, 37])
    def test_untied_traces_take_merge_levels_from_the_crossover(self, offset, monkeypatch):
        n = copula_core._MERGE_MIN_N + offset
        ps = pseudo_observations(np.random.default_rng(n).random((n, 2)))
        merges = []
        merge_counts = copula_core._merge_counts
        monkeypatch.setattr(copula_core, "_merge_counts",
                            lambda r: merges.append(r.shape) or merge_counts(r))
        for axis in (0, 1):
            trace = copula_trace(ps, axis)
            # every 16th point keeps cdf_many's n^2 comparisons short
            assert np.array_equal(trace.values[::16],
                                  EmpiricalCopula(ps).cdf_many(trace.points[::16]))
        assert merges == ([(1, n)] * 2 if offset >= 0 else [])


class TestEnvelopes:
    def test_upper(self):
        assert frechet_upper([0.3, 0.7]) == pytest.approx(0.3)
        assert frechet_upper([1, 1, 1]) == 1.0
        assert frechet_upper([0.5, 0.2, 0.9]) == pytest.approx(0.2)

    def test_lower(self):
        assert frechet_lower([0.3, 0.5]) == 0.0
        assert frechet_lower([0.8, 0.7]) == pytest.approx(0.5)
        assert frechet_lower([0.9, 0.9, 0.9]) == pytest.approx(0.7)

    def test_product(self):
        assert product_copula([0.5, 0.5]) == pytest.approx(0.25)
        assert product_copula([1.0, 0.37]) == pytest.approx(0.37)
        assert product_copula([0.5, 0.5, 0.5]) == pytest.approx(0.125)

    def test_point_without_coordinates_is_named_as_such(self):
        for point in ([], np.empty((3, 0))):
            with pytest.raises(InvalidInput, match="no coordinates"):
                frechet_upper(point)
        assert copula_core.as_unit_point(np.empty((0, 2))).shape == (0, 2)

    def test_batched_points_match_a_loop_over_coordinates(self):
        rng = np.random.default_rng(18)
        for d in range(1, 11):
            # the second half lies near (1, ..., 1), where W(u) > 0
            pts = np.vstack([rng.random((50, d)), 1.0 - rng.random((50, d)) / d])
            rows = pts.tolist()
            assert frechet_upper(pts).tolist() == [min(r) for r in rows]
            assert frechet_lower(pts).tolist() == [max(sum(r) + 1.0 - d, 0.0) for r in rows]
            assert product_copula(pts).tolist() == [math.prod(r) for r in rows]

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=5)
    )
    def test_envelope_ordering(self, coords):
        assert (
            frechet_lower(coords) - 1e-12
            <= product_copula(coords)
            <= frechet_upper(coords) + 1e-12
        )


class TestRelativeDistance:
    def test_upper_bound_case(self):
        p = [0.4, 0.9]
        assert relative_distance(frechet_upper(p), p) == pytest.approx(1.0)

    def test_independence_case(self):
        p = [0.4, 0.9]
        assert relative_distance(product_copula(p), p) == pytest.approx(0.0)

    def test_lower_bound_case(self):
        p = [0.8, 0.7]
        assert relative_distance(frechet_lower(p), p) == pytest.approx(1.0)

    def test_gaussian_midpoint_value(self):
        c = gaussian_copula_at_half(0.5)
        assert c == pytest.approx(1 / 3, abs=1e-12)
        assert relative_distance(c, [0.5, 0.5]) == pytest.approx(1 / 3, abs=1e-9)

    def test_degenerate_gap_returns_one(self):
        # at v = 1 every envelope meets the product copula
        assert relative_distance(0.4, [0.4, 1.0]) == 1.0
        assert relative_distance(0.0, [0.0, 0.3]) == 1.0

    def test_out_of_bounds_raises(self):
        with pytest.raises(BoundsViolated):
            relative_distance(0.9, [0.4, 0.9])
        with pytest.raises(BoundsViolated):
            relative_distance(0.0, [0.9, 0.95])

    def test_rejects_bad_points_and_shapes(self):
        for point in ([0.4, np.nan], [0.4, 1.2], [-0.1, 0.5]):
            with pytest.raises(InvalidInput):
                relative_distance(0.2, point)
        with pytest.raises(DimensionMismatch):
            relative_distance([0.2, 0.3], [0.4, 0.9])
        with pytest.raises(BoundsViolated, match="exceeds upper bound 0.4"):
            relative_distance([0.1, 0.9], [[0.2, 0.5], [0.4, 0.9]])

    def test_batch_call_keeps_its_input_and_a_small_peak(self):
        # the 4,200-run block of a Monte Carlo batch: minima and maxima
        rng = np.random.default_rng(33)
        p = rng.random((2, 4200, 2))
        lower, upper = frechet_lower(p), frechet_upper(p)
        c = lower + (upper - lower) * rng.random((2, 4200))
        c0 = c.copy()
        want = relative_distance(c, p, 1 / 400)
        assert np.array_equal(c, c0)
        tracemalloc.start()
        try:
            got = relative_distance(c, p, 1 / 400)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        assert peak <= 244 * 1024

    def test_envelopes_an_ulp_apart(self):
        # at (1, 0.1) the float lower envelope exceeds the upper one by an ulp
        p = [1.0, 0.1]
        assert frechet_lower(p) > frechet_upper(p)
        assert relative_distance(0.1, p, 1e-3) == 1.0
        with pytest.raises(BoundsViolated, match="below lower bound 0.10000000000000009"):
            relative_distance(0.1, p)

    def test_tolerance_clamps(self):
        p = [0.4, 0.9]
        upper = frechet_upper(p)
        assert relative_distance(upper + 1e-4, p, tol=1e-3) == pytest.approx(1.0)

    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200)
    def test_always_in_unit_interval(self, u, v, t):
        lo = frechet_lower([u, v])
        hi = frechet_upper([u, v])
        c = lo + t * (hi - lo)
        lam = relative_distance(c, [u, v])
        assert -1e-12 <= lam <= 1.0 + 1e-12


#: Coordinates at 0, at 1, a few ulps below 1, or anywhere in [0, 1]
_COORDINATES = st.one_of(st.sampled_from([0.0, 1.0]),
                         st.integers(1, 4).map(lambda k: 1.0 - k * 2.0**-53),
                         st.floats(0.0, 1.0))

_HALFWAY_N = 2_000_000


class TestRelativeDistanceOracle:
    """relative_distance against the scalar formula of `naive_relative_distance`,
    bit for bit, refusals included."""

    @staticmethod
    def _value(p, kind, t, tol):
        upper, pi = min(p), math.prod(p)
        lower = max(sum(p) + 1.0 - len(p), 0.0)
        return {"upper": upper, "lower": lower, "pi": pi,
                "below_pi": math.nextafter(pi, 0.0),
                "inside": lower + t * (upper - lower),
                "pi_to_upper": pi + t * (upper - pi),
                "past_upper": upper + t * tol,
                "past_lower": lower - t * tol}[kind]

    @given(st.integers(2, 3).flatmap(lambda d: st.lists(_COORDINATES, min_size=d, max_size=d)),
           st.sampled_from(["upper", "lower", "pi", "below_pi", "inside", "pi_to_upper",
                            "past_upper", "past_lower"]),
           st.floats(0.0, 1.0), st.sampled_from([0.0, 1e-3, 1 / 400]))
    @example([1 / _HALFWAY_N, (_HALFWAY_N - 1) / _HALFWAY_N], "pi_to_upper", 0.5, 0.0)
    @example([0.4, 1.0], "below_pi", 0.0, 0.0)
    @example([0.001, 1.0], "below_pi", 0.0, 0.0)
    @settings(max_examples=400, deadline=None)
    def test_scalar_formula_bit_for_bit(self, p, kind, t, tol):
        c = self._value(p, kind, t, tol)
        try:
            want = naive_relative_distance(c, p, tol)
        except AssertionError:  # more than tol past an envelope
            with pytest.raises(BoundsViolated):
                relative_distance(c, p, tol)
            return
        assert float(relative_distance(c, p, tol)).hex() == want.hex()
        batch = relative_distance(np.array([c, c]), np.array([p, p]), tol)
        assert [v.hex() for v in batch.tolist()] == [want.hex()] * 2

    def test_a_gap_below_1e_12_is_not_collapsed(self):
        # at n = 2e6 the gap from pi to M at (1/n, (n - 1)/n) is 2.5e-13; the
        # value halfway across it scored 1.0 under an absolute 1e-12 bound
        n = _HALFWAY_N
        p = [1 / n, (n - 1) / n]
        pi, upper = product_copula(p), frechet_upper(p)
        assert 0.0 < upper - pi < 1e-12
        assert relative_distance(pi + (upper - pi) / 2, p) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("p", [[0.4, 1.0], [0.001, 1.0]])
    def test_rounding_alone_still_collapses_the_gap(self, p):
        # one ulp below pi, where W, pi and M meet but for float rounding
        assert relative_distance(math.nextafter(product_copula(p), 0.0), p) == 1.0
