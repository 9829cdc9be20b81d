"""Reference metrics: pearson, spearman, multivariate kendall, dcor."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import copstat
from copstat import (
    DegenerateMarginal,
    DimensionMismatch,
    InvalidInput,
    Sample,
    compute_metric,
    copula_statistic,
    dcor,
    derive_rng,
    kendall_mv,
    pearson,
    sample_gaussian_copula,
    spearman,
)
from copstat import copula_core, metrics

from oracles import kendall_tau_pairs, naive_kendall_mv


def cols(x, y):
    return Sample.from_columns([x, y])


class TestPearson:
    def test_exact_linear(self):
        x = np.arange(10.0)
        assert pearson(cols(x, 2 * x + 1)) == pytest.approx(1.0)

    def test_exact_negative(self):
        x = np.arange(10.0)
        assert pearson(cols(x, -x)) == pytest.approx(-1.0)

    def test_constant_column(self):
        with pytest.raises(DegenerateMarginal):
            pearson(cols(np.ones(5), np.arange(5.0)))

    def test_gaussian_marginal_transform_target(self):
        from scipy.special import ndtri

        s = sample_gaussian_copula(0.5, 2000, derive_rng(0, "p"))
        z = np.column_stack([ndtri(s.column(0)), ndtri(s.column(1))])
        assert pearson(Sample(z)) == pytest.approx(0.5, abs=0.05)

    def test_two_columns_only(self):
        with pytest.raises(DimensionMismatch):
            pearson(Sample(np.random.default_rng(0).random((10, 3))))


class TestSpearman:
    def test_increasing_transform_gives_one(self):
        x = np.random.default_rng(1).normal(size=30)
        assert spearman(cols(x, np.exp(x))) == pytest.approx(1.0)

    def test_decreasing_transform_gives_minus_one(self):
        x = np.random.default_rng(2).normal(size=30)
        assert spearman(cols(x, -x**3)) == pytest.approx(-1.0)

    def test_invariance_under_monotone_transforms(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=50), rng.normal(size=50)
        base = spearman(cols(x, y))
        assert spearman(cols(np.exp(x), y**3)) == pytest.approx(base)

    def test_constant_column(self):
        with pytest.raises(DegenerateMarginal, match="constant"):
            spearman(cols(np.arange(5.0), np.full(5, 2.0)))

    @pytest.mark.parametrize("levels", [None, 2, 7, 40])
    @pytest.mark.parametrize("n", [2, 3, 50, 501])
    def test_average_ranks_are_scipys(self, n, levels):
        from scipy.stats import rankdata

        rng = np.random.default_rng(10 * n + (levels or 0))
        x = rng.standard_normal((n, 3))
        if levels is not None:
            x = rng.integers(0, levels, size=(n, 3)).astype(float)
        x[:2, :2] = ((0.0, 1.0), (1.0, 0.0))  # no constant column
        assert np.array_equal(metrics._average_ranks(x), rankdata(x, axis=0).T)
        want = np.corrcoef(rankdata(x[:, 0]), rankdata(x[:, 1]))[0, 1]
        assert spearman(x[:, :2]) == want


class TestKendallMv:
    def test_comonotonic_bivariate(self):
        x = np.arange(200.0)
        assert kendall_mv(cols(x, x)) == pytest.approx(1.0, abs=0.02)

    def test_independent_near_zero(self):
        rng = np.random.default_rng(4)
        assert kendall_mv(Sample(rng.random((2000, 2)))) == pytest.approx(0.0, abs=0.05)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_matches_pair_counting_oracle(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            plug_in = kendall_mv(cols(x, y))
            oracle = kendall_tau_pairs(x.tolist(), y.tolist())
            assert abs(plug_in - oracle) <= 2.0 / n + 1e-12

    def test_multivariate_range(self):
        rng = np.random.default_rng(9)
        d = 3
        tau = kendall_mv(Sample(rng.random((500, d))))
        assert -1.0 / (2 ** (d - 1) - 1) - 0.05 <= tau <= 1.0

    def test_comonotonic_trivariate(self):
        x = np.arange(300.0)
        tau = kendall_mv(Sample.from_columns([x, 2 * x, x**3]))
        assert tau == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("n,d", [(2, 2), (9, 2), (65, 3), (130, 5)])
    def test_dominance_total_matches_double_loop(self, n, d):
        rng = np.random.default_rng(n * d)
        tied = rng.integers(0, 4, size=(n, d)).astype(float)
        tied[0] = 9.0  # no constant column
        for data in (rng.random((n, d)), tied):
            assert kendall_mv(Sample(data)) == naive_kendall_mv(data.tolist())

    def test_invariance_under_monotone_transforms(self):
        rng = np.random.default_rng(10)
        x, y = rng.normal(size=60), rng.normal(size=60)
        assert kendall_mv(cols(x, y)) == kendall_mv(cols(np.exp(x), y**3))

    def test_merge_levels_give_the_kernels_value(self, monkeypatch):
        n = copula_core._MERGE_MIN_N + 100
        rng = np.random.default_rng(12)
        x = rng.normal(size=n)
        samples = [cols(x, rng.normal(size=n)), cols(x, x + rng.normal(size=n)), cols(x, -x)]
        merged = [kendall_mv(s) for s in samples]
        monkeypatch.setattr(copula_core, "_MERGE_MIN_N", n + 1)
        assert [v.hex() for v in merged] == [kendall_mv(s).hex() for s in samples]
        assert merged[2] == -1.0


class TestDcor:
    def test_identity_is_one(self):
        x = np.random.default_rng(5).normal(size=40)
        assert dcor(cols(x, x)) == pytest.approx(1.0)

    def test_constant_column_is_zero(self):
        x = np.arange(10.0)
        assert dcor(cols(x, np.full(10, 3.0))) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        x, y = rng.normal(size=50), rng.normal(size=50)
        assert dcor(cols(x, y)) == pytest.approx(dcor(cols(y, x)))

    def test_shift_scale_invariance(self):
        rng = np.random.default_rng(7)
        x, y = rng.normal(size=50), rng.normal(size=50)
        base = dcor(cols(x, y))
        assert dcor(cols(3.0 * x + 5.0, 0.5 * y - 2.0)) == pytest.approx(base)

    def test_gaussian_copula_target(self):
        s = sample_gaussian_copula(0.5, 2000, derive_rng(0, "dc"))
        assert dcor(s) == pytest.approx(0.5, abs=0.05)

    def test_range(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            v = dcor(Sample(rng.random((60, 2))))
            assert 0.0 <= v <= 1.0


def test_import_leaves_scipy_stats_unloaded(tmp_path):
    # scipy dominates import time, and only the Gaussian-copula sampler and
    # the z-test need it: importing copstat, running `copstat cos` and
    # calling spearman load no scipy module
    src = str(Path(copstat.__file__).resolve().parents[1])
    csv = tmp_path / "small.csv"
    csv.write_text("x,y\n" + "".join(f"{i},{(7 * i) % 11}\n" for i in range(11)))
    code = (
        "import sys, contextlib, io, copstat, copstat.cli\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = copstat.cli.main(['cos', sys.argv[1]])\n"
        "copstat.spearman([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])\n"
        "loaded += [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "print(code, loaded)\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code, str(csv)], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout.strip() == "0 []"


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        assert copstat.__version__ == tomllib.load(fh)["project"]["version"]


class TestComputeMetric:
    def test_matches_each_metric(self):
        x = derive_rng(21, "cm").random((60, 2))
        assert compute_metric("cos", x) == copula_statistic(x).cos
        for name, fn in [("dcor", dcor), ("kendall", kendall_mv), ("spearman", spearman),
                         ("pearson", pearson)]:
            assert compute_metric(name, x) == fn(x)

    def test_unknown_metric(self):
        with pytest.raises(InvalidInput, match="mic"):
            compute_metric("mic", np.eye(3) + 1.0)
