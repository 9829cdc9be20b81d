"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's vectorized code paths: plain loops
and direct definitions only, so they stay independent of what they check.
The Monte Carlo oracles at the end loop over trials and score each one
with the single-sample `copula_statistic`, one stream per trial, as the
pipelines did before they scored trials in blocks.
"""

from __future__ import annotations

import math

import numpy as np

from copstat import (
    DependencySpec,
    compute_metric,
    copula_statistic,
    derive_rng,
    gen_dependency,
    test_independence,
)
from copstat.experiments import SIGNED_METRICS, _source_sampler
from copstat.independence import sample_copula


def naive_ranks(column):
    """Ordinal ranks with first-occurrence tie breaking, by scanning."""
    n = len(column)
    order = sorted(range(n), key=lambda i: (column[i], i))
    ranks = [0] * n
    for pos, idx in enumerate(order, start=1):
        ranks[idx] = pos
    return ranks


def naive_copula_count(pseudo_rows, point):
    """#{rows dominated by point} by double loop."""
    count = 0
    for row in pseudo_rows:
        if all(row[k] <= point[k] for k in range(len(point))):
            count += 1
    return count


def naive_cos_report(rows, sort_axis):
    """Copula statistic of a list of d-tuples by the per-run rule, in loops.

    Returns (cos, m, domains), each domain a dict with the fields of
    copstat's DomainRecord.
    """
    n, d = len(rows), len(rows[0])
    columns = [naive_ranks([row[k] for row in rows]) for k in range(d)]
    pseudo = [[columns[k][i] / n for k in range(d)] for i in range(n)]
    order = sorted(range(n), key=lambda i: (pseudo[i][sort_axis], i))
    points = [pseudo[i] for i in order]
    s = [naive_copula_count(pseudo, p) / n for p in points]

    # maximal monotone runs; a plateau joins the run it sits in and a run
    # ends where the next strict step goes the other way
    runs = []
    start, direction = 0, 0
    for j in range(n - 1):
        step = (s[j + 1] > s[j]) - (s[j + 1] < s[j])
        if step == 0:
            continue
        if direction == 0:
            direction = step
        elif step != direction:
            runs.append([start, j, direction])
            start, direction = j, step
    runs.append([start, n - 1, direction or 1])

    flags = [[False, False] for _ in runs]  # [local_opt_min, local_opt_max]
    thr = (1.0 / n) * (1.0 + 1e-9)
    for i in range(len(runs) - 1):
        j = runs[i][1]
        left = runs[i][1] - runs[i][0] + 1
        right = runs[i + 1][1] - runs[i + 1][0] + 1
        small_steps = abs(s[j] - s[j - 1]) <= thr and abs(s[j + 1] - s[j]) <= thr
        if (left > 4 and right > 4) or (small_steps and left + right > 4):
            side = 1 if runs[i][2] > 0 else 0
            flags[i][side] = flags[i + 1][side] = True

    tol = 1.0 / (2 * n)

    def relative_distance(c, p):
        upper = min(p)
        lower = max(sum(p) + 1.0 - d, 0.0)
        pi = math.prod(p)
        if c > upper:
            assert c <= upper + tol
            c = upper
        elif c < lower:
            assert c >= lower - tol
            c = lower
        denom = upper - pi if c >= pi else lower - pi
        return 1.0 if abs(denom) < 1e-12 else (c - pi) / denom

    domains = []
    total = 0.0
    for (a, b, direction), (opt_min, opt_max) in zip(runs, flags):
        i_min = i_max = a
        for i in range(a, b + 1):
            if s[i] < s[i_min]:
                i_min = i
            if s[i] > s[i_max]:
                i_max = i
        lam_min = relative_distance(s[i_min], points[i_min])
        lam_max = relative_distance(s[i_max], points[i_max])
        gamma = 1.0 if opt_min or opt_max else 0.5 * (lam_min + lam_max)
        total += (b - a + 1) * gamma
        domains.append(
            {
                "start": a,
                "end": b,
                "direction": "non-decreasing" if direction > 0 else "non-increasing",
                "n_points": b - a + 1,
                "lambda_min": lam_min,
                "lambda_max": lam_max,
                "gamma": gamma,
                "local_opt_min": opt_min,
                "local_opt_max": opt_max,
            }
        )
    m = len(runs)
    return total / (n + m - 1), m, domains


def naive_kendall_mv(rows):
    """Multivariate Kendall tau of a list of d-tuples: the copula plug-in
    over ordered pairs of distinct points, with the dominance total counted
    by double loop."""
    n, d = len(rows), len(rows[0])
    columns = [naive_ranks([row[k] for row in rows]) for k in range(d)]
    ranks = [[columns[k][i] for k in range(d)] for i in range(n)]
    total = 0
    for point in ranks:
        total += naive_copula_count(ranks, point)
    mean_c = (total - n) / (n * (n - 1))
    return (2.0**d * mean_c - 1.0) / (2.0 ** (d - 1) - 1.0)


def kendall_tau_pairs(xs, ys):
    """Classical concordant/discordant pair-counting Kendall tau."""
    n = len(xs)
    concordant = discordant = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            prod = (xs[i] - xs[j]) * (ys[i] - ys[j])
            if prod > 0:
                concordant += 1
            elif prod < 0:
                discordant += 1
    return (concordant - discordant) / (n * (n - 1) / 2)


def gaussian_copula_at_half(rho):
    """Closed form C(1/2, 1/2) = 1/4 + arcsin(rho) / (2 pi)."""
    return 0.25 + math.asin(rho) / (2.0 * math.pi)


def loop_null_moments(n, trials, seed):
    vals = np.array([copula_statistic(derive_rng(seed, "null", n, t).random((n, 2))).cos
                     for t in range(trials)])
    return float(vals.mean()), float(vals.std(ddof=1))


def loop_type2_error(family, param, n, trials, seed, alpha=0.01):
    accepted = 0
    for t in range(trials):
        sample = sample_copula(family, param, n, derive_rng(seed, "type2", family, n, t))
        if not test_independence(sample, alpha=alpha).dependent:
            accepted += 1
    return accepted / trials


def loop_bias_table(sources, n_grid, trials, seed):
    """(source, n, mu, sigma) per generator and sample size."""
    rows = []
    for source in sources:
        sampler = _source_sampler(source)
        for n in n_grid:
            vals = np.array([copula_statistic(sampler(n, derive_rng(seed, "bias", source, n, t))).cos
                             for t in range(trials)])
            rows.append((source, n, float(vals.mean()), float(vals.std(ddof=1))))
    return rows


def loop_equitability_means(fn_ids, r2_grid, n, reps, seed):
    """Mean statistic per test function at each R^2 of the sorted grid."""
    curves = {}
    for fid in fn_ids:
        means = []
        for ri, r2 in enumerate(sorted(r2_grid)):
            spec = DependencySpec(kind="testfn", fn_id=fid, noise_mode="r2_additive", r2=r2)
            vals = np.array([
                copula_statistic(gen_dependency(spec, n, derive_rng(seed, "equit", fid, ri, t))).cos
                for t in range(reps)
            ])
            means.append(float(vals.mean()))
        curves[fid] = tuple(means)
    return curves


def loop_power(kind, metric, trials, n, alpha, p_grid, seed):
    """Power per noise level, as in run_power, for a dependency kind."""

    def value(sample):
        v = compute_metric(metric, sample)
        return abs(v) if metric in SIGNED_METRICS else v

    powers = []
    for p in p_grid:
        spec = DependencySpec(kind=kind, p=p, noise_mode="additive")
        null = np.array([
            value(gen_dependency(spec, n, derive_rng(seed, "power", kind, "h0", t), independent=True))
            for t in range(trials)
        ])
        cutoff = float(np.quantile(null, 1.0 - alpha))
        hits = 0
        for t in range(trials):
            if value(gen_dependency(spec, n, derive_rng(seed, "power", kind, "h1", t))) > cutoff:
                hits += 1
        powers.append(hits / trials)
    return tuple(powers)
