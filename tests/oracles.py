"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's vectorized code paths: plain loops
and direct definitions only, so they stay independent of what they check.
The Monte Carlo oracles loop over trials and score each one with the
single-sample `copula_statistic`, one stream per trial, as the pipelines
did before they scored trials in blocks.  The network oracles at the end
score one gene pair per call and recount the predictions at every
threshold.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import sys

import numpy as np

from copstat import (
    DependencySpec,
    compute_metric,
    copula_statistic,
    derive_rng,
    gen_dependency,
    test_independence,
)
from copstat.synth import TEST_FUNCTIONS, sample_copula


#: Metrics whose sign carries the direction of dependence; power studies
#: and networks score their magnitude.
SIGNED_METRICS = {"pearson", "spearman", "kendall"}


def metric_magnitude(metric, sample):
    """compute_metric's value, by magnitude for a signed metric."""
    v = compute_metric(metric, sample)
    return abs(v) if metric in SIGNED_METRICS else v


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


#: A Frechet gap below d times this at a d-coordinate point scores 1, as
#: float rounding of a collapsed gap: 8 machine epsilons per coordinate
DEGENERATE_GAP = 8 * sys.float_info.epsilon


def naive_relative_distance(c, p, tol=0.0):
    """relative_distance of one copula value c at one point p, by the
    scalar formula in the library's order of float operations; a value
    more than tol past an envelope fails an assertion."""
    d = len(p)
    upper = min(p)
    lower = max(sum(p) + 1.0 - d, 0.0)
    pi = math.prod(p)
    assert lower - tol <= c <= upper + tol
    c = min(max(c, lower), upper)
    denom = upper - pi if c >= pi else lower - pi
    return 1.0 if abs(denom) < d * DEGENERATE_GAP else (c - pi) / denom


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
    domains = []
    total = 0.0
    for (a, b, direction), (opt_min, opt_max) in zip(runs, flags):
        i_min = i_max = a
        for i in range(a, b + 1):
            if s[i] < s[i_min]:
                i_min = i
            if s[i] > s[i_max]:
                i_max = i
        lam_min = naive_relative_distance(s[i_min], points[i_min], tol)
        lam_max = naive_relative_distance(s[i_max], points[i_max], tol)
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


def loop_cos_summary(report):
    """CosReport.summary() by a loop over report.domains: each run is
    added to its length group, and a boundary is flagged when the runs on
    both sides carry the flag of the way the first of them turns."""
    groups = ["2", "3", "4-5", ">5"]
    runs, points, credited, weight = [0] * 4, [0] * 4, [0] * 4, [0.0] * 4
    records = report.domains
    for rec in records:
        g = 0 if rec.n_points <= 2 else 1 if rec.n_points == 3 else 2 if rec.n_points <= 5 else 3
        runs[g] += 1
        points[g] += rec.n_points
        credited[g] += rec.local_opt_min or rec.local_opt_max
        weight[g] += rec.n_points * rec.gamma
    flagged = 0
    for left, right in zip(records, records[1:]):
        side = "local_opt_max" if left.direction == "non-decreasing" else "local_opt_min"
        flagged += getattr(left, side) and getattr(right, side)
    total = report.n + len(records) - 1
    return {
        "groups": groups,
        "runs": runs,
        "points": points,
        "credited": credited,
        "share": [w / total for w in weight],
        "flagged_boundaries": flagged,
    }


def permutation_ranks(T, n, d, rng):
    """(order, pos) of T samples of n points whose d columns are
    permutations, each (T, d, n) as `copula_core._ranked` gives them:
    `pos[t, k, j]` is point j's position in column k's sorted order and
    `order[t, k]` the points in that order.  Column 0 is the identity and
    the others are drawn from `rng`; `order` is filled by scatter, not by
    sorting."""
    pos = np.empty((T, d, n), dtype=np.intp)
    order = np.empty_like(pos)
    for t in range(T):
        for k in range(d):
            pos[t, k] = np.arange(n) if k == 0 else rng.permutation(n)
            order[t, k, pos[t, k]] = np.arange(n)
    return order, pos


def per_sample_pearson(x, y):
    """Pearson correlation of one pair of columns by the one-sample formula:
    numpy's own mean and std of each column."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return float(((x - x.mean()) * (y - y.mean())).mean() / (x.std() * y.std()))


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


def seed_sequence_rng(seed, *labels):
    """derive_rng's stream built as numpy reads a list of ints: SeedSequence
    of [seed, label ints], a string label hashed to its first 8 sha256
    bytes, little-endian."""
    ints = [label if isinstance(label, (int, np.integer)) else
            int.from_bytes(hashlib.sha256(str(label).encode("utf-8")).digest()[:8], "little")
            for label in labels]
    seq = np.random.SeedSequence([int(seed)] + [int(v) for v in ints])
    return np.random.Generator(np.random.Philox(seq))


def dependency_response(kind, x, lo, hi, freq, fn_id):
    """Noise-free response of each dependency kind at x drawn from [lo, hi],
    one formula per kind; t is x rescaled to [0, 1]."""
    t = (x - lo) / (hi - lo)
    if kind == "linear":
        return 2.0 * x + 1.0
    if kind == "quadratic":
        return (x - 0.5 * (lo + hi)) ** 2
    if kind == "cubic":
        s = t - 1.0 / 3.0
        return 128.0 * s**3 - 48.0 * s**2 - 12.0 * s
    if kind == "fourth_root":
        return t ** 0.25
    if kind == "sinusoidal":
        return np.sin(freq * x)
    if kind == "fourth_poly":
        return (x**2 - 0.25) * (x**2 - 1.0)
    if kind == "cosine":
        return np.cos(x)
    assert kind == "testfn"
    return TEST_FUNCTIONS[fn_id][1](t)


def naive_gen_dependency(spec, n, rng, independent=False):
    """gen_dependency's (n, 2) sample, drawn and shaped step by step."""
    if spec.kind == "circular":
        theta = rng.uniform(0.0, 2.0 * np.pi, n)
        x = np.cos(theta)
        y0 = np.sin(rng.uniform(0.0, 2.0 * np.pi, n) if independent else theta)
    else:
        default = {"sinusoidal": (-1.0, 1.0), "fourth_poly": (-5.0, 5.0), "cosine": (-5.0, 5.0)}
        lo, hi = spec.x_range or default.get(spec.kind, (0.0, 1.0))
        x = rng.uniform(lo, hi, n)
        x_src = rng.uniform(lo, hi, n) if independent else x
        y0 = dependency_response(spec.kind, x_src, lo, hi, spec.freq, spec.fn_id)
    eps = rng.standard_normal(n)
    if spec.noise_mode == "multiplicative":
        y = y0 * (1.0 + spec.p * eps)
    elif spec.noise_mode == "additive":
        y = y0 + spec.p * eps
    else:
        y = y0 + math.sqrt(float(np.var(y0)) * (1.0 / spec.r2 - 1.0)) * eps
    return np.column_stack([x, y])


def naive_sample_copula(family, param, n, rng):
    """sample_copula's (n, 2) sample, drawn and transformed step by step:
    Gaussian by two normal draws through the normal CDF, Gumbel by the
    Chambers-Mallows-Stuck stable frailty, Clayton by conditional
    inversion; Gumbel theta = 1 draws uniform pairs."""
    from scipy.special import ndtr

    if family == "gauss":
        z1 = rng.standard_normal(n)
        z2 = rng.standard_normal(n)
        return np.column_stack([ndtr(z1), ndtr(param * z1 + math.sqrt(1.0 - param**2) * z2)])
    if family == "gumbel":
        if param == 1.0:
            return rng.random((n, 2))
        alpha = 1.0 / param
        angle = rng.uniform(0.0, np.pi, n)
        w = rng.exponential(1.0, n)
        stable = (np.sin(alpha * angle) / np.sin(angle) ** (1.0 / alpha)
                  * (np.sin((1.0 - alpha) * angle) / w) ** ((1.0 - alpha) / alpha))
        e = rng.exponential(1.0, (n, 2))
        return np.exp(-((e / stable[:, None]) ** alpha))
    assert family == "clayton"
    u = rng.random(n)
    t = rng.random(n)
    if param == -1.0:
        return np.column_stack([u, 1.0 - u])
    v = ((t ** (-param / (1.0 + param)) - 1.0) * u ** (-param) + 1.0) ** (-1.0 / param)
    return np.column_stack([u, v])


def bias_source_sample(source, n, rng):
    """One (n, 2) sample of a bias-table source: uniform pairs for 'indep'
    and the independence members, else the copula or noise-free sinusoid."""
    name, _, arg = source.partition(":")
    param = float(arg) if arg else 0.0
    if name == "indep" or (name in ("gauss", "clayton") and param == 0.0) or (
            name == "gumbel" and param == 1.0):
        return rng.random((n, 2))
    if name == "sin":
        return gen_dependency(DependencySpec(kind="sinusoidal", freq=param), n, rng).data
    return sample_copula(name, param, n, rng).data


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
        for n in n_grid:
            vals = np.array([
                copula_statistic(bias_source_sample(source, n,
                                                    derive_rng(seed, "bias", source, n, t))).cos
                for t in range(trials)
            ])
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


def level_crossings(r2s, means, level):
    """R^2 positions where one piecewise-linear curve meets a horizontal
    level: each grid point equal to it, and each segment's interpolant
    where the segment crosses it strictly."""
    out = []
    for i in range(len(r2s) - 1):
        y0, y1 = means[i], means[i + 1]
        if y0 == level:
            out.append(float(r2s[i]))
        if (y0 - level) * (y1 - level) < 0:
            frac = (level - y0) / (y1 - y0)
            out.append(float(r2s[i] + frac * (r2s[i + 1] - r2s[i])))
    if means[-1] == level:
        out.append(float(r2s[-1]))
    return out


def loop_interval_widths(r2s, curves, levels):
    """max - min of every curve's crossings at each level that some curve
    meets, one level and one curve at a time."""
    r2s = np.asarray(r2s, dtype=float)
    widths = []
    for level in levels:
        xs = []
        for means in curves:
            xs.extend(level_crossings(r2s, np.asarray(means, dtype=float), float(level)))
        if xs:
            widths.append(max(xs) - min(xs))
    return widths


def loop_power(kind, metric, trials, n, alpha, p_grid, seed):
    """Power per noise level, as in run_power, for a dependency kind."""

    def value(sample):
        return metric_magnitude(metric, sample)

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


def loop_dependence_matrix(expr, metric):
    """Pairwise dependence matrix, one compute_metric call per gene pair."""
    x = np.asarray(expr, dtype=float)
    g = x.shape[1]
    m = np.zeros((g, g))
    for i, j in itertools.combinations(range(g), 2):
        m[i, j] = m[j, i] = metric_magnitude(metric, np.column_stack([x[:, i], x[:, j]]))
    return m


def naive_score_matrix(matrix, true_edges):
    """(roc_points, auc, f_max, threshold_at_fmax) of a dependence matrix
    against reference edges: every distinct score above the diagonal, plus
    an above-all sentinel, as a threshold in turn, with the predictions at
    each threshold counted from scratch."""
    m = np.asarray(matrix, dtype=float)
    g = m.shape[0]
    edges = {frozenset((int(a), int(b))) for a, b in true_edges}
    pairs = list(itertools.combinations(range(g), 2))
    scores = np.array([m[i, j] for i, j in pairs])
    truth = np.array([frozenset((i, j)) in edges for i, j in pairs])
    pos = int(truth.sum())
    neg = len(pairs) - pos

    thresholds = [math.inf, *sorted(set(scores.tolist()), reverse=True)]
    roc = []
    f_max = 0.0
    t_at_fmax = math.inf
    for t in thresholds:
        pred = scores >= t
        tp = int((pred & truth).sum())
        fp = int((pred & ~truth).sum())
        fn = pos - tp
        tpr = tp / pos
        fpr = fp / neg if neg else 0.0
        roc.append((fpr, tpr))
        precision = tp / (tp + fp) if (tp + fp) else 1.0
        recall = tp / (tp + fn) if (tp + fn) else 0.0
        f = 0.0 if recall == 0.0 else 2.0 * precision * recall / (precision + recall)
        if f > f_max:
            f_max, t_at_fmax = f, t
    roc.sort()
    if roc[-1] != (1.0, 1.0):
        roc.append((1.0, 1.0))

    xs = np.array([p[0] for p in roc])
    ys = np.array([p[1] for p in roc])
    auc = float(np.trapezoid(ys, xs)) if neg else 1.0
    return tuple(roc), auc, f_max, t_at_fmax


def loop_read_csv(path):
    """copstat.cli.read_csv one row at a time: each row is checked and
    converted with float() cell by cell, and an error names the row by the
    file line it ends on.  A leading byte-order mark is not part of the
    header."""
    import csv
    import sys

    from copstat import CopstatError

    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise CopstatError(f"{path}: empty file") from None
        rows = []
        dropped = 0
        for row in reader:
            if all(not c.strip() for c in row):
                continue
            lineno = reader.line_num
            if len(row) != len(header):
                raise CopstatError(
                    f"{path}: row {lineno} has {len(row)} cells, header has {len(header)}")
            if any(not c.strip() for c in row):
                dropped += 1
                continue
            values = []
            for col, cell in zip(header, row):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise CopstatError(
                        f"{path}: row {lineno}, column {col!r}: cannot parse {cell.strip()!r}"
                    ) from None
            rows.append(values)
    if dropped:
        print(f"warning: dropped {dropped} row(s) with missing values", file=sys.stderr)
    if not rows:
        raise CopstatError(f"{path}: no usable data rows")
    return header, np.array(rows, dtype=float)
