"""Command-line front end.

Subcommands: cos, itest, calibrate, bias, power, equitability, gen,
ripley, netscore, returns.  Exit codes: 0 ok, 2 invalid input, 3 runtime
failure.  All randomized subcommands are deterministic given --seed.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import re
import sys
from dataclasses import asdict, fields

import numpy as np

from .copula_core import Sample
from .errors import CopstatError
from .experiments import (
    run_bias_table,
    run_equitability,
    run_power,
    score_network,
)
from .independence import (
    DEFAULT_GRID,
    DEFAULT_NULL_CURVE,
    CalibrationCurve,
    calibrate_null,
    test_independence,
)
from .statistic import DomainRecord, copula_statistic
from .synth import NOISE_MODES, DependencySpec, derive_rng, gen_dependency, gen_ripley

FLOAT_FMT = "%.17g"


# ---------------------------------------------------------------- CSV I/O


#: any character that is not a line end
_LINE_CHAR = re.compile(r"[^\r\n]")


def read_csv(path):
    """Read a headered numeric CSV; fully blank rows are skipped, rows with
    empty cells are dropped with a warning, and non-numeric cells or rows
    of the wrong width abort with the offending row (and column)."""
    text = _read_text(path)
    lines, reader = _csv_rows(text)
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise CopstatError(f"{path}: empty file") from None
    start = lines.tell()
    # numpy's C reader converts a cell as float() does and rejects the cells
    # float() reads otherwise (quotes, underscores, non-ASCII digits), blank
    # cells and ragged rows, so a file it reads whole, at the header's
    # width, is what the row loop would read.  It warns on input with no
    # data line, which the loop rejects anyway.
    if _LINE_CHAR.search(text, start):
        try:
            data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if data.shape[1] == len(header):
                return header, data
        lines.seek(start)
    return header, _parse_rows(path, header, reader)


def _read_text(path) -> str:
    """The file at `path` decoded as UTF-8, newlines untranslated, less a
    leading byte-order mark; a file that is not UTF-8 raises CopstatError
    naming it and its first bad byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CopstatError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    # as the utf-8-sig codec does, but bad bytes stay counted from the file's start
    return text.removeprefix("\ufeff")


def _csv_rows(text: str):
    """`text` as a stream of lines, and a csv reader over them."""
    import csv  # on first use: importing copstat.cli leaves it unloaded

    lines = io.StringIO(text, newline="")
    return lines, csv.reader(lines)


def _parse_rows(path, header, rows) -> np.ndarray:
    """The data rows, checked one at a time: the warning for dropped rows
    and the error for the first bad row come from here."""
    width = len(header)
    kept = []
    dropped = 0
    for lineno, row in enumerate(rows, start=2):
        if not any(map(str.strip, row)):
            continue
        if len(row) != width:
            raise CopstatError(f"{path}: row {lineno} has {len(row)} cells, header has {width}")
        if not all(map(str.strip, row)):
            dropped += 1
            continue
        for col, cell in zip(header, row):
            try:
                float(cell)
            except ValueError:
                raise CopstatError(
                    f"{path}: row {lineno}, column {col!r}: cannot parse {cell.strip()!r}"
                ) from None
        kept.append(row)
    if dropped:
        print(f"warning: dropped {dropped} row(s) with missing values", file=sys.stderr)
    if not kept:
        raise CopstatError(f"{path}: no usable data rows")
    return np.array(kept, dtype=float)


def select_columns(header, data, spec: str | None):
    """Column selection by comma-separated names or zero-based indices."""
    if not spec:
        return header, data
    picked = []
    for token in spec.split(","):
        token = token.strip()
        if token in header:
            picked.append(header.index(token))
        else:
            try:
                idx = int(token)
            except ValueError:
                raise CopstatError(f"unknown column {token!r}") from None
            if not 0 <= idx < len(header):
                raise CopstatError(f"column index {idx} out of range")
            picked.append(idx)
    return [header[i] for i in picked], data[:, picked]


def _write(path, text: str) -> None:
    """Write `text` to the file at `path`, or to stdout when `path` is empty."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(FLOAT_FMT % v if isinstance(v, float) else str(v) for v in row))
    _write(path, "\n".join(lines) + "\n")


def emit_json(path, payload):
    """Write `payload` as one line of compact JSON."""
    # no indent: json only uses its C encoder when indent is None
    _write(path, json.dumps(payload, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------- commands


def cmd_cos(args) -> int:
    header, data = read_csv(args.input)
    header, data = select_columns(header, data, args.columns)
    if data.shape[1] < 2:
        raise CopstatError("need at least 2 selected columns")
    report = copula_statistic(Sample(data), sort_axis=args.sort_axis)
    names = [f.name for f in fields(DomainRecord)]
    # one list per DomainRecord field; runs are their rows
    payload = {
        "cos": report.cos,
        "n": report.n,
        "d": report.d,
        "m": report.m,
        "sort_axis": report.sort_axis,
        "columns": header,
        "domains": dict(zip(names, report.domain_columns())),
    }
    emit_json(args.out, payload)
    return 0


def _load_curve(path) -> CalibrationCurve:
    if not path:
        return DEFAULT_NULL_CURVE
    return CalibrationCurve.from_json(_read_text(path))


def cmd_itest(args) -> int:
    header, data = read_csv(args.input)
    header, data = select_columns(header, data, args.columns)
    result = test_independence(Sample(data), _load_curve(args.curve), args.alpha)
    emit_json(args.out, asdict(result))
    return 0


def cmd_calibrate(args) -> int:
    curve = calibrate_null(args.grid, args.trials, args.seed)
    _write(args.out, curve.to_json() + "\n")
    return 0


def cmd_bias(args) -> int:
    rows = run_bias_table(args.sources, args.grid, args.trials, args.seed)
    if args.format == "json":
        emit_json(args.out, [asdict(r) for r in rows])
    else:
        write_csv(args.out, ["source", "n", "mu", "sigma"],
                  [(r.source, r.n, r.mu, r.sigma) for r in rows])
    return 0


def cmd_power(args) -> int:
    spec = DependencySpec(kind=args.dep, freq=args.freq, noise_mode="additive")
    curve = run_power(spec, args.metric, args.trials, args.n, args.alpha, args.p_grid, args.seed)
    if args.format == "csv":
        write_csv(args.out, ["p", "power"], list(zip(curve.p_grid, curve.power)))
    else:
        emit_json(args.out, asdict(curve))
    return 0


def cmd_equitability(args) -> int:
    res = run_equitability(args.functions, args.r2_grid, args.n, args.reps, args.seed)
    if args.format == "csv":
        rows = []
        for fid in res.function_ids:
            for r2, mc in zip(res.r2_grid, res.mean_cos[fid]):
                rows.append((fid, r2, mc))
        write_csv(args.out, ["function", "r2", "mean_cos"], rows)
    else:
        payload = asdict(res)
        payload["mean_cos"] = {str(k): list(v) for k, v in res.mean_cos.items()}
        emit_json(args.out, payload)
    return 0


def _write_sample_csv(sample: Sample, out, sidecar: dict | None) -> None:
    header = [f"x{i}" for i in range(sample.d)]
    write_csv(out, header, [tuple(row) for row in sample.data])
    if out and sidecar is not None:
        _write(str(out) + ".json", json.dumps(sidecar, indent=2) + "\n")


def cmd_gen(args) -> int:
    spec = DependencySpec(
        kind=args.kind,
        p=args.p,
        noise_mode=args.mode,
        x_range=args.x_range,
        freq=args.freq,
        fn_id=args.fn_id,
        r2=args.r2,
    )
    sample = gen_dependency(spec, args.n, derive_rng(args.seed, "gen", args.kind))
    _write_sample_csv(sample, args.out, {
        "command": "gen", "kind": args.kind, "p": args.p, "mode": args.mode,
        "x_range": args.x_range, "freq": args.freq, "fn_id": args.fn_id,
        "r2": args.r2, "n": args.n, "seed": args.seed,
    })
    return 0


def cmd_ripley(args) -> int:
    sample = gen_ripley(args.form, args.n, args.seed)
    _write_sample_csv(sample, args.out, {
        "command": "ripley", "form": args.form, "n": args.n, "seed": args.seed,
    })
    return 0


def cmd_netscore(args) -> int:
    header, data = read_csv(args.input)
    name_to_idx = {name: i for i, name in enumerate(header)}
    edges = []
    for a, b in _read_edges(args.edges):
        if a not in name_to_idx or b not in name_to_idx:
            raise CopstatError(f"edge ({a}, {b}) references unknown gene names")
        edges.append((name_to_idx[a], name_to_idx[b]))
    score = score_network(Sample(data), edges, args.metric)
    if args.format == "csv":
        write_csv(args.out, ["fpr", "tpr"], [tuple(p) for p in score.roc_points])
    else:
        emit_json(args.out, {
            "metric": args.metric,
            "genes": header,
            "auc": score.auc,
            "f_max": score.f_max,
            "threshold_at_fmax": score.threshold_at_fmax,
            "roc_points": [list(p) for p in score.roc_points],
        })
    return 0


def _read_edges(path):
    _, reader = _csv_rows(_read_text(path))
    header = next(reader, None)
    if header is None or len(header) < 2:
        raise CopstatError(f"{path}: edge list needs two name columns")
    rows = []
    for row in reader:
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) < 2:
            raise CopstatError(f"{path}: malformed edge row {row!r}")
        rows.append((row[0].strip(), row[1].strip()))
    if not rows:
        raise CopstatError(f"{path}: no edges")
    return rows


def cmd_returns(args) -> int:
    header, data = read_csv(args.input)
    if data.shape[0] < 2:
        raise CopstatError("need at least 2 rows to difference")
    diffs = np.diff(data, axis=0)
    write_csv(args.out, header, [tuple(row) for row in diffs])
    return 0


# ---------------------------------------------------------------- parser


def _comma_list(convert, length: int | None = None):
    """An argparse type: comma-separated values, each read by `convert`,
    as a list, or as a tuple when exactly `length` are required.  argparse
    turns a bad value's ValueError into an error naming the flag, exit 2."""
    def parse(text: str):
        values = [convert(v) for v in text.split(",")]
        if length is not None and len(values) != length:
            raise ValueError(text)
        return values if length is None else tuple(values)
    count = f"{length}-" if length else ""
    parse.__name__ = f"comma-separated {count}{convert.__name__}"  # argparse's name for it
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copstat",
        description="Copula statistic for nonlinear multivariate dependence",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False, fmt=False):
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="root seed")
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("cos", help="copula statistic of a CSV dataset")
    p.add_argument("input")
    p.add_argument("--columns", default=None, help="comma-separated names or indices")
    p.add_argument("--sort-axis", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_cos)

    p = sub.add_parser("itest", help="independence test on a CSV dataset")
    p.add_argument("input")
    p.add_argument("--columns", default=None)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--curve", default=None, help="calibration curve JSON file")
    common(p)
    p.set_defaults(func=cmd_itest)

    p = sub.add_parser("calibrate", help="fit null calibration curves")
    p.add_argument("--grid", type=_comma_list(int), default=DEFAULT_GRID,
                   help="comma-separated sample sizes")
    p.add_argument("--trials", type=int, default=500)
    common(p, seed=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("bias", help="null/functional bias table")
    p.add_argument("--sources", type=_comma_list(str.strip), default="indep",
                   help="e.g. 'gauss:0,gumbel:1,sin:5'")
    p.add_argument("--grid", type=_comma_list(int), default="100,500,1000")
    p.add_argument("--trials", type=int, default=500)
    common(p, seed=True, fmt=True)
    p.set_defaults(func=cmd_bias)

    p = sub.add_parser("power", help="statistical power against a noisy dependency")
    p.add_argument("--dep", default="linear")
    p.add_argument("--metric", default="cos")
    p.add_argument("--trials", "--N", dest="trials", type=int, default=500)
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--p-grid", type=_comma_list(float), default="0.1,0.5,1,2,3")
    p.add_argument("--freq", type=float, default=1.0)
    common(p, seed=True, fmt=True)
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("equitability", help="R^2 equitability scan")
    p.add_argument("--functions", type=_comma_list(int), default="1,2,3,4,5,6,7,8,9,10")
    p.add_argument("--r2-grid", type=_comma_list(float),
                   default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0")
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--reps", type=int, default=30)
    common(p, seed=True, fmt=True)
    p.set_defaults(func=cmd_equitability)

    p = sub.add_parser("gen", help="generate a noisy functional dependency")
    p.add_argument("--kind", default="linear")
    p.add_argument("--p", type=float, default=0.0)
    p.add_argument("--mode", default="additive", choices=NOISE_MODES)
    p.add_argument("--x-range", type=_comma_list(float, 2), default=None, help="e.g. '-5,5'")
    p.add_argument("--freq", type=float, default=1.0)
    p.add_argument("--fn-id", type=int, default=1)
    p.add_argument("--r2", type=float, default=None)
    p.add_argument("--n", type=int, default=1000)
    common(p, seed=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("ripley", help="structured LCG/Box-Muller point pattern")
    p.add_argument("--form", type=int, default=1, choices=(1, 2, 3, 4))
    p.add_argument("--n", type=int, default=1000)
    common(p, seed=True)
    p.set_defaults(func=cmd_ripley)
    # ripley's LCG is seeded directly; 0 would be a degenerate start state
    p.set_defaults(seed=1)

    p = sub.add_parser("netscore", help="score a dependence network against edges")
    p.add_argument("input", help="expression CSV, one column per gene")
    p.add_argument("--edges", required=True, help="CSV with two gene-name columns")
    p.add_argument("--metric", default="cos")
    common(p, fmt=True)
    p.set_defaults(func=cmd_netscore)

    p = sub.add_parser("returns", help="one-lag differences of a price CSV")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_returns)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser()'s parser, built once per process: parse_args reads a
    parser without changing it and gives each call a new namespace."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CopstatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
