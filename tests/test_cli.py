"""Command-line interface: parsing, dispatch, file round-trips, exit codes."""

import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copstat import (
    DEFAULT_NULL_CURVE,
    CalibrationCurve,
    CopstatError,
    copula_statistic,
    run_bias_table,
    run_equitability,
    run_power,
)
from copstat import cli
from copstat.cli import FLOAT_FMT, main, read_csv
from copstat.statistic import DomainRecord

from oracles import loop_dependence_matrix, loop_read_csv, naive_score_matrix


DOMAIN_FIELDS = [f.name for f in fields(DomainRecord)]


def write(path, text):
    path.write_text(text, encoding="utf-8", newline="")
    return str(path)


BOM = "\ufeff"


def _same_output_with_a_bom(argv, paths, capsys):
    """main(argv)'s exit code and output are the same after each file in
    `paths` gains a UTF-8 byte-order mark."""
    assert main(argv) == 0
    plain = capsys.readouterr()
    for path in paths:
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(BOM + text)
    assert main(argv) == 0
    assert capsys.readouterr() == plain
    return plain.out


@pytest.fixture
def comono_csv(tmp_path):
    lines = ["x,y"] + [f"{i},{2 * i + 1}" for i in range(1, 41)]
    return write(tmp_path / "mono.csv", "\n".join(lines) + "\n")


class TestCos:
    def test_comonotonic_json(self, comono_csv, capsys):
        assert main(["cos", comono_csv, "--domains"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cos"] == 1.0
        assert doc["n"] == 40 and doc["d"] == 2 and doc["m"] == 1
        assert doc["domains"]["gamma"] == [1.0]

    def test_byte_order_mark_is_not_part_of_the_first_name(self, comono_csv, capsys):
        out = _same_output_with_a_bom(["cos", comono_csv, "--columns", "x,y"], [comono_csv],
                                      capsys)
        assert json.loads(out)["columns"] == ["x", "y"]

    def test_column_selection_by_name_and_index(self, tmp_path, capsys):
        path = write(tmp_path / "t.csv", "a,b,c\n1,9,1\n2,8,4\n3,7,9\n4,6,16\n")
        assert main(["cos", path, "--columns", "a,c"]) == 0
        assert json.loads(capsys.readouterr().out)["cos"] == 1.0
        assert main(["cos", path, "--columns", "0,1"]) == 0
        assert json.loads(capsys.readouterr().out)["cos"] == 1.0  # countermonotone

    def test_unknown_column_exits_2(self, comono_csv, capsys):
        assert main(["cos", comono_csv, "--columns", "nope"]) == 2
        assert "nope" in capsys.readouterr().err

    def test_column_index_out_of_range_exits_2(self, comono_csv, capsys):
        assert main(["cos", comono_csv, "--columns", "0,2"]) == 2
        assert "column index 2 out of range" in capsys.readouterr().err

    def test_one_selected_column_exits_2(self, comono_csv, capsys):
        assert main(["cos", comono_csv, "--columns", "y"]) == 2
        assert "need at least 2 selected columns" in capsys.readouterr().err

    def test_bad_cell_exits_2_with_location(self, tmp_path, capsys):
        path = write(tmp_path / "bad.csv", "x,y\n1,2\n3,zap\n")
        assert main(["cos", path]) == 2
        err = capsys.readouterr().err
        assert "row 3" in err and "'y'" in err and "zap" in err

    def test_python_dash_m_runs_the_command_line(self, comono_csv, capsys):
        assert main(["cos", comono_csv]) == 0
        want = capsys.readouterr().out
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "copstat", "cos", comono_csv],
                              env=env, capture_output=True, check=False)
        assert done.returncode == 0, done.stderr
        assert done.stdout == want.encode()

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["cos", str(tmp_path / "absent.csv")]) == 2

    def test_missing_values_dropped_with_warning(self, tmp_path, capsys):
        path = write(tmp_path / "m.csv", "x,y\n1,1\n2,\n3,3\n4,4\n")
        assert main(["cos", path]) == 0
        captured = capsys.readouterr()
        assert "dropped 1 row" in captured.err
        assert json.loads(captured.out)["n"] == 3

    def test_domains_equal_report_records(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        x = rng.random(300)
        data = np.column_stack([x, np.sin(9 * x) + 0.3 * rng.normal(size=300)])
        path = tmp_path / "noisy.csv"
        np.savetxt(path, data, fmt="%.17g", delimiter=",", header="x,y", comments="")
        assert main(["cos", str(path), "--domains"]) == 0
        doc = json.loads(capsys.readouterr().out)
        report = copula_statistic(data)
        assert report.m > 10
        domains = doc["domains"]
        assert list(domains) == DOMAIN_FIELDS
        assert domains == dict(zip(DOMAIN_FIELDS, report.domain_columns()))
        # the README's one line that turns the columns back into records
        assert [dict(zip(domains, r)) for r in zip(*domains.values())] == [
            asdict(r) for r in report.domains]

    def test_writes_one_line_of_json(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        data = rng.random((200, 2))
        path = tmp_path / "u.csv"
        np.savetxt(path, data, fmt="%.17g", delimiter=",", header="a,b", comments="")
        assert main(["cos", str(path), "--domains"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("\n") and out.count("\n") == 1
        report = copula_statistic(data)
        assert json.loads(out) == {
            "cos": report.cos, "n": 200, "d": 2, "m": report.m, "sort_axis": 0,
            "sort_column": "a", "columns": ["a", "b"], "summary": report.summary(),
            "domains": dict(zip(DOMAIN_FIELDS, report.domain_columns())),
        }

    def test_writes_one_line_of_json_without_domains_by_default(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        data = rng.random((200, 2))
        path = tmp_path / "u.csv"
        np.savetxt(path, data, fmt="%.17g", delimiter=",", header="a,b", comments="")
        assert main(["cos", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.endswith("\n") and out.count("\n") == 1
        report = copula_statistic(data)
        assert json.loads(out) == {
            "cos": report.cos, "n": 200, "d": 2, "m": report.m, "sort_axis": 0,
            "sort_column": "a", "columns": ["a", "b"], "summary": report.summary(),
        }

    def test_default_keys_and_sort_column(self, tmp_path, capsys):
        rng = np.random.default_rng(13)
        path = tmp_path / "abc.csv"
        np.savetxt(path, rng.random((40, 3)), fmt="%.17g", delimiter=",", header="a,b,c",
                   comments="")
        for argv, column in [([], "a"), (["--sort-axis", "2"], "c"),
                             (["--columns", "c,a", "--sort-axis", "1"], "a")]:
            assert main(["cos", str(path), *argv]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert list(doc) == ["cos", "n", "d", "m", "sort_axis", "sort_column", "columns",
                                 "summary"]
            assert doc["sort_column"] == column == doc["columns"][doc["sort_axis"]]
            assert list(doc["summary"]) == ["groups", "runs", "points", "credited", "share",
                                            "flagged_boundaries"]
        assert main(["cos", str(path), "--domains"]) == 0
        assert list(json.loads(capsys.readouterr().out))[-2:] == ["summary", "domains"]

    def test_default_document_size_does_not_grow_with_the_runs(self, tmp_path, capsys):
        data = np.random.default_rng(14).random((5000, 2))
        path = tmp_path / "big.csv"
        np.savetxt(path, data, fmt="%.17g", delimiter=",", header="x,y", comments="")
        assert main(["cos", str(path)]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["m"] >= 3000 and sum(doc["summary"]["runs"]) == doc["m"]
        assert len(out.encode()) < 1024

    def test_format_option_rejected(self, comono_csv, capsys):
        # cos writes JSON only, so asking for CSV is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["cos", comono_csv, "--format", "csv"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err

    def test_sort_axis_flag(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        rows = ["a,b,c"] + [",".join(f"{v:.6f}" for v in r) for r in rng.random((30, 3))]
        path = write(tmp_path / "3c.csv", "\n".join(rows) + "\n")
        assert main(["cos", path, "--sort-axis", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["sort_axis"] == 2

    def test_sort_axis_out_of_range_exits_2(self, comono_csv, capsys):
        assert main(["cos", comono_csv, "--sort-axis", "2"]) == 2
        assert "sort_axis 2 out of range for d=2" in capsys.readouterr().err


class TestReadCsv:
    def test_blank_and_whitespace_lines_skipped_silently(self, tmp_path, capsys):
        path = write(tmp_path / "b.csv", "x,y\n1,2\n\n   \n , \n3,4\n")
        header, data = read_csv(path)
        assert header == ["x", "y"]
        assert data.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert capsys.readouterr().err == ""

    def test_wrong_width_row_raises_unless_blank(self, tmp_path):
        path = write(tmp_path / "w.csv", "x,y\n1,2\n , , \n3,4\n")
        assert read_csv(path)[1].tolist() == [[1.0, 2.0], [3.0, 4.0]]
        path = write(tmp_path / "w.csv", "x,y\n1,2\n3\n")
        with pytest.raises(CopstatError, match="row 3 has 1 cells, header has 2"):
            read_csv(path)
        path = write(tmp_path / "w.csv", "x,y\n1,2\n3,4,\n")
        with pytest.raises(CopstatError, match="row 3 has 3 cells, header has 2"):
            read_csv(path)

    def test_rows_with_blank_cells_dropped_and_counted(self, tmp_path, capsys):
        # a blank cell drops its row even when another cell is not a number
        path = write(tmp_path / "d.csv", "x,y,z\n1,,3\n2, \t,3\n,zap,3\n4,5,6\n")
        assert read_csv(path)[1].tolist() == [[4.0, 5.0, 6.0]]
        assert "dropped 3 row(s) with missing values" in capsys.readouterr().err

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = write(tmp_path / "n.csv", "x,y\n1,2\n3, zap \n")
        with pytest.raises(CopstatError, match=r"row 3, column 'y': cannot parse 'zap'"):
            read_csv(path)

    @pytest.mark.parametrize("case, message", [
        ("two_line_quoted_header_bad_cell", "row 4, column 'z': cannot parse 'zap'"),
        ("two_line_quoted_cell_bad_cell", "row 4, column 'y': cannot parse 'zap'"),
        ("two_line_quoted_cell_ragged", "row 4 has 1 cells, header has 2"),
        ("blank_lines_bad_cell", "row 5, column 'y': cannot parse 'zap'"),
        ("cr_only_bad_cell", "row 3, column 'y': cannot parse 'zap'"),
    ])
    def test_errors_name_the_line_the_row_ends_on(self, case, message, tmp_path):
        path = write(tmp_path / f"{case}.csv", CSV_CASES[case])
        with pytest.raises(CopstatError, match=re.escape(f"{path}: {message}")):
            read_csv(path)

    def test_cells_parse_as_float_does(self, tmp_path):
        cells = [["nan", "inf"], ["-Infinity", "1_000"], [" 2.5 ", "1e-3"], ["+7", "0x1p3"]]
        text = "x,y\n" + "".join(",".join(row) + "\n" for row in cells[:3])
        _, data = read_csv(write(tmp_path / "f.csv", text))
        want = np.array([[float(c) for c in row] for row in cells[:3]])
        assert np.array_equal(data, want, equal_nan=True)
        with pytest.raises(CopstatError, match="cannot parse '0x1p3'"):
            read_csv(write(tmp_path / "g.csv", "x,y\n" + ",".join(cells[3]) + "\n"))


#: name -> file text: inputs on which read_csv must behave as the loop does
CSV_CASES = {
    "plain": "x,y\n1,2\n3.5,-4e-3\n",
    "whitespace": "x , y\n 1 , 2\t\n\t3,4 \n",
    "underscores": "x,y\n1_000,2\n3,4_5.0_1\n",
    "unicode_digits": "x,y\n\u0661\u0662,\u0663\n\uff14,5\n",
    "quoted": 'x,y\n"1","2"\n" 3.5 ",4\n',
    "quoted_comma": 'x,y\n"1,5",2\n3,4\n',
    "nan_inf": "x,y\nnan,inf\n-Infinity,NaN\n1,-0.0\n",
    "float_repr": "x,y\n0.1000000000000000055511151231257827,1e-400\n4.9e-324,1e308\n",
    "blank_lines": "x,y\n\n1,2\n\n3,4\n\n\n",
    "blank_cells_rows": "x,y\n1,2\n , \n,\n3,4\n",
    "missing_cell": "x,y\n1,\n3,4\n5,6\n",
    "missing_and_bad": "x,y,z\n1,,3\n,zap,3\n4,5,6\n",
    "ragged_short": "x,y\n1,2\n3\n",
    "ragged_long": "x,y\n1,2\n3,4,\n",
    "all_rows_wide": "x,y\n1,2,3\n4,5,6\n",
    "bad_cell": "x,y\n1,2\n3,zap\n",
    "hex_cell": "x,y\n1,2\n0x1p3,4\n",
    "header_only": "x,y\n",
    "only_blank_rows": "x,y\n\n , \n",
    "all_rows_missing": "x,y\n1,\n,2\n",
    "single_column": "x\n1\n2\n3\n",
    "empty_header": "\n1,2\n",
    "empty_file": "",
    "crlf": "x,y\r\n1,2\r\n\r\n3.5,-4e-3\r\n",
    "cr_only": "x,y\r1,2\r\r3.5,-4e-3\r",
    "mixed_line_ends": "x,y\n1,2\r\n3,4\r5,6\n",
    "crlf_missing_cell": "x,y\r\n1,\r\n3,4\r\n",
    "quoted_header": '"x","y"\n1,2\n3,4\n',
    "two_line_quoted_header": '"x\ny",z\n1,2\n3,4\n',
    "two_line_quoted_header_bad_cell": '"x\ny",z\n1,2\n3,zap\n',
    "two_line_quoted_cell": 'x,y\n"1\n",2\n3,4\n',
    "two_line_quoted_cell_bad_cell": 'x,y\n"1\n",2\n3,zap\n',
    "two_line_quoted_cell_ragged": 'x,y\n"1\n",2\n3\n',
    "blank_lines_bad_cell": "x,y\n\n1,2\n\n3,zap\n",
    "cr_only_bad_cell": "x,y\r1,2\r3,zap\r",
    "bom_header": "\ufeffx,y\n1,2\n3,4\n",
    "bom_only": "\ufeff",
    "hash_cell": "x,y\n1,2\n#3,4\n",
    "hash_after_value": "x,y\n1,2 # note\n3,4\n",
    "single_row": "x,y\n1,2\n",
    "single_row_single_column": "x\n1.5\n",
    "no_final_newline": "x,y\n1,2\n3,4",
    "header_only_no_newline": "x,y",
    "header_then_blank_lines": "x,y\n\n\r\n\r",
    "whitespace_line": "x,y\n1,2\n  \t\n3,4\n",
    "narrow_rows": "x,y,z\n1,2\n3,4\n",
    "nul_in_cell": "x,y\n1,2\x00\n3,4\n",
    "unicode_space": "x,y\n1\u00a0,2\n3,\u20034\n",
    "signed_nan": "x,y\n-nan,+nan\n-inf,+inf\n",
}


def _outcome(read, path, capsys):
    """(header, array bytes and shape, or the error), and stderr."""
    try:
        header, data = read(path)
        result = (header, data.shape, data.dtype, data.tobytes())
    except CopstatError as exc:
        result = str(exc)
    return result, capsys.readouterr().err


class TestReadCsvMatchesRowLoop:
    @pytest.mark.parametrize("case", sorted(CSV_CASES))
    def test_same_array_warning_and_error(self, case, tmp_path, capsys):
        path = write(tmp_path / f"{case}.csv", CSV_CASES[case])
        assert _outcome(read_csv, path, capsys) == _outcome(loop_read_csv, path, capsys)

    def test_large_file(self, tmp_path, capsys):
        data = np.random.default_rng(5).normal(size=(3000, 3)) * 1e3
        path = tmp_path / "big.csv"
        np.savetxt(path, data, fmt="%.17g", delimiter=",", header="a,b,c", comments="")
        got = _outcome(read_csv, str(path), capsys)
        assert got == _outcome(loop_read_csv, str(path), capsys)
        assert got[0][3] == data.tobytes()

    @given(rows=st.integers(1, 6).flatmap(lambda d: st.lists(
               st.lists(st.floats(width=64), min_size=d, max_size=d), min_size=1, max_size=12)),
           fmt=st.sampled_from([repr, FLOAT_FMT.__mod__]))
    @settings(max_examples=200, deadline=None)
    def test_written_floats_read_back_as_the_loop_reads_them(self, rows, fmt, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "floats.csv"
        header = [f"c{i}" for i in range(len(rows[0]))]
        write(path, "\n".join([",".join(header)] + [",".join(map(fmt, r)) for r in rows]) + "\n")
        got, want = read_csv(str(path)), loop_read_csv(str(path))
        assert got[0] == want[0] == header
        assert got[1].shape == want[1].shape and got[1].tobytes() == want[1].tobytes()
        # both formats round-trip every double; a NaN reads back as the positive one
        assert np.array_equal(got[1], np.array(rows), equal_nan=True)

    def test_clean_file_takes_numpys_reader(self, tmp_path, monkeypatch):
        data = np.random.default_rng(8).normal(size=(5000, 2))
        path = tmp_path / "clean.csv"
        np.savetxt(path, data, fmt="%.17g", delimiter=",", header="x,y", comments="")

        def row_loop(*args):
            raise AssertionError("a clean file reached the row loop")

        monkeypatch.setattr(cli, "_parse_rows", row_loop)
        header, got = read_csv(str(path))
        assert header == ["x", "y"] and got.tobytes() == data.tobytes()


class TestReturns:
    def test_differencing(self, tmp_path, capsys):
        path = write(tmp_path / "p.csv", "p\n100\n110\n105\n")
        assert main(["returns", path]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "p"
        assert [float(v) for v in out[1:]] == [10.0, -5.0]

    def test_single_row_exits_2(self, tmp_path):
        path = write(tmp_path / "p1.csv", "p\n100\n")
        assert main(["returns", path]) == 2

    def test_constant_series_all_zero(self, tmp_path, capsys):
        path = write(tmp_path / "pc.csv", "p\n5\n5\n5\n")
        assert main(["returns", path]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert [float(v) for v in out[1:]] == [0.0, 0.0]


class TestInvalidInput:
    def test_non_utf8_files_exit_2_naming_the_file(self, tmp_path, capsys, comono_csv):
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_bytes(b"x,y\n1,2\n\xff,3\n2,1\n")
        bad_curve = tmp_path / "bad.json"
        bad_curve.write_bytes(b"\xff{}")
        bad_edges = tmp_path / "bad_edges.csv"
        bad_edges.write_bytes(b"a,b\n\xffx,y\n")
        for argv, path in [(["cos", str(bad_csv)], bad_csv),
                           (["itest", comono_csv, "--curve", str(bad_curve)], bad_curve),
                           (["netscore", comono_csv, "--edges", str(bad_edges)], bad_edges)]:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and f"{path}: not UTF-8" in err, err

    def test_bad_byte_after_a_byte_order_mark_counts_from_the_file_start(self, tmp_path, capsys):
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_bytes(b"\xef\xbb\xbfx,y\n\xff,3\n")
        assert main(["cos", str(bad_csv)]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad_csv}: not UTF-8 text: invalid start byte at byte 7\n")

    @pytest.mark.parametrize("argv, flag", [
        (["calibrate", "--grid", "100,abc"], "--grid"),
        (["bias", "--grid", "1e2"], "--grid"),
        (["power", "--p-grid", "0.1,x"], "--p-grid"),
        (["equitability", "--functions", "1,z"], "--functions"),
        (["equitability", "--r2-grid", "0.5,"], "--r2-grid"),
        (["gen", "--x-range", "5"], "--x-range"),
        (["gen", "--x-range", "a,b"], "--x-range"),
        (["gen", "--x-range=1,2,3"], "--x-range"),
    ])
    def test_malformed_lists_exit_2_naming_the_flag(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: invalid comma-separated" in capsys.readouterr().err

    def test_other_failures_exit_3(self, comono_csv, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "copula_statistic", boom)
        assert main(["cos", comono_csv]) == 3
        assert capsys.readouterr().err == "failure: boom\n"


class TestSharedParser:
    def test_is_built_once(self):
        assert cli._parser() is cli._parser()

    def test_argparse_error_then_a_good_call(self, comono_csv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cos", comono_csv, "--sort-axis", "one"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["cos", comono_csv]) == 0
        assert json.loads(capsys.readouterr().out)["sort_axis"] == 0

    def test_calls_do_not_share_options(self, tmp_path, comono_csv, capsys):
        assert main(["cos", comono_csv, "--sort-axis", "1"]) == 0
        assert main(["cos", comono_csv]) == 0
        first, second = capsys.readouterr().out.splitlines()
        assert json.loads(first)["sort_axis"] == 1 and json.loads(second)["sort_axis"] == 0
        assert main(["ripley", "--n", "5", "--out", str(tmp_path / "r.csv")]) == 0
        assert main(["gen", "--n", "5", "--out", str(tmp_path / "g.csv")]) == 0
        assert json.loads((tmp_path / "r.csv.json").read_text())["seed"] == 1
        assert json.loads((tmp_path / "g.csv.json").read_text())["seed"] == 0


class TestGen:
    def test_gen_then_cos_round_trip(self, tmp_path, capsys):
        data = str(tmp_path / "lin.csv")
        assert main(["gen", "--kind", "linear", "--p", "0", "--n", "200",
                     "--seed", "5", "--out", data]) == 0
        sidecar = json.loads((tmp_path / "lin.csv.json").read_text())
        assert sidecar["kind"] == "linear" and sidecar["seed"] == 5
        assert main(["cos", data]) == 0
        assert json.loads(capsys.readouterr().out)["cos"] == 1.0

    def test_deterministic_given_seed(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        for path in (a, b):
            assert main(["gen", "--kind", "cosine", "--p", "0.5",
                         "--mode", "multiplicative", "--n", "50",
                         "--seed", "7", "--out", path]) == 0
        assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()

    def test_bad_kind_exits_2(self, capsys):
        assert main(["gen", "--kind", "helix"]) == 2

    def test_non_finite_noise_level_exits_2_before_drawing(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["gen", "--kind", "linear", "--p", "nan", "--n", "10"]) == 2
        assert capsys.readouterr() == ("", "error: p must be finite, got nan\n")

    def test_x_range(self, tmp_path):
        path = str(tmp_path / "x.csv")
        assert main(["gen", "--kind", "cosine", "--x-range=-1,2.5", "--n", "200",
                     "--out", path]) == 0
        assert json.loads((tmp_path / "x.csv.json").read_text())["x_range"] == [-1.0, 2.5]
        _, data = read_csv(path)
        assert -1.0 <= data[:, 0].min() and data[:, 0].max() <= 2.5
        assert np.array_equal(data[:, 1], np.cos(data[:, 0]))

    @pytest.mark.parametrize("bounds", ["0,inf", "nan,1", "2,1"])
    def test_bad_x_range_exits_2(self, bounds, capsys):
        assert main(["gen", f"--x-range={bounds}", "--n", "10"]) == 2
        assert "x_range must be two finite, increasing bounds" in capsys.readouterr().err

    def test_header_format(self, tmp_path):
        path = str(tmp_path / "g.csv")
        assert main(["gen", "--kind", "circular", "--n", "10", "--out", path]) == 0
        assert (tmp_path / "g.csv").read_text().splitlines()[0] == "x0,x1"

    def test_round_trip_preserves_values_bitwise(self, tmp_path):
        # 17 significant digits round-trip doubles exactly, so ranks survive
        from copstat import DependencySpec, derive_rng, gen_dependency

        path = str(tmp_path / "rt.csv")
        assert main(["gen", "--kind", "cosine", "--p", "0.7",
                     "--mode", "multiplicative", "--n", "300",
                     "--seed", "13", "--out", path]) == 0
        spec = DependencySpec(kind="cosine", p=0.7, noise_mode="multiplicative")
        expected = gen_dependency(spec, 300, derive_rng(13, "gen", "cosine"))
        _, parsed = read_csv(path)
        assert np.array_equal(parsed, expected.data)


class TestRipley:
    def test_deterministic_default_seed(self, capsys):
        assert main(["ripley", "--form", "1", "--n", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["ripley", "--form", "1", "--n", "5"]) == 0
        assert capsys.readouterr().out == first

    def test_sidecar(self, tmp_path):
        path = str(tmp_path / "r.csv")
        assert main(["ripley", "--form", "2", "--n", "20", "--out", path]) == 0
        sidecar = json.loads((tmp_path / "r.csv.json").read_text())
        assert sidecar["form"] == 2 and sidecar["seed"] == 1


class TestItestAndCalibrate:
    def test_itest_detects_dependence(self, comono_csv, capsys):
        assert main(["itest", comono_csv, "--alpha", "0.01"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["decision"] == "dependent"
        assert doc["cos"] == 1.0

    def test_calibrate_and_use_curve(self, tmp_path, capsys, comono_csv):
        curve_path = str(tmp_path / "curve.json")
        assert main(["calibrate", "--grid", "50,100", "--trials", "200",
                     "--seed", "3", "--out", curve_path]) == 0
        curve = CalibrationCurve.from_json((tmp_path / "curve.json").read_text())
        assert curve.mu_model[1] < 0
        assert main(["itest", comono_csv, "--curve", curve_path]) == 0
        assert json.loads(capsys.readouterr().out)["decision"] == "dependent"

    @pytest.mark.parametrize("text,message", [
        ('{"sigma": {"a": 0.5, "b": -0.5}}', "no field 'mu'"),
        ('{"mu": {"a": 3}, "sigma": {"a": 0.5, "b": -0.5}}', "no field 'mu.b'"),
        ("not json", "not JSON"),
        ('{"mu": {"a": "x", "b": -0.5}, "sigma": {"a": 0.5, "b": -0.5}}',
         "'mu.a' must be a finite number"),
        ('{"mu": [3, -0.5], "sigma": {"a": 0.5, "b": -0.5}}', "'mu' must be an object"),
        ('{"mu": {"a": 3, "b": -0.5}, "sigma": {"a": 0.5, "b": NaN}}',
         "'sigma.b' must be a finite number"),
        ('{"mu": {"a": 3, "b": -0.5}, "sigma": {"a": 0.5, "b": -0.5}, "grid": "50"}',
         "'grid' must be a list of integers"),
        ('{"mu": {"a": 3, "b": -0.5}, "sigma": {"a": 0.5, "b": -0.5}, "trials": true}',
         "'trials' must be an integer"),
        ('{"mu": {"a": 3, "b": -0.5}, "sigma": {"a": 0.5, "b": -0.5}, "seed": "0"}',
         "'seed' must be an integer or null"),
        ("[1, 2]", "must be a JSON object"),
    ])
    def test_malformed_curve_exits_2_naming_the_field(self, text, message, tmp_path, capsys,
                                                     comono_csv):
        curve = write(tmp_path / "curve.json", text)
        assert main(["itest", comono_csv, "--curve", curve]) == 2
        assert message in capsys.readouterr().err

    def test_byte_order_marks_on_data_and_curve(self, tmp_path, capsys, comono_csv):
        curve = write(tmp_path / "curve.json", DEFAULT_NULL_CURVE.to_json())
        out = _same_output_with_a_bom(["itest", comono_csv, "--columns", "x,y", "--curve", curve],
                                      [comono_csv, curve], capsys)
        assert json.loads(out)["decision"] == "dependent"

    def test_calibrate_invalid_grid_exits_2(self, capsys):
        assert main(["calibrate", "--grid", "10,20", "--trials", "200"]) == 2


class TestPower:
    def test_driver_matches_library(self, capsys):
        assert main(["power", "--dep", "linear", "--metric", "cos",
                     "--trials", "100", "--n", "100", "--alpha", "0.05",
                     "--p-grid", "0.0,0.3", "--seed", "11"]) == 0
        doc = json.loads(capsys.readouterr().out)
        lib = run_power("linear", "cos", 100, 100, 0.05, [0.0, 0.3], seed=11)
        assert tuple(doc["power"]) == lib.power
        assert doc["power"][0] == 1.0

    def test_csv_format(self, capsys):
        assert main(["power", "--dep", "linear", "--metric", "spearman",
                     "--trials", "100", "--n", "100", "--p-grid", "0.1",
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "p,power"
        assert len(lines) == 2


class TestEquitability:
    def test_small_run(self, capsys):
        assert main(["equitability", "--functions", "1", "--r2-grid", "0.5,1.0",
                     "--n", "200", "--reps", "4", "--seed", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "worst_interval" in doc
        assert len(doc["mean_cos"]["1"]) == 2

    def test_csv_layout(self, capsys):
        assert main(["equitability", "--functions", "1,4", "--r2-grid", "0.5,1.0",
                     "--n", "100", "--reps", "3", "--seed", "2", "--format", "csv"]) == 0
        res = run_equitability([1, 4], [0.5, 1.0], 100, 3, 2)
        assert capsys.readouterr().out == "".join(
            ["function,r2,mean_cos\n"] + [f"{f},{r2:.17g},{mc:.17g}\n" for f in (1, 4)
                                          for r2, mc in zip(res.r2_grid, res.mean_cos[f])])


class TestBias:
    def test_json_is_the_library_table(self, capsys):
        assert main(["bias", "--sources", "indep, sin:2", "--grid", "60,80",
                     "--trials", "500", "--seed", "4", "--format", "json"]) == 0
        rows = run_bias_table(["indep", "sin:2"], [60, 80], 500, 4)
        assert json.loads(capsys.readouterr().out) == [asdict(r) for r in rows]

    @pytest.mark.parametrize("source, message", [
        ("gumbel:inf", "gumbel theta must be in [1, inf), got inf"),
        ("gauss:abc", "bias source 'gauss:abc' needs a number after ':'"),
    ])
    def test_bad_source_parameters_exit_2(self, source, message, capsys):
        assert main(["bias", "--sources", source, "--grid", "60"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_non_finite_frequency_exits_2_before_drawing(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["bias", "--sources", "sin:inf", "--grid", "60"]) == 2
        assert capsys.readouterr() == ("", "error: freq must be finite, got inf\n")

    def test_csv_layout(self, capsys):
        assert main(["bias", "--sources", "sin:1", "--grid", "60",
                     "--trials", "500", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "source,n,mu,sigma"
        source, n, mu, sigma = lines[1].split(",")
        assert source == "sin:1" and float(mu) == 1.0


def _separator_expr(tmp_path):
    rng = np.random.default_rng(1)
    n = 200
    z = rng.standard_normal(n)
    cols = np.column_stack([
        z, z + 0.01 * rng.standard_normal(n),
        rng.standard_normal(n), rng.standard_normal(n),
    ])
    rows = ["g1,g2,g3,g4"] + [",".join(f"{v:.8f}" for v in r) for r in cols]
    return write(tmp_path / "expr.csv", "\n".join(rows) + "\n")


class TestNetscore:
    def test_perfect_separator(self, tmp_path, capsys):
        expr = _separator_expr(tmp_path)
        edges = write(tmp_path / "edges.csv", "from,to\ng1,g2\n")
        assert main(["netscore", expr, "--edges", edges, "--metric", "pearson"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["auc"] == 1.0 and doc["f_max"] == 1.0

    def test_byte_order_marks_on_expression_and_edges(self, tmp_path, capsys):
        # g1, the first gene, is in the only true edge
        expr = _separator_expr(tmp_path)
        edges = write(tmp_path / "edges.csv", "g1,g2\ng1,g2\n")
        out = _same_output_with_a_bom(["netscore", expr, "--edges", edges, "--metric", "pearson"],
                                      [expr, edges], capsys)
        doc = json.loads(out)
        assert doc["genes"][0] == "g1" and doc["auc"] == 1.0

    @pytest.mark.parametrize("metric", ["cos", "pearson", "dcor"])
    def test_output_bytes_match_the_loop_oracles(self, tmp_path, capsys, metric):
        expr = _separator_expr(tmp_path)
        edges = write(tmp_path / "edges.csv", "from,to\ng1,g2\ng3,g1\n")
        genes, data = read_csv(expr)
        roc, auc, f_max, t = naive_score_matrix(loop_dependence_matrix(data, metric),
                                                [(0, 1), (2, 0)])
        assert main(["netscore", expr, "--edges", edges, "--metric", metric]) == 0
        assert capsys.readouterr().out == json.dumps({
            "metric": metric, "genes": genes, "auc": auc, "f_max": f_max,
            "threshold_at_fmax": t, "roc_points": [list(p) for p in roc],
        }, separators=(",", ":")) + "\n"
        assert main(["netscore", expr, "--edges", edges, "--metric", metric,
                     "--format", "csv"]) == 0
        assert capsys.readouterr().out == "".join(
            ["fpr,tpr\n"] + ["%.17g,%.17g\n" % p for p in roc])

    @pytest.mark.parametrize("text, message", [
        ("from\ng1\n", "edge list needs two name columns"),
        ("", "edge list needs two name columns"),
        ("from,to\ng1\n", "malformed edge row ['g1']"),
        ("from,to\n\n ,\n", "no edges"),
    ])
    def test_bad_edge_list_exits_2(self, text, message, tmp_path, capsys):
        expr = _separator_expr(tmp_path)
        edges = write(tmp_path / "edges.csv", text)
        assert main(["netscore", expr, "--edges", edges]) == 2
        assert capsys.readouterr().err == f"error: {edges}: {message}\n"

    def test_unknown_gene_exits_2(self, tmp_path, capsys):
        expr = write(tmp_path / "e.csv", "a,b\n1,2\n2,1\n3,4\n")
        edges = write(tmp_path / "ed.csv", "from,to\na,zz\n")
        assert main(["netscore", expr, "--edges", edges]) == 2
