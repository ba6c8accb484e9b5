"""Command-line behavior: report formats, determinism, and exit codes."""

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from circledyn import defaults, endpoint_table, level_endpoints
from circledyn.circle_maps import chain_error_bound, map_spec_from_json
from circledyn.cli import _write_report, build_parser, main
from circledyn.conjugacy import conjugacy_enclosures
from circledyn.symbolic_partition import CylinderInterval, level_words

F06_JSON = '{"kind": "piecewise_linear_full_branch", "cuts": [0.6]}'
LIN2_JSON = '{"kind": "linear", "degree": 2}'
CONJ_JSON = (
    '{"kind": "conjugated", "base": {"kind": "linear", "degree": 2},'
    ' "homeo": {"kind": "sine_homeo", "c": 0.5}}'
)
LIN11_JSON = '{"kind": "linear", "degree": 11}'
SMOOTH12_JSON = '{"kind": "smooth_sine", "degree": 12, "epsilon": 3.0}'
SMOOTH2_JSON = '{"kind": "smooth_sine", "degree": 2, "epsilon": 0.5}'


@pytest.fixture
def specs(tmp_path):
    paths = {}
    for name, text in (
        ("f06", F06_JSON), ("lin2", LIN2_JSON), ("conj", CONJ_JSON),
        ("lin11", LIN11_JSON), ("smooth12", SMOOTH12_JSON), ("smooth2", SMOOTH2_JSON),
    ):
        p = tmp_path / f"{name}.json"
        p.write_text(text)
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def _data_rows(csv_text):
    lines = [ln for ln in csv_text.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


class TestPartitionCommand:
    def test_level2_endpoints(self, specs, capsys):
        code = main(["partition", "--map", specs["f06"], "--level", "2"])
        assert code == 0
        header, rows = _data_rows(capsys.readouterr().out)
        assert header == ["word", "left", "right", "length"]
        assert [r[0] for r in rows] == ["00", "01", "10", "11"]
        ends = [float(rows[0][1])] + [float(r[2]) for r in rows]
        assert np.allclose(ends, [0.0, 0.36, 0.6, 0.84, 1.0], atol=1e-15)

    def test_byte_identical_reruns(self, specs):
        out1 = specs["dir"] / "a.csv"
        out2 = specs["dir"] / "b.csv"
        for out in (out1, out2):
            assert main(["partition", "--map", specs["f06"], "--level", "5", "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert b"\r" not in out1.read_bytes()  # LF endings only

    def test_header_echoes_config(self, specs, capsys):
        main(["partition", "--map", specs["f06"], "--level", "1"])
        out = capsys.readouterr().out
        assert "# command=partition" in out
        assert "# level=1" in out

    def test_cell_cap_env_override(self, specs, capsys, monkeypatch):
        monkeypatch.setenv("CIRCLEDYN_CELL_CAP", "4")
        code = main(["partition", "--map", specs["f06"], "--level", "3"])
        assert code == 2

    def test_json_mode(self, specs, capsys):
        code = main(["partition", "--map", specs["f06"], "--level", "1", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"config", "columns", "rows"}
        assert doc["columns"] == ["word", "left", "right", "length"]
        assert doc["rows"][0][0] == "0"


class TestValidateCommand:
    def test_good_map(self, specs, capsys):
        assert main(["validate", "--map", specs["f06"]]) == 0

    def test_invalid_map_exits_1(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"kind": "smooth_sine", "degree": 2, "epsilon": 2.5}')
        assert main(["validate", "--map", str(p)]) == 1
        out = capsys.readouterr().out
        assert "non_monotone" in out

    def test_non_finite_cut_exits_1(self, tmp_path, capsys):
        p = tmp_path / "nan.json"
        p.write_text('{"kind": "piecewise_linear_full_branch", "cuts": [NaN]}')
        assert main(["validate", "--map", str(p)]) == 1
        assert main(["partition", "--map", str(p), "--level", "2"]) == 1
        captured = capsys.readouterr()
        assert "nan" not in captured.out
        assert "$.cuts[0]: not a finite number" in captured.err

    def test_degree_above_cap_exits_1(self, tmp_path, capsys):
        p = tmp_path / "huge.json"
        p.write_text('{"kind": "linear", "degree": 1000000000000}')
        assert main(["validate", "--map", str(p)]) == 1
        assert "bad_degree" in capsys.readouterr().out
        assert main(["partition", "--map", str(p), "--level", "1"]) == 1

    def test_schema_error_exits_1(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"kind": "nope"}')
        assert main(["validate", "--map", str(p)]) == 1

    def test_missing_file_exits_3(self, tmp_path):
        assert main(["validate", "--map", str(tmp_path / "nope.json")]) == 3


class TestConjugacyCommand:
    def test_identity_grid(self, specs, capsys):
        code = main(
            ["conjugacy", "--from", specs["f06"], "--to", specs["f06"], "--grid", "16", "--tol", "1e-8"]
        )
        assert code == 0
        header, rows = _data_rows(capsys.readouterr().out)
        assert header == ["x", "h_lo", "h_hi", "depth"]
        for row in rows:
            x, lo, hi = float(row[0]), float(row[1]), float(row[2])
            assert abs(0.5 * (lo + hi) - x) <= 1e-8

    def test_endpoint_table_mode(self, specs, capsys):
        code = main(
            ["conjugacy", "--from", specs["f06"], "--to", specs["lin2"], "--level", "2"]
        )
        assert code == 0
        header, rows = _data_rows(capsys.readouterr().out)
        assert header == ["word", "f_endpoint", "g_endpoint"]
        assert [r[0] for r in rows] == ["00", "01", "10", "11", ""]
        assert [float(r[2]) for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]

    @pytest.mark.parametrize("name, degree", [("lin11", 11), ("smooth12", 12)])
    @pytest.mark.parametrize(
        "argv, rows",
        [(["conjugacy", "--grid", "4"], lambda d: 4),
         (["conjugacy", "--level", "2"], lambda d: d**2 + 1),
         (["analyze", "qs", "--x", "0.3", "--t", "0.1"], lambda d: 1)],
        ids=["grid", "level", "qs"],
    )
    def test_high_degree_pair_exits_0(self, specs, capsys, argv, rows, name, degree):
        # validation admits every degree up to 1024; no command may refuse
        # one for the size of a level it does not ask for
        code = main([*argv, "--from", specs[name], "--to", specs[name]])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert len(_data_rows(captured.out)[1]) == rows(degree)

    def test_unreachable_tolerance_flagged_exit2(self, specs, capsys, monkeypatch):
        monkeypatch.setenv("CIRCLEDYN_DEPTH_CAP", "4")
        code = main(
            ["conjugacy", "--from", specs["f06"], "--to", specs["lin2"], "--grid", "8", "--tol", "1e-9"]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "tolerance_unreachable_rows" in out
        # the partial report is still written, with sound enclosures
        header, rows = _data_rows(out)
        assert len(rows) == 8


    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_empty_grid_exits_1(self, specs, capsys, grid):
        code = main(["conjugacy", "--from", specs["f06"], "--to", specs["lin2"], "--grid", grid])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--grid must be >= 1" in captured.err

    def test_grid_over_cell_cap_exits_2_before_any_work(self, specs, capsys, monkeypatch):
        import circledyn.cli as cli

        monkeypatch.setenv("CIRCLEDYN_CELL_CAP", "64")
        argv = ["conjugacy", "--from", specs["f06"], "--to", specs["lin2"], "--grid"]
        assert main(argv + ["64"]) == 0
        capsys.readouterr()

        def no_work(*args, **kwargs):
            raise AssertionError("enclosures computed past the cell cap")

        monkeypatch.setattr(cli, "conjugacy_enclosures", no_work)
        assert main(argv + ["65"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 65 grid points exceed cell cap 64\n"

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_invalid_tol_exits_1(self, specs, capsys, tol):
        code = main(["conjugacy", "--from", specs["f06"], "--to", specs["lin2"], "--grid", "4", "--tol", tol])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tol must be a finite number >= 0" in captured.err


class TestAnalyzeCommands:
    def test_uqs_zero_n_exits_1(self, specs, capsys):
        code = main(["analyze", "uqs", "--map", specs["f06"], "--x", "0", "--t", "0.2", "--n", "0"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--n must be >= 1" in captured.err

    def test_symmetry_zero_grid_exits_1(self, specs, capsys):
        code = main(["analyze", "symmetry", "--from", specs["f06"], "--to", specs["lin2"], "--grid", "0"])
        assert code == 1
        captured = capsys.readouterr()
        assert "grid must be >= 1" in captured.err
        assert "zero-size array" not in captured.err


    @pytest.mark.parametrize("subject", ["conjugacy", "homeo"])
    def test_symmetry_points_over_cell_cap_exit_2_before_any_work(self, specs, capsys, monkeypatch, subject):
        import circledyn.cli as cli

        homeo = specs["dir"] / "h.json"
        homeo.write_text('{"kind": "sine_homeo", "c": 0.3}')
        source = (
            ["--from", specs["f06"], "--to", specs["lin2"]] if subject == "conjugacy" else ["--homeo", str(homeo)]
        )
        monkeypatch.setenv("CIRCLEDYN_CELL_CAP", "64")
        # the point count is (2 * distinct scales + 1) * grid
        argv = ["analyze", "symmetry", *source, "--scales", "0.5,0.25,0.25", "--grid"]
        assert main(argv + ["12"]) == 0
        capsys.readouterr()

        def no_work(*args, **kwargs):
            raise AssertionError("modulus computed past the cell cap")

        monkeypatch.setattr(cli, "symmetry_modulus", no_work)
        assert main(argv + ["13"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 5 x 13 grid points exceed cell cap 64\n"
        # the default ladder of 20 scales: 41 rows
        assert main(["analyze", "symmetry", *source, "--grid", "2"]) == 2
        assert capsys.readouterr().err == "error: 41 x 2 grid points exceed cell cap 64\n"

    @pytest.mark.parametrize("source", [[], ["--from", "{f06}"], ["--to", "{lin2}"]], ids=["none", "from", "to"])
    def test_qs_without_a_subject_exits_1(self, specs, capsys, source):
        argv = ["analyze", "qs", *(a.format(**specs) for a in source), "--x", "0.3", "--t", "0.1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: need --homeo, or both --from and --to for a conjugacy\n"

    def test_qs_for_conjugacy_refines_twice(self, specs, capsys, monkeypatch):
        # one enclosure call for the ratio and one for the three widths
        import circledyn.cli as cli
        import circledyn.conjugacy as conjugacy

        calls = []
        original = conjugacy.conjugacy_enclosures

        def counted(f, g, xs, *args, **kwargs):
            calls.append(np.size(xs))
            return original(f, g, xs, *args, **kwargs)

        for module in (cli, conjugacy):
            monkeypatch.setattr(module, "conjugacy_enclosures", counted)
        argv = ["analyze", "qs", "--from", specs["f06"], "--to", specs["lin2"], "--x", "0.02", "--t", "0.1"]
        assert main(argv) == 0
        assert calls == [3, 3]

    def test_uqs_rows(self, specs, capsys):
        code = main(
            ["analyze", "uqs", "--map", specs["f06"], "--x", "0", "--t", "0.2", "--n", "6"]
        )
        assert code == 0
        _, rows = _data_rows(capsys.readouterr().out)
        ratios = [float(r[3]) for r in rows]
        assert np.allclose(ratios, [1.5**n for n in range(1, 7)], rtol=1e-12)

    def test_qs_for_conjugacy(self, specs, capsys):
        code = main(
            ["analyze", "qs", "--from", specs["f06"], "--to", specs["lin2"],
             "--x", "0", "--t", "0.064"]
        )
        assert code == 0
        _, rows = _data_rows(capsys.readouterr().out)
        assert float(rows[0][2]) <= 0.25

    def test_symmetry_for_homeo(self, specs, tmp_path, capsys):
        p = tmp_path / "h.json"
        p.write_text('{"kind": "identity"}')
        code = main(
            ["analyze", "symmetry", "--homeo", str(p), "--grid", "32", "--scales", "0.25,0.125"]
        )
        assert code == 0
        _, rows = _data_rows(capsys.readouterr().out)
        assert [float(r[1]) for r in rows] == [0.0, 0.0]

    def test_measure_profile(self, specs, capsys):
        code = main(["analyze", "measure", "--map", specs["conj"], "--intervals", "dyadic:16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# max_deviation=" in out
        _, rows = _data_rows(out)
        assert len(rows) == 16

    @pytest.mark.parametrize("kind", ["f06", "smooth"])
    def test_measure_nan_interval_end_exits_1(self, specs, capsys, kind):
        if kind == "smooth":
            path = specs["dir"] / "smooth.json"
            path.write_text('{"kind": "smooth_sine", "degree": 2, "epsilon": 0.5}')
        else:
            path = specs[kind]
        intervals = specs["dir"] / "intervals.json"
        intervals.write_text("[[NaN, 0.5], [0.5, 1.0]]")
        code = main(["analyze", "measure", "--map", str(path), "--intervals", str(intervals)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --intervals[0][0]: not a finite number (got nan)\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("5", "--intervals: expected a nonempty list"),
            ("[[null, 0.5]]", "--intervals[0][0]: not a number (got NoneType)"),
            ('[["0.1", 0.2]]', "--intervals[0][0]: not a number (got str)"),
            ("[[0.1, 0.2, 0.3]]", "--intervals[0]: expected a pair [a, b]"),
        ],
    )
    def test_measure_malformed_intervals_file_exits_1(self, specs, capsys, text, message):
        intervals = specs["dir"] / "intervals.json"
        intervals.write_text(text)
        code = main(["analyze", "measure", "--map", specs["f06"], "--intervals", str(intervals)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_measure_intervals_file(self, specs, capsys):
        intervals = specs["dir"] / "intervals.json"
        intervals.write_text("[[0, 0.25], [0.25, 1]]")
        code = main(["analyze", "measure", "--map", specs["f06"], "--intervals", str(intervals)])
        assert code == 0
        _, rows = _data_rows(capsys.readouterr().out)
        assert [(float(r[0]), float(r[1])) for r in rows] == [(0.0, 0.25), (0.25, 1.0)]

    def test_measure_empty_intervals_exits_1(self, specs, capsys):
        code = main(["analyze", "measure", "--map", specs["conj"], "--intervals", "dyadic:0"])
        assert code == 1
        assert "interval list is empty" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["abc", "-3", "1.5", ""])
    def test_measure_bad_dyadic_count_exits_1(self, specs, capsys, count):
        code = main(["analyze", "measure", "--map", specs["f06"], "--intervals", f"dyadic:{count}"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--intervals: interval list is empty; dyadic:N needs an integer N >= 1, got {count!r}" in captured.err
        assert "invalid literal" not in captured.err

    def test_phi_negative_level_exits_1(self, specs, capsys):
        code = main(["analyze", "phi", "--from", specs["f06"], "--to", specs["lin2"], "--level", "-1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --level must be >= 1, got -1\n"

    def test_phi_zero_level_exits_1(self, specs, capsys):
        code = main(["analyze", "phi", "--from", specs["f06"], "--to", specs["lin2"], "--level", "0"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --level must be >= 1, got 0\n"

    def test_phi_growth(self, specs, capsys):
        code = main(
            ["analyze", "phi", "--from", specs["f06"], "--to", specs["lin2"], "--level", "4"]
        )
        assert code == 0
        _, rows = _data_rows(capsys.readouterr().out)
        assert [float(r[1]) for r in rows] == pytest.approx([1.25**n for n in range(1, 5)], rel=1e-12)
        assert rows[-1][2] == "1111"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_phi_zero_length_cylinder_exits_2(self, specs, capsys):
        # a valid map whose narrowest level-3 cylinders are shorter than an ulp
        narrow = specs["dir"] / "narrow.json"
        narrow.write_text('{"kind": "piecewise_linear_full_branch", "cuts": [1.5e-9, 0.5]}')
        lin3 = specs["dir"] / "lin3.json"
        lin3.write_text('{"kind": "linear", "degree": 3}')
        code = main(["analyze", "phi", "--from", str(narrow), "--to", str(lin3), "--level", "6"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: f-cylinder of level 3 has computed length 0.000e+00\n"

    def test_tailsum(self, specs, capsys):
        code = main(["analyze", "tailsum", "--map", specs["f06"], "--word", "0", "--kmax", "5"])
        assert code == 0
        _, rows = _data_rows(capsys.readouterr().out)
        assert [float(r[1]) for r in rows] == pytest.approx([0.4**k for k in range(1, 6)], rel=1e-12)

    @pytest.mark.parametrize(
        "flag, value, name",
        [("--x", "inf", "x"), ("--x", "nan", "x"), ("--x", "-inf", "x"),
         ("--t", "inf", "t"), ("--t", "nan", "t")],
    )
    def test_uqs_non_finite_input_exits_1(self, specs, capsys, flag, value, name):
        values = {"--x": "0", "--t": "0.2"} | {flag: value}
        code = main(["analyze", "uqs", "--map", specs["f06"], "--n", "3", *(f"{k}={v}" for k, v in values.items())])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {name} must be finite, got {float(value)!r}"]

    def test_uqs_huge_x_exits_1(self, specs, capsys):
        # the scalar inverse step raised OverflowError here, a traceback
        pl3 = specs["dir"] / "pl3.json"
        pl3.write_text('{"kind": "piecewise_linear_full_branch", "cuts": [0.3, 0.55]}')
        code = main(["analyze", "uqs", "--map", str(pl3), "--x", "1.7976931348623157e308", "--t", "1", "--n", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: y must be at most 1e300 in magnitude, got 1.7976931348623157e+308"]

    @pytest.mark.parametrize(
        "flag, value, name",
        [("--x", "nan", "x"), ("--x", "inf", "x"), ("--x", "-inf", "x"),
         ("--t", "nan", "t"), ("--t", "inf", "t"), ("--t", "-inf", "t")],
    )
    def test_qs_non_finite_input_exits_1(self, tmp_path, capsys, flag, value, name):
        p = tmp_path / "h.json"
        p.write_text('{"kind": "sine_homeo", "c": 0.3}')
        values = {"--x": "0.3", "--t": "0.1"} | {flag: value}
        code = main(["analyze", "qs", "--homeo", str(p), *(f"{k}={v}" for k, v in values.items())])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {name} must be finite, got {float(value)!r}"]

    @pytest.mark.parametrize("scales", ["nan,0.1", "0.1,nan", "nan", "inf", "0.25,-inf"])
    def test_symmetry_non_finite_scale_exits_1(self, tmp_path, capsys, scales):
        p = tmp_path / "h.json"
        p.write_text('{"kind": "sine_homeo", "c": 0.3}')
        code = main(["analyze", "symmetry", "--homeo", str(p), "--grid", "16", f"--scales={scales}"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: scales must lie in (0, 0.5]"]

    @pytest.mark.parametrize(
        "scales, message",
        [(",", "--scales[0]: expected a number, got ''"),
         ("0.1,,0.2", "--scales[1]: expected a number, got ''"),
         ("0.25,x", "--scales[1]: expected a number, got 'x'")],
    )
    def test_symmetry_malformed_scales_exit_1(self, tmp_path, capsys, scales, message):
        p = tmp_path / "h.json"
        p.write_text('{"kind": "sine_homeo", "c": 0.3}')
        code = main(["analyze", "symmetry", "--homeo", str(p), "--grid", "16", f"--scales={scales}"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("word", ["a", "1-", "-1", "0-x"])
    def test_tailsum_malformed_word_exits_1(self, specs, capsys, word):
        code = main(["analyze", "tailsum", "--map", specs["f06"], f"--word={word}", "--kmax", "5"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: --word: expected digits ('011') or dash-separated integers ('0-11-3'), got {word!r}"
        ]

    @pytest.mark.parametrize(
        "homeo, message",
        [
            ('{"kind": "sine_homeo", "c": 5.0}',
             "sine_homeo(c=5): homeo: |c|=5 >= 1 makes the lift non-monotone"),
            ('{"kind": "compose", "parts": [{"kind": "sine_homeo", "c": -3.0}]}',
             "compose(sine_homeo(c=-3)): homeo.parts[0]: |c|=3 >= 1 makes the lift non-monotone"),
        ],
        ids=["sine", "compose"],
    )
    @pytest.mark.parametrize(
        "command", [["qs", "--x", "0.25", "--t", "0.2"], ["symmetry", "--grid", "16", "--scales", "0.25"]],
        ids=["qs", "symmetry"],
    )
    def test_invalid_homeo_exits_1(self, tmp_path, capsys, homeo, message, command):
        p = tmp_path / "h.json"
        p.write_text(homeo)
        code = main(["analyze", command[0], "--homeo", str(p), *command[1:]])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message} (H' = 1 + c*cos(2*pi*x) changes sign)"]

    def test_work_cap_exit2(self, specs):
        assert main(["analyze", "tailsum", "--map", specs["f06"], "--word", "01010", "--kmax", "10"]) == 2


class TestReproCommands:
    def test_falpha_uqs_matches_growth(self, specs, capsys):
        code = main(["repro", "falpha-uqs", "--alpha", "0.6", "--t", "0.2", "--n", "20"])
        assert code == 0
        _, rows = _data_rows(capsys.readouterr().out)
        assert len(rows) == 20
        assert all(float(r[3]) <= 1e-10 for r in rows)

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_falpha_uqs_nonpositive_n_exits_1(self, capsys, n):
        code = main(["repro", "falpha-uqs", "--n", n])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: --n must be >= 1, got {n}"]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_falpha_uqs_non_finite_t_exits_1(self, capsys, value):
        code = main(["repro", "falpha-uqs", "--t", value, "--n", "3"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: t must be finite, got {float(value)!r}"]

    def test_rigidity_demo(self, specs, capsys):
        code = main(["repro", "rigidity-demo"])
        assert code == 0
        _, rows = _data_rows(capsys.readouterr().out)
        values = {r[0]: float(r[1]) for r in rows}
        assert values["identity_direction_max_offset"] <= 1e-10
        assert values["distinct_pair_qs_ratio_at_0"] <= 0.25

    def test_json_schema_stable(self, specs, capsys):
        code = main(["repro", "falpha-uqs", "--n", "3", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["config", "columns", "rows"]
        assert doc["columns"] == ["n", "ratio", "expected", "rel_error"]


class TestEveryCap:
    """Every command refuses a request past any cap it meets: exit 2, one
    ``error:`` line and no report."""

    CASES = {
        "partition": ("CIRCLEDYN_CELL_CAP", "4", ["partition", "--map", "{f06}", "--level", "3"]),
        "conjugacy_grid": ("CIRCLEDYN_CELL_CAP", "64", ["conjugacy", "--from", "{f06}", "--to", "{lin2}", "--grid", "65"]),
        "conjugacy_level": ("CIRCLEDYN_CELL_CAP", "4", ["conjugacy", "--from", "{f06}", "--to", "{lin2}", "--level", "3"]),
        "symmetry": (
            "CIRCLEDYN_CELL_CAP", "32",
            ["analyze", "symmetry", "--from", "{f06}", "--to", "{lin2}", "--grid", "16", "--scales", "0.25"],
        ),
        "measure_dyadic": ("CIRCLEDYN_CELL_CAP", "4", ["analyze", "measure", "--map", "{f06}", "--intervals", "dyadic:5"]),
        "measure_file": ("CIRCLEDYN_CELL_CAP", "1", ["analyze", "measure", "--map", "{f06}", "--intervals", "{pairs}"]),
        "phi": ("CIRCLEDYN_CELL_CAP", "4", ["analyze", "phi", "--from", "{f06}", "--to", "{lin2}", "--level", "3"]),
        "tailsum_cells": ("CIRCLEDYN_CELL_CAP", "4", ["analyze", "tailsum", "--map", "{smooth2}", "--word", "0"]),
        "rigidity_demo": ("CIRCLEDYN_CELL_CAP", "4", ["repro", "rigidity-demo"]),
        "uqs": ("CIRCLEDYN_DEPTH_CAP", "4", ["analyze", "uqs", "--map", "{f06}", "--x", "0", "--t", "0.2", "--n", "5"]),
        "falpha_uqs": ("CIRCLEDYN_DEPTH_CAP", "4", ["repro", "falpha-uqs", "--n", "8"]),
        "tailsum_work": ("CIRCLEDYN_WORK_CAP", "100", ["analyze", "tailsum", "--map", "{f06}", "--word", "01"]),
    }

    @pytest.mark.parametrize("variable, cap, argv", CASES.values(), ids=CASES.keys())
    def test_over_cap_exits_2_with_no_report(self, specs, capsys, monkeypatch, variable, cap, argv):
        (specs["dir"] / "pairs.json").write_text("[[0, 0.5], [0.5, 1]]")
        names = {**specs, "pairs": specs["dir"] / "pairs.json"}
        argv = [a.format(**names) for a in argv]
        out = specs["dir"] / "report.csv"
        for name in ("CIRCLEDYN_WORK_CAP", "CIRCLEDYN_CELL_CAP", "CIRCLEDYN_DEPTH_CAP"):
            monkeypatch.delenv(name, raising=False)
        assert main(argv + ["--out", str(out)]) == 0  # the request alone is fine
        out.unlink()
        monkeypatch.setenv(variable, cap)
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
        assert not out.exists()

    def test_measure_refuses_dyadic_count_before_building_intervals(self, specs, capsys, monkeypatch):
        monkeypatch.delenv("CIRCLEDYN_CELL_CAP", raising=False)
        argv = ["analyze", "measure", "--map", specs["f06"], "--intervals", "dyadic:2000000"]
        tracemalloc.start()
        try:
            assert main(argv) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert capsys.readouterr().err == "error: 2000000 intervals exceed cell cap 1048576\n"

    NEGATIVE = {
        "depth_variable": ("CIRCLEDYN_DEPTH_CAP", ["conjugacy", "--from", "{f06}", "--to", "{lin2}", "--grid", "8"]),
        "cell_variable": ("CIRCLEDYN_CELL_CAP", ["partition", "--map", "{f06}", "--level", "0"]),
        "work_variable": ("CIRCLEDYN_WORK_CAP", ["analyze", "tailsum", "--map", "{f06}", "--word", "01"]),
        "depth_flag": ("--depth-cap", ["repro", "all", "--depth-cap", "{cap}"]),
    }

    @pytest.mark.parametrize("name, argv", NEGATIVE.values(), ids=NEGATIVE.keys())
    def test_a_negative_cap_is_refused_where_it_is_read(self, specs, capsys, monkeypatch, name, argv):
        out = specs["dir"] / "report.csv"
        for cap, code in (("-1", 1), ("0", 2)):  # a cap of 0 is a cap of 0
            for variable in ("CIRCLEDYN_WORK_CAP", "CIRCLEDYN_CELL_CAP", "CIRCLEDYN_DEPTH_CAP"):
                monkeypatch.delenv(variable, raising=False)
            if name.startswith("CIRCLEDYN_"):
                monkeypatch.setenv(name, cap)
            assert main([a.format(**specs, cap=cap) for a in argv] + ["--out", str(out)]) == code
            err = capsys.readouterr().err
            if code == 1:
                assert err == f"error: {name}: expected a cap >= 0, got -1\n"
                assert not out.exists()

    @pytest.mark.parametrize("variable", ["CIRCLEDYN_WORK_CAP", "CIRCLEDYN_CELL_CAP", "CIRCLEDYN_DEPTH_CAP"])
    @pytest.mark.parametrize("raw", ["1.5", "", "lots"])
    def test_a_non_integer_cap_is_refused(self, specs, capsys, monkeypatch, variable, raw):
        out = specs["dir"] / "report.csv"
        monkeypatch.setenv(variable, raw)
        assert main(["partition", "--map", specs["f06"], "--level", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {variable}: expected an integer, got {raw!r}\n"
        assert not out.exists()

    def test_repro_all_depth_cap_zero_is_a_cap(self, tmp_path, monkeypatch):
        monkeypatch.delenv("CIRCLEDYN_DEPTH_CAP", raising=False)
        out = tmp_path / "suite.csv"
        assert main(["repro", "all", "--depth-cap", "0", "--out", str(out)]) == 2
        header = [line for line in out.read_text().splitlines() if line.startswith("#")]
        assert "# depth_cap=0" in header
        assert "# conjugacy_depth_cap=0" in header


class TestStreamedReports:
    """``partition``, ``conjugacy --level`` and ``conjugacy --grid`` stream their rows
    from endpoint or enclosure slices and word-text blocks.  Each report must be
    the bytes of the rows built the old way, a ``CylinderInterval`` and a
    ``Word.to_text`` per cell or whole-array lists, written by the same writer.
    Degree 11 hits the dash rule ("10-3") and the single symbol "10"; level 16
    of degree 2 takes two blocks."""

    CASES = [("lin2", "f06", 0), ("lin2", "f06", 1), ("lin2", "f06", 16),
             ("pl3", "lin3", 0), ("pl3", "lin3", 1), ("pl3", "lin3", 5),
             ("lin11", "lin11", 0), ("lin11", "lin11", 1), ("lin11", "lin11", 2)]

    @pytest.fixture
    def maps(self, specs):
        for name, text in (("pl3", '{"kind": "piecewise_linear_full_branch", "cuts": [0.3, 0.55]}'),
                           ("lin3", '{"kind": "linear", "degree": 3}')):
            path = specs["dir"] / f"{name}.json"
            path.write_text(text)
            specs[name] = str(path)
        return specs

    @staticmethod
    def _same_report(maps, argv, as_json, columns, rows, config):
        got, want = maps["dir"] / "got.out", maps["dir"] / "want.out"
        flag = ["--json"] if as_json else []
        assert main(argv + ["--out", str(got)] + flag) in (0, 2)
        _write_report(argparse.Namespace(json=as_json, out=str(want)), columns, rows, config)
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("as_json", [False, True], ids=["csv", "json"])
    @pytest.mark.parametrize("f, g, n", CASES)
    def test_partition(self, maps, f, g, n, as_json):
        spec = map_spec_from_json(Path(maps[f]).read_text())
        ends = level_endpoints(spec, n).tolist()
        radius = float(chain_error_bound(spec, n)[n])
        cells = [CylinderInterval(w, a, b, n, radius) for w, a, b in zip(level_words(n, spec.degree), ends, ends[1:])]
        config = {"command": "partition", "map": maps[f], "level": n, "solver_tol": defaults.SOLVER_TOL,
                  "endpoint_radius": radius}
        rows = [(c.word.to_text(), c.left, c.right, c.length) for c in cells]
        argv = ["partition", "--map", maps[f], "--level", str(n)]
        self._same_report(maps, argv, as_json, ["word", "left", "right", "length"], rows, config)

    @pytest.mark.parametrize("as_json", [False, True], ids=["csv", "json"])
    @pytest.mark.parametrize("f, g, n", CASES)
    def test_conjugacy_level(self, maps, f, g, n, as_json):
        f_spec, g_spec = (map_spec_from_json(Path(maps[m]).read_text()) for m in (f, g))
        table = endpoint_table(f_spec, g_spec, n)
        words = level_words(n, f_spec.degree)
        rows = [(words[j].to_text() if j < len(words) else "", fp, gp) for j, (fp, gp) in enumerate(table.pairs())]
        config = {"command": "conjugacy-table", "from": maps[f], "to": maps[g], "level": n,
                  "solver_tol": defaults.SOLVER_TOL}
        argv = ["conjugacy", "--from", maps[f], "--to", maps[g], "--level", str(n)]
        self._same_report(maps, argv, as_json, ["word", "f_endpoint", "g_endpoint"], rows, config)

    @pytest.mark.parametrize("as_json", [False, True], ids=["csv", "json"])
    @pytest.mark.parametrize("f, g, grid", [("f06", "lin2", 1), ("f06", "lin2", 5), ("pl3", "lin3", 40_000)])
    def test_conjugacy_grid(self, maps, f, g, grid, as_json):
        f_spec, g_spec = (map_spec_from_json(Path(maps[m]).read_text()) for m in (f, g))
        xs = np.arange(grid, dtype=float) / grid
        lo, hi, depth, met = conjugacy_enclosures(f_spec, g_spec, xs, tol=1e-8)
        rows = list(zip(xs.tolist(), lo.tolist(), hi.tolist(), depth.tolist()))
        config = {"command": "conjugacy", "from": maps[f], "to": maps[g], "grid": grid, "tol": 1e-8,
                  "depth_cap": defaults.CONJUGACY_DEPTH_CAP, "tolerance_unreachable_rows": int(np.count_nonzero(~met))}
        argv = ["conjugacy", "--from", maps[f], "--to", maps[g], "--grid", str(grid)]
        self._same_report(maps, argv, as_json, ["x", "h_lo", "h_hi", "depth"], rows, config)


class TestReportWriter:
    """``_write_report`` writes a CSV report row by row: it keeps no row and no text."""

    COLUMNS = ["word", "left", "right", "depth"]
    CONFIG = {"command": "stream", "tol": 1e-10}

    @staticmethod
    def _rows(count):
        return ((format(j, "b"), j / 7, (j + 1) / 7, j % 61) for j in range(count))

    def test_rows_are_written_as_they_are_formatted(self, tmp_path):
        out = tmp_path / "report.csv"
        args = argparse.Namespace(json=False, out=str(out))
        tracemalloc.start()
        try:
            _write_report(args, self.COLUMNS, self._rows(200_000), self.CONFIG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # holding the rows and the report's text would take about 54 MiB
        buf = io.StringIO()
        buf.write(f"# command=stream\n# tol={1e-10:.17g}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.COLUMNS)
        for word, left, right, depth in self._rows(200_000):
            writer.writerow([word, format(left, ".17g"), format(right, ".17g"), str(depth)])
        assert out.read_text() == buf.getvalue()

    def test_a_failing_command_writes_no_report(self, specs, capsys, monkeypatch):
        # rows from a library iterator that raises are built before the file opens
        import circledyn.cli as cli

        def failing(*args, **kwargs):
            yield 1.5
            raise cli.ResolutionExhausted("denominator below floor")

        monkeypatch.setattr(cli, "iter_uqs_ratios", failing)
        out = specs["dir"] / "report.csv"
        argv = ["analyze", "uqs", "--map", specs["f06"], "--x", "0", "--t", "0.2", "--n", "3", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: denominator below floor\n"
        assert not out.exists()


class TestParserReuse:
    """``main`` builds its parser once per process and reuses it."""

    def test_one_parser_tree_for_many_calls(self, specs, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        build_parser.cache_clear()
        build_parser()
        tree_size = len(built)
        assert tree_size > 1  # the top parser and its subcommand parsers
        build_parser.cache_clear()
        built.clear()
        for level in ("1", "2", "3", "2", "1"):
            assert main(["partition", "--map", specs["f06"], "--level", level]) == 0
        assert main(["validate", "--map", specs["f06"]]) == 0
        assert len(built) == tree_size
        info = build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 5)

    def test_json_then_csv_bytes_equal_each_alone(self, specs):
        out = specs["dir"]
        conj = ["conjugacy", "--from", specs["f06"], "--to", specs["lin2"], "--grid", "16"]

        def run(argv, name):
            assert main(argv + ["--out", str(out / name)]) == 0
            return (out / name).read_bytes()

        build_parser.cache_clear()
        json_alone = run(conj + ["--json"], "a.json")
        build_parser.cache_clear()
        csv_alone = run(conj, "a.csv")
        build_parser.cache_clear()
        assert run(conj + ["--json"], "b.json") == json_alone
        assert run(conj, "b.csv") == csv_alone
        assert run(conj + ["--json"], "c.json") == json_alone
        assert json.loads(json_alone)["config"]["command"] == "conjugacy"
        assert csv_alone.startswith(b"# command=conjugacy\n")

    def test_usage_error_leaves_parser_usable(self, specs, capsys):
        main(["partition", "--map", specs["f06"], "--level", "2"])
        alone = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["partition", "--map", specs["f06"]])  # --level missing
        assert exc.value.code == 2
        assert "--level" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["partition", "--map", specs["f06"], "--level", "two"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["partition", "--map", specs["f06"], "--level", "2"]) == 0
        assert capsys.readouterr().out == alone

    def test_cell_cap_env_read_on_every_call(self, specs, capsys, monkeypatch):
        argv = ["partition", "--map", specs["f06"], "--level", "3"]
        monkeypatch.setenv("CIRCLEDYN_CELL_CAP", "4")
        assert main(argv) == 2
        monkeypatch.setenv("CIRCLEDYN_CELL_CAP", "8")
        assert main(argv) == 0
        monkeypatch.setenv("CIRCLEDYN_CELL_CAP", "4")
        assert main(argv) == 2
        monkeypatch.delenv("CIRCLEDYN_CELL_CAP")
        assert main(argv) == 0

    def test_fresh_interpreter_matches_golden(self, tmp_path):
        # the path real CLI users take: a new process per command
        (tmp_path / "f06.json").write_text(F06_JSON)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "circledyn.cli", "partition", "--map", "f06.json", "--level", "4"],
            cwd=tmp_path, env=env, capture_output=True, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        golden = Path(__file__).with_name("golden") / "partition_f06_level4.csv"
        assert proc.stdout == golden.read_bytes()
