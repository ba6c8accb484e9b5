"""Golden CLI outputs: deterministic reports must not change by a single byte.

Each case runs one command in a directory holding the spec files under short
relative names (the header echoes the paths) and compares the report with the
file recorded under ``tests/golden/``.  Linear and piecewise-linear reports are
compared byte for byte.  Reports that involve a root-solved map are compared
as parsed values within 1e-12, because numpy's ``sin`` may round differently
on another CPU.  Of ``repro all`` only the rows of criteria 1, 2, 4, 6, 7 and
8 are kept: they use piecewise-linear maps alone, while criteria 3, 5 and 9
solve roots.  No row prints a clock (a row names its runtime only in the
note of a failed runtime bound).  The ``analyze uqs``, ``analyze phi
--coarse``, ``repro rigidity-demo`` and ``repro falpha-uqs`` cases pin the
inverse orbits, the conjugacy lift and the coarse dilatation report on
piecewise-linear maps.  A report is what the command writes to stdout and
stderr, so the ``validate`` cases of invalid specs (exit 1) also pin the
message of a spec the JSON reader refuses.  Each case also runs once to
stdout and once with ``--out``: the two reports must be the same bytes.

With no arguments the script records the cases whose file is missing (a new
case); cases named on the command line are recorded again, which is only for
an intended output change.  No other file is touched::

    PYTHONPATH=src python tests/test_golden.py
    PYTHONPATH=src python tests/test_golden.py partition_f06_level4.csv
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys
from pathlib import Path

import pytest

from circledyn.cli import main

GOLDEN = Path(__file__).with_name("golden")
SPECS = {
    "f06.json": '{"kind": "piecewise_linear_full_branch", "cuts": [0.6]}',
    "lin2.json": '{"kind": "linear", "degree": 2}',
    "sine.json": '{"kind": "smooth_sine", "degree": 2, "epsilon": 0.5}',
    "lin1.json": '{"kind": "linear", "degree": 1}',
    "pl3.json": '{"kind": "piecewise_linear_full_branch", "cuts": [0.3, 0.55]}',
    "lin3.json": '{"kind": "linear", "degree": 3}',
    "cuts_down.json": '{"kind": "piecewise_linear_full_branch", "cuts": [0.6, 0.4]}',
    "cuts_close.json": '{"kind": "piecewise_linear_full_branch", "cuts": [0.5, 0.5000000001]}',
    "sine_nan.json": '{"kind": "smooth_sine", "degree": 2, "epsilon": NaN}',
    "sine_steep.json": '{"kind": "smooth_sine", "degree": 2, "epsilon": 2.5}',
    "conj_bad_homeo.json": (
        '{"kind": "conjugated", "base": {"kind": "piecewise_linear_full_branch", "cuts": [0.6]},'
        ' "homeo": {"kind": "compose", "parts": [{"kind": "sine_homeo", "c": 0.3},'
        ' {"kind": "sine_homeo", "c": -1.5}]}}'
    ),
}
# name -> (argv, exit code, exact bytes?)
CASES = {
    "conj_f06_lin2_grid64.csv": (
        ["conjugacy", "--from", "f06.json", "--to", "lin2.json", "--grid", "64"], 0, True),
    "conj_f06_lin2_grid5.csv": (
        ["conjugacy", "--from", "f06.json", "--to", "lin2.json", "--grid", "5"], 0, True),
    "conj_f06_lin2_grid64.json": (
        ["conjugacy", "--from", "f06.json", "--to", "lin2.json", "--grid", "64", "--json"], 0, True),
    "conj_f06_f06_grid64_tol1e-10.csv": (
        ["conjugacy", "--from", "f06.json", "--to", "f06.json", "--grid", "64", "--tol", "1e-10"], 0, True),
    "conj_f06_lin2_level6.csv": (
        ["conjugacy", "--from", "f06.json", "--to", "lin2.json", "--level", "6"], 0, True),
    "symmetry_f06_lin2.csv": (
        ["analyze", "symmetry", "--from", "f06.json", "--to", "lin2.json"], 0, True),
    "partition_f06_level4.csv": (
        ["partition", "--map", "f06.json", "--level", "4"], 0, True),
    "conj_f06_sine_grid64.csv": (
        ["conjugacy", "--from", "f06.json", "--to", "sine.json", "--grid", "64"], 0, False),
    "qs_f06_lin2.csv": (
        ["analyze", "qs", "--from", "f06.json", "--to", "lin2.json", "--x", "0.3", "--t", "0.05"], 0, True),
    "qs_f06_lin2_wrapped.csv": (
        ["analyze", "qs", "--from", "f06.json", "--to", "lin2.json", "--x", "0.02", "--t", "0.1"], 0, True),
    "repro_all_pl_rows.csv": (["repro", "all"], 0, True),
    "uqs_f06.csv": (
        ["analyze", "uqs", "--map", "f06.json", "--x", "0", "--t", "0.2", "--n", "30"], 0, True),
    "uqs_pl3.csv": (
        ["analyze", "uqs", "--map", "pl3.json", "--x", "-1.7", "--t", "0.4", "--n", "30"], 0, True),
    "phi_pl3_lin3_coarse2.csv": (
        ["analyze", "phi", "--from", "pl3.json", "--to", "lin3.json", "--level", "6", "--coarse", "2"], 0, True),
    "repro_rigidity_demo.csv": (["repro", "rigidity-demo"], 0, True),
    "repro_falpha_uqs_n25.csv": (["repro", "falpha-uqs", "--n", "25"], 0, True),
    "validate_bad_degree.csv": (["validate", "--map", "lin1.json"], 1, True),
    "validate_cuts_not_increasing.csv": (["validate", "--map", "cuts_down.json"], 1, True),
    "validate_branch_too_small.csv": (["validate", "--map", "cuts_close.json"], 1, True),
    "validate_non_finite.csv": (["validate", "--map", "sine_nan.json"], 1, True),
    "validate_sine_non_monotone.csv": (["validate", "--map", "sine_steep.json"], 1, True),
    "validate_conj_bad_homeo.csv": (["validate", "--map", "conj_bad_homeo.json"], 1, True),
}
# the report rows kept of a case (by first column); other cases keep every line
ROWS = {"repro_all_pl_rows.csv": ("1", "2", "4", "6", "7", "8")}


def _run(argv: list[str], workdir: Path) -> tuple[int, str]:
    for name, text in SPECS.items():
        (workdir / name).write_text(text)
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, buf.getvalue()


def _report(name: str, argv: list[str], workdir: Path) -> tuple[int, str]:
    code, out = _run(argv, workdir)
    if name in ROWS:
        lines = out.splitlines(keepends=True)
        out = "".join(line for line in lines if line.split(",", 1)[0] in ROWS[name])
    return code, out


def _cells(text: str) -> list[list[str]]:
    return [row for row in csv.reader(io.StringIO(text))]


def _close(a: str, b: str) -> bool:
    try:
        return abs(float(a) - float(b)) <= 1e-12
    except ValueError:
        return a == b


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    argv, want_code, exact = CASES[name]
    code, out = _report(name, argv, tmp_path)
    assert code == want_code
    want = (GOLDEN / name).read_text()
    if exact:
        assert out == want
        return
    got_rows, want_rows = _cells(out), _cells(want)
    assert len(got_rows) == len(want_rows)
    for got, ref in zip(got_rows, want_rows):
        assert len(got) == len(ref)
        assert all(_close(a, b) for a, b in zip(got, ref)), (got, ref)


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_report_equals_out_file(name, tmp_path, capsys, monkeypatch):
    # a report is written to its sink row by row; stdout and --out get the same bytes
    argv, want_code, _ = CASES[name]
    for spec, text in SPECS.items():
        (tmp_path / spec).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == want_code
    stdout = capsys.readouterr().out
    assert main([*argv, "--out", "report.out"]) == want_code
    assert capsys.readouterr().out == ""
    out = tmp_path / "report.out"
    assert (out.read_bytes() if out.exists() else b"") == stdout.encode()


def _record(names: list[str]) -> None:
    """Record the named cases, or with no names every case whose file is missing."""
    import tempfile

    unknown = sorted(set(names) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown case(s): {', '.join(unknown)}")
    names = names or [name for name in CASES if not (GOLDEN / name).exists()]
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            argv, want_code, _ = CASES[name]
            code, out = _report(name, argv, Path(tmp))
            if code != want_code:
                raise SystemExit(f"{name}: exit {code}, expected {want_code}")
            if name.endswith(".json"):
                json.loads(out)
            (GOLDEN / name).write_text(out)
            print(f"recorded {name} ({len(out)} bytes)", file=sys.stderr)


if __name__ == "__main__":
    _record(sys.argv[1:])
