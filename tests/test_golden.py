"""Golden CLI outputs: deterministic reports must not change by a single byte.

Each case runs one command in a directory holding the spec files under short
relative names (the header echoes the paths) and compares the report with the
file recorded under ``tests/golden/``.  Linear and piecewise-linear reports are
compared byte for byte.  Reports that involve a root-solved map are compared
as parsed values within 1e-12, because numpy's ``sin`` may round differently
on another CPU.  Of ``repro all`` only the rows of criteria 2, 6, 7 and 8 are
kept: they use piecewise-linear maps alone, while criteria 1 and 4 print
elapsed times and the others solve roots.

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
}
# name -> (argv, exit code, exact bytes?)
CASES = {
    "conj_f06_lin2_grid64.csv": (
        ["conjugacy", "--from", "f06.json", "--to", "lin2.json", "--grid", "64"], 0, True),
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
}
# the report rows kept of a case (by first column); other cases keep every line
ROWS = {"repro_all_pl_rows.csv": ("2", "6", "7", "8")}


def _run(argv: list[str], workdir: Path) -> tuple[int, str]:
    for name, text in SPECS.items():
        (workdir / name).write_text(text)
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(buf):
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
