"""Command-line front end.

One binary, subcommand style::

    circledyn validate  --map f.json
    circledyn partition --map f.json --level 2
    circledyn conjugacy --from f.json --to g.json --grid 64 --tol 1e-8
    circledyn conjugacy --from f.json --to g.json --level 4          # endpoint table
    circledyn analyze {qs|symmetry|uqs|measure|phi|tailsum} ...
    circledyn repro {falpha-uqs|rigidity-demo|all} ...

Reports are CSV by default (17 significant digits, '.' decimal separator, LF
line endings, config echoed in '#' header lines) or a single JSON document
with ``--json``.  Output is deterministic for a fixed invocation.

Exit codes: 0 ok; 1 validation or input-schema failure; 2 cap or tolerance
failure (partial report still written and flagged); 3 I/O error.

Every command honours every cap: each call reads ``CIRCLEDYN_WORK_CAP``,
``CIRCLEDYN_CELL_CAP`` and ``CIRCLEDYN_DEPTH_CAP`` (both depth caps) into one
``ReproConfig``, and ``repro all --depth-cap N`` replaces both depth caps.  The
cell cap also bounds the points of ``conjugacy --grid``, ``analyze symmetry``
and ``analyze measure``, checked before any of them is built.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import os
import sys
from typing import Iterable, Sequence

import numpy as np

from . import defaults
from .analysis import (
    dilatation_report,
    dyadic_intervals,
    iter_dilatation_reports,
    iter_uqs_ratios,
    measure_profile,
    qs_ratio,
    symmetry_modulus,
    tail_sum,
)
from .circle_maps import (
    _load_json,
    _want_list,
    _want_number,
    homeo_spec_from_json,
    map_spec_from_json,
    validate,
)
from .conjugacy import ConjugacyMap, conjugacy_enclosures, endpoint_table, table_words
from .errors import (
    CellCapExceeded,
    CircleDynError,
    DepthCapExceeded,
    ResolutionExhausted,
    SolverError,
    SpecFormatError,
    WorkCapExceeded,
)
from .repro import ReproConfig, falpha_uqs_rows, run_suite
from .symbolic_partition import Word, enumerate_level

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CAP = 2
EXIT_IO = 3


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_report(args, columns: Sequence[str], rows: Iterable[Sequence], config: dict) -> None:
    rows = [list(r) for r in rows]
    if args.json:
        doc = {
            "config": config,
            "columns": list(columns),
            "rows": [[v if isinstance(v, (int, str)) else float(v) for v in row] for row in rows],
        }
        text = json.dumps(doc, indent=2) + "\n"
    else:
        buf = io.StringIO()
        for key, val in config.items():
            buf.write(f"# {key}={_fmt(val)}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_spec(path: str, parse=map_spec_from_json):
    with open(path) as fh:
        return parse(fh.read())


def _check_point_count(count: int, what: str, cell_cap: int) -> None:
    """Refuse a request for more evaluation points than the cell cap, before any is built."""
    if count > cell_cap:
        raise CellCapExceeded(f"{what} exceed cell cap {cell_cap}")


def _caps_from_env() -> ReproConfig:
    """The caps of one command: ``ReproConfig``'s defaults, overridden by the environment."""
    caps = {}
    for name, keys in (
        ("CIRCLEDYN_WORK_CAP", ("work_cap",)),
        ("CIRCLEDYN_CELL_CAP", ("cell_cap",)),
        ("CIRCLEDYN_DEPTH_CAP", ("depth_cap", "conjugacy_depth_cap")),
    ):
        raw = os.environ.get(name)
        if raw is not None:
            try:
                caps |= dict.fromkeys(keys, int(raw))
            except ValueError:
                raise SpecFormatError(f"{name}: expected an integer, got {raw!r}") from None
    return ReproConfig(**caps)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_validate(args, caps) -> int:
    spec = _load_spec(args.map)
    report = validate(spec)
    config = {"command": "validate", "map": args.map}
    rows = [
        (v.code, v.message, "" if v.location is None else v.location)
        for v in report.violations
    ]
    _write_report(args, ["code", "message", "location"], rows, config | {"ok": report.ok})
    return EXIT_OK if report.ok else EXIT_VALIDATION


def _cmd_partition(args, caps) -> int:
    spec = _load_spec(args.map)
    cells = enumerate_level(spec, args.level, cell_cap=caps.cell_cap)
    config = {
        "command": "partition",
        "map": args.map,
        "level": args.level,
        "solver_tol": defaults.SOLVER_TOL,
        "endpoint_radius": cells[0].endpoint_radius if cells else 0.0,
    }
    rows = [(c.word.to_text(), c.left, c.right, c.length) for c in cells]
    _write_report(args, ["word", "left", "right", "length"], rows, config)
    return EXIT_OK


def _cmd_conjugacy(args, caps) -> int:
    f = _load_spec(args.from_map)
    g = _load_spec(args.to_map)
    if args.level is not None:
        table = endpoint_table(f, g, args.level, cell_cap=caps.cell_cap)
        config = {
            "command": "conjugacy-table",
            "from": args.from_map,
            "to": args.to_map,
            "level": args.level,
            "solver_tol": defaults.SOLVER_TOL,
        }
        words = table_words(table, f.degree)
        rows = [
            (words[j].to_text() if j < len(words) else "", fp, gp)
            for j, (fp, gp) in enumerate(table.pairs())
        ]
        _write_report(args, ["word", "f_endpoint", "g_endpoint"], rows, config)
        return EXIT_OK
    if args.grid < 1:
        raise ValueError(f"--grid must be >= 1, got {args.grid}")
    _check_point_count(args.grid, f"{args.grid} grid points", caps.cell_cap)
    xs = np.arange(args.grid, dtype=float) / args.grid
    lo, hi, depth, met = conjugacy_enclosures(f, g, xs, tol=args.tol, depth_cap=caps.conjugacy_depth_cap)
    unreached = int(np.count_nonzero(~met))
    config = {
        "command": "conjugacy",
        "from": args.from_map,
        "to": args.to_map,
        "grid": args.grid,
        "tol": args.tol,
        "depth_cap": caps.conjugacy_depth_cap,
        "tolerance_unreachable_rows": unreached,
    }
    rows = list(zip(xs.tolist(), lo.tolist(), hi.tolist(), depth.tolist()))
    _write_report(args, ["x", "h_lo", "h_hi", "depth"], rows, config)
    return EXIT_OK if unreached == 0 else EXIT_CAP


def _homeo_subject(args, caps):
    if args.homeo:
        return _load_spec(args.homeo, homeo_spec_from_json), {"homeo": args.homeo}
    if not (args.from_map and args.to_map):
        raise SpecFormatError("need --homeo, or both --from and --to for a conjugacy")
    f = _load_spec(args.from_map)
    g = _load_spec(args.to_map)
    return (
        ConjugacyMap(f, g, tol=args.tol, depth_cap=caps.conjugacy_depth_cap),
        {"from": args.from_map, "to": args.to_map, "tol": args.tol},
    )


def _cmd_analyze_qs(args, caps) -> int:
    subject, meta = _homeo_subject(args, caps)
    ratio = qs_ratio(subject, args.x, args.t)
    width = 0.0
    if isinstance(subject, ConjugacyMap):
        # numpy's remainder rounds as Python's float % does
        reduced = np.clip(np.asarray([args.x - args.t, args.x, args.x + args.t]) % 1.0, 0.0, 1.0)
        lo, hi, _, _ = conjugacy_enclosures(
            subject.f, subject.g, reduced, tol=subject.tol, depth_cap=subject.depth_cap
        )
        width = float(np.max(hi - lo))
    config = {"command": "analyze-qs", **meta}
    _write_report(
        args,
        ["x", "t", "ratio", "enclosure_width"],
        [(args.x, args.t, ratio, width)],
        config,
    )
    return EXIT_OK


def _parse_entry(parse, text: str, where: str, expected: str):
    """``parse(text)``, failing with an error that names the option entry ``where``."""
    try:
        return parse(text)
    except ValueError:
        raise ValueError(f"{where}: expected {expected}, got {text!r}") from None


def _cmd_analyze_symmetry(args, caps) -> int:
    subject, meta = _homeo_subject(args, caps)
    entries = enumerate(args.scales.split(",") if args.scales else ())
    scales = tuple(_parse_entry(float, p, f"--scales[{i}]", "a number") for i, p in entries) or defaults.SCALE_LADDER
    # the modulus evaluates the grid and its shifts by each distinct scale both ways
    shifts = 2 * len(set(scales)) + 1
    _check_point_count(shifts * args.grid, f"{shifts} x {args.grid} grid points", caps.cell_cap)
    report = symmetry_modulus(subject, scales=scales, grid=args.grid)
    config = {"command": "analyze-symmetry", "grid": args.grid, "subject": report.subject, **meta}
    rows = [(row.scale, row.deviation, row.argmax_x) for row in report.rows]
    _write_report(args, ["scale", "deviation", "argmax_x"], rows, config)
    return EXIT_OK


def _cmd_analyze_uqs(args, caps) -> int:
    spec = _load_spec(args.map)
    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    ratios = iter_uqs_ratios(spec, args.x, args.t, args.n, depth_cap=caps.depth_cap)
    rows = [(n, args.x, args.t, ratio) for n, ratio in enumerate(ratios, 1)]
    config = {"command": "analyze-uqs", "map": args.map, "x": args.x, "t": args.t, "solver_tol": defaults.SOLVER_TOL}
    _write_report(args, ["n", "x", "t", "ratio"], rows, config)
    return EXIT_OK


def _parse_intervals(text: str, cell_cap: int):
    if text.startswith("dyadic:"):
        raw = text.split(":", 1)[1]
        try:
            count = int(raw)
        except ValueError:
            count = 0
        if count < 1:
            raise ValueError(
                f"--intervals: interval list is empty; dyadic:N needs an integer N >= 1, got {raw!r}"
            )
        _check_point_count(count, f"{count} intervals", cell_cap)
        return dyadic_intervals(count)
    with open(text) as fh:
        data = _load_json(fh.read())
    intervals = _want_list(_want_interval)(data, "--intervals")
    _check_point_count(len(intervals), f"{len(intervals)} intervals", cell_cap)
    return intervals


def _want_interval(obj, path: str) -> tuple[float, float]:
    if not isinstance(obj, list) or len(obj) != 2:
        raise SpecFormatError(f"{path}: expected a pair [a, b]")
    return _want_number(obj[0], f"{path}[0]"), _want_number(obj[1], f"{path}[1]")


def _cmd_analyze_measure(args, caps) -> int:
    spec = _load_spec(args.map)
    intervals = _parse_intervals(args.intervals, caps.cell_cap)
    profile = measure_profile(spec, intervals)
    config = {
        "command": "analyze-measure",
        "map": args.map,
        "intervals": args.intervals,
        "solver_tol": defaults.SOLVER_TOL,
        "max_deviation": float(np.max(profile)),
    }
    rows = [(a, b, float(dev)) for (a, b), dev in zip(intervals, profile)]
    _write_report(args, ["left", "right", "deviation"], rows, config)
    return EXIT_OK


def _cmd_analyze_phi(args, caps) -> int:
    f = _load_spec(args.from_map)
    g = _load_spec(args.to_map)
    if args.level < 1:
        raise ValueError(f"--level must be >= 1, got {args.level}")
    config = {"command": "analyze-phi", "from": args.from_map, "to": args.to_map, "solver_tol": defaults.SOLVER_TOL}
    if args.coarse is not None:
        report = dilatation_report(f, g, args.level, coarse_level=args.coarse, cell_cap=caps.cell_cap)
        rows = [(w.to_text(), r) for w, r in report.coarse_max]
        _write_report(args, ["cell_word", "max_ratio"], rows, config | {"level": args.level, "coarse": args.coarse})
        return EXIT_OK
    rows = [
        (r.level, r.max_ratio, r.argmax_word.to_text(), r.min_ratio, r.argmin_word.to_text())
        for r in iter_dilatation_reports(f, g, args.level, cell_cap=caps.cell_cap)
    ]
    _write_report(args, ["level", "max_ratio", "argmax_word", "min_ratio", "argmin_word"], rows, config)
    return EXIT_OK


def _cmd_analyze_tailsum(args, caps) -> int:
    spec = _load_spec(args.map)
    report = tail_sum(
        spec,
        _parse_entry(Word.from_text, args.word, "--word", "digits ('011') or dash-separated integers ('0-11-3')"),
        args.kmax,
        work_cap=caps.work_cap,
        cell_cap=caps.cell_cap,
    )
    config = {
        "command": "analyze-tailsum",
        "map": args.map,
        "word": args.word,
        "method": report.method,
        "ratio_floor": report.ratio_floor,
        "bg_ratio_floor": report.bg_ratio_floor,
    }
    rows = [
        (r.k, r.excluded_sum, r.bound_empirical, r.bound_bg_constant, r.interval_count)
        for r in report.rows
    ]
    _write_report(
        args,
        ["k", "excluded_sum", "bound_empirical", "bound_bg_constant", "interval_count"],
        rows,
        config,
    )
    return EXIT_OK


def _cmd_repro_falpha(args, caps) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    rows = falpha_uqs_rows(args.alpha, args.t, args.n, caps)
    config = {"command": "repro-falpha-uqs", "alpha": args.alpha, "t": args.t}
    _write_report(args, ["n", "ratio", "expected", "rel_error"], rows, config)
    return EXIT_OK


def _cmd_repro_rigidity(args, caps) -> int:
    from .circle_maps import linear_map, piecewise_linear

    f = piecewise_linear([0.6])
    g = linear_map(2)
    identity = ConjugacyMap(f, f, tol=1e-10, depth_cap=caps.conjugacy_depth_cap)
    xs = np.arange(256, dtype=float) / 256
    values = identity.lift_values(xs)
    rows = [("identity_direction_max_offset", float(np.max(np.abs(values - xs))), 0.0)]
    distinct = ConjugacyMap(f, g, tol=1e-10, depth_cap=caps.conjugacy_depth_cap)
    t = 0.4**3
    ratio = qs_ratio(distinct, 0.0, t)
    rows.append(("distinct_pair_qs_ratio_at_0", ratio, 0.25))
    for report in iter_dilatation_reports(f, g, 8, cell_cap=caps.cell_cap):
        n = report.level
        if n % 2 == 0:
            rows.append((f"max_cylinder_ratio_level_{n}", report.max_ratio, 1.25**n))
    config = {"command": "repro-rigidity-demo", "tol": 1e-10, "depth_cap": caps.conjugacy_depth_cap}
    _write_report(args, ["quantity", "value", "reference"], rows, config)
    return EXIT_OK


def _cmd_repro_all(args, caps) -> int:
    config = caps
    if args.depth_cap is not None:
        config = dataclasses.replace(caps, depth_cap=args.depth_cap, conjugacy_depth_cap=args.depth_cap)
    results = run_suite(config)
    rows = [
        (r.cid, r.title, r.measured, r.threshold, "pass" if r.passed else "FAIL", r.note)
        for r in results
    ]
    echo = {
        "command": "repro-all",
        "depth_cap": config.depth_cap,
        "conjugacy_depth_cap": config.conjugacy_depth_cap,
        "cell_cap": config.cell_cap,
        "work_cap": config.work_cap,
        "failed": sum(not r.passed for r in results),
    }
    _write_report(args, ["criterion", "title", "measured", "threshold", "status", "note"], rows, echo)
    return EXIT_OK if all(r.passed for r in results) else EXIT_CAP


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call and then reused.

    ``parse_args`` keeps no state in the parser: each call makes a fresh
    namespace, so one parser serves any number of :func:`main` calls.
    """
    parser = argparse.ArgumentParser(
        prog="circledyn",
        description="numerical workbench for degree-d circle endomorphisms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--json", action="store_true", help="emit one JSON document instead of CSV")

    p = sub.add_parser("validate", help="validate a map spec file")
    p.add_argument("--map", required=True)
    common(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("partition", help="emit one partition level as CSV")
    p.add_argument("--map", required=True)
    p.add_argument("--level", type=int, required=True)
    common(p)
    p.set_defaults(handler=_cmd_partition)

    p = sub.add_parser("conjugacy", help="evaluate the conjugacy h with h o f = g o h")
    p.add_argument("--from", dest="from_map", required=True)
    p.add_argument("--to", dest="to_map", required=True)
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--level", type=int, help="emit the endpoint table at this level instead")
    common(p)
    p.set_defaults(handler=_cmd_conjugacy)

    analyze = sub.add_parser("analyze", help="distortion and measure analyses")
    asub = analyze.add_subparsers(dest="analysis", required=True)

    def homeo_source(p):
        p.add_argument("--homeo", help="homeomorphism spec file")
        p.add_argument("--from", dest="from_map", help="conjugacy source map")
        p.add_argument("--to", dest="to_map", help="conjugacy target map")
        p.add_argument("--tol", type=float, default=1e-10, help="conjugacy enclosure tolerance")

    p = asub.add_parser("qs", help="one distortion ratio of a homeomorphism")
    homeo_source(p)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    common(p)
    p.set_defaults(handler=_cmd_analyze_qs)

    p = asub.add_parser("symmetry", help="sampled symmetry modulus over a scale ladder")
    homeo_source(p)
    p.add_argument("--grid", type=int, default=defaults.MODULUS_GRID)
    p.add_argument("--scales", help="comma-separated scales, default 2^-1..2^-20")
    common(p)
    p.set_defaults(handler=_cmd_analyze_symmetry)

    p = asub.add_parser("uqs", help="inverse-iterate distortion ratios of an endomorphism")
    p.add_argument("--map", required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(handler=_cmd_analyze_uqs)

    p = asub.add_parser("measure", help="Lebesgue-measure preservation deviations")
    p.add_argument("--map", required=True)
    p.add_argument("--intervals", default="dyadic:256", help="dyadic:N or a JSON file of [a,b] pairs")
    common(p)
    p.set_defaults(handler=_cmd_analyze_measure)

    p = asub.add_parser("phi", help="cylinder dilatation extremes of a conjugacy")
    p.add_argument("--from", dest="from_map", required=True)
    p.add_argument("--to", dest="to_map", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--coarse", type=int, help="emit per-cell maxima at this coarse level")
    common(p)
    p.set_defaults(handler=_cmd_analyze_phi)

    p = asub.add_parser("tailsum", help="tail sums of words avoiding a block")
    p.add_argument("--map", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--kmax", type=int, default=10)
    common(p)
    p.set_defaults(handler=_cmd_analyze_tailsum)

    repro = sub.add_parser("repro", help="desk-scale reproduction experiments")
    rsub = repro.add_subparsers(dest="experiment", required=True)

    p = rsub.add_parser("falpha-uqs", help="inverse distortion growth of the alpha family")
    p.add_argument("--alpha", type=float, default=0.6)
    p.add_argument("--t", type=float, default=0.2)
    p.add_argument("--n", type=int, default=20)
    common(p)
    p.set_defaults(handler=_cmd_repro_falpha)

    p = rsub.add_parser("rigidity-demo", help="identity vs distinct-pair conjugacy measurements")
    common(p)
    p.set_defaults(handler=_cmd_repro_rigidity)

    p = rsub.add_parser("all", help="run the full acceptance suite")
    p.add_argument("--depth-cap", type=int, help="override the conjugacy/inverse depth cap")
    common(p)
    p.set_defaults(handler=_cmd_repro_all)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command and return its exit code.

    ``main`` may be called repeatedly in one process.  The parser is built on
    the first call and reused; the cap environment variables are read on every
    call.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args, _caps_from_env())
    except (CircleDynError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (DepthCapExceeded, CellCapExceeded, WorkCapExceeded, ResolutionExhausted, SolverError)):
            return EXIT_CAP
        return EXIT_IO if isinstance(exc, OSError) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
