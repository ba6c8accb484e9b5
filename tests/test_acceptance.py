"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail lines;
the same experiments are bundled behind ``circledyn repro all``.
"""

import json
import time

import numpy as np
import pytest

from circledyn import (
    ConjugacyMap,
    conjugacy_enclosures,
    conjugacy_residual,
    cylinder_lengths,
    dilatation_report,
    dyadic_intervals,
    endpoint_table,
    homeo_lift_values,
    level_endpoints,
    lift_values,
    linear_map,
    make_conjugated,
    measure_deviation,
    piecewise_linear,
    qs_ratio,
    sine_homeo,
    smooth_sine_map,
    symmetry_modulus,
    tail_sum,
    uqs_ratio_endo,
    Word,
)
from circledyn.repro import CONJUGATED_MEASURE_DEVIATION, _random_pl_pairs


def _report(cid: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {cid}: {detail}")
    assert passed, detail


def test_criterion_1_falpha_not_uniformly_quasisymmetric(f06):
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 21):
        ratio = uqs_ratio_endo(f06, 0.0, 0.2, n)
        worst = max(worst, abs(ratio - 1.5**n) / 1.5**n)
    elapsed = time.perf_counter() - start
    _report(
        "1",
        worst <= 1e-10 and elapsed < 1.0,
        f"inverse distortion matches 1.5^n (rel err {worst:.2e} <= 1e-10, {elapsed:.2f}s < 1s)",
    )


def test_criterion_2_bounded_geometry_of_f06(f06):
    from circledyn import bounded_geometry_constant

    constant = bounded_geometry_constant(f06, 12)
    allowed = np.asarray([1 / 0.6, 1 / 0.4])
    worst_off = 0.0
    prev = np.asarray([1.0])
    for n in range(1, 13):
        lengths = cylinder_lengths(f06, n)
        ratios = np.repeat(prev, 2) / lengths
        worst_off = max(worst_off, float(np.min(np.abs(ratios[:, None] - allowed), axis=1).max()))
        prev = lengths
    _report(
        "2",
        abs(constant - 2.5) <= 1e-9 and worst_off <= 1e-9,
        f"constant {constant:.12f} = 2.5 +- 1e-9; ratios two-valued within {worst_off:.2e}",
    )


def test_criterion_3_tail_sums(f06, lin2, smooth05):
    ok = True
    details = []
    for name, spec in (("linear", lin2), ("f06", f06), ("smooth", smooth05)):
        for word in (Word((0,)), Word((0, 1))):
            report = tail_sum(spec, word, 10)
            if not all(r.excluded_sum <= r.bound_empirical + 1e-12 for r in report.rows):
                ok = False
                details.append(f"{name}/{word} bound violated")
    linear_rows = tail_sum(lin2, Word((0,)), 10).rows
    eq_err = max(abs(r.excluded_sum - 2.0**-r.k) for r in linear_rows)
    tight = max(abs(r.excluded_sum - r.bound_empirical) for r in linear_rows)
    if eq_err > 1e-12 or tight > 1e-12:
        ok = False
        details.append(f"linear S_k != 2^-k ({eq_err:.1e})")
    for name, spec in (("linear", lin2), ("f06", f06), ("smooth", smooth05)):
        rows = tail_sum(spec, Word((0,)), 10).rows
        if not any(r.excluded_sum < 1e-3 for r in rows):
            ok = False
            details.append(f"{name} cover measure never below 1e-3")
    _report(
        "3",
        ok,
        "S_k <= (1-A)^k for 3 maps x n in {1,2}; linear attains 2^-k within 1e-12; "
        "cover measure < 1e-3 reached" + ("; ".join(details) if details else ""),
    )


def test_criterion_4_conjugacy_functional_equation(f06, lin2):
    start = time.perf_counter()
    report = conjugacy_residual(f06, lin2, 1024, tol=1e-8)
    elapsed = time.perf_counter() - start
    _report(
        "4",
        report.max_residual <= 1e-6 and elapsed < 10.0,
        f"residual {report.max_residual:.2e} <= 1e-6 on 1024 grid at tol 1e-8 ({elapsed:.2f}s < 10s)",
    )


def test_criterion_5_oracle_roundtrip(lin2):
    homeo = sine_homeo(0.5)
    f = make_conjugated(lin2, homeo)
    table = endpoint_table(f, lin2, 10)
    worst = float(np.max(np.abs(table.g_points - homeo_lift_values(homeo, table.f_points))))
    _report(
        "5",
        worst <= 1e-6,
        f"recovered conjugacy matches the constructing homeo at all {len(table)} "
        f"level-10 endpoints (max err {worst:.2e} <= 1e-6)",
    )


def test_criterion_6_identity_rigidity_smoke(f06):
    xs = np.arange(1024, dtype=float) / 1024
    lo, hi, _, met = conjugacy_enclosures(f06, f06, xs, tol=1e-10)
    worst = float(np.max(np.abs(0.5 * (lo + hi) - xs)))
    h = ConjugacyMap(f06, f06, tol=1e-10)
    modulus = symmetry_modulus(h, scales=[2.0**-j for j in range(1, 11)], grid=1024).worst()
    _report(
        "6",
        worst <= 1e-10 and modulus <= 1e-6 and bool(np.all(met)),
        f"self-conjugacy: max |h(x)-x| = {worst:.2e} <= 1e-10; "
        f"symmetry deviation {modulus:.2e} <= 1e-6 for t >= 2^-10",
    )


def test_criterion_7_rigidity_contrapositive(f06, lin2):
    worst = 0.0
    for n in range(1, 11):
        report = dilatation_report(f06, lin2, n)
        worst = max(worst, abs(report.max_ratio - 1.25**n))
    h = ConjugacyMap(f06, lin2, tol=1e-10)
    ratio = qs_ratio(h, 0.0, 0.4**3)
    deviation = max(ratio - 1.0, 1.0 / ratio - 1.0)
    _report(
        "7",
        worst <= 1e-9 and ratio <= 0.25 and deviation >= 0.75,
        f"max cylinder ratio = 1.25^n within {worst:.2e} (h not Lipschitz); "
        f"qs ratio {ratio:.4f} <= 0.25 so symmetry deviation {deviation:.2f} >= 0.75",
    )


def test_criterion_8_property_suite():
    pairs = _random_pl_pairs(50)
    maps = [spec for pair in pairs for spec in pair]
    assert len(maps) == 100
    worst_structural = 0.0
    worst_measure = 0.0
    for spec in maps:
        d = spec.degree
        assert min(np.diff(np.concatenate([[0.0], spec.cuts, [1.0]]))) >= 0.02
        ends_prev = level_endpoints(spec, 7)
        ends = level_endpoints(spec, 8)
        assert ends[0] == 0.0 and ends[-1] == 1.0 and np.all(np.diff(ends) > 0)
        worst_structural = max(worst_structural, abs(float(np.sum(np.diff(ends))) - 1.0))
        worst_structural = max(worst_structural, float(np.max(np.abs(ends[::d] - ends_prev))))
        idx = np.arange(d**8)
        image = lift_values(spec, ends[:-1]) - idx // d**7
        worst_structural = max(
            worst_structural, float(np.max(np.abs(image - ends_prev[:-1][idx % d**7])))
        )
        worst_measure = max(worst_measure, measure_deviation(spec, dyadic_intervals(64)))
    mediant_ok = True
    for f, g in pairs:
        prev_max, prev_min = 1.0, 1.0
        for n in range(1, 7):
            rep = dilatation_report(f, g, n)
            mediant_ok &= rep.min_ratio <= 1.0 <= rep.max_ratio
            mediant_ok &= rep.max_ratio >= prev_max and rep.min_ratio <= prev_min
            prev_max, prev_min = rep.max_ratio, rep.min_ratio
    _report(
        "8",
        worst_structural <= 1e-10 and bool(mediant_ok) and worst_measure <= 1e-12,
        f"100 random maps: partition invariants within {worst_structural:.2e} <= 1e-10; "
        f"extremes straddle 1 monotonically: {mediant_ok}; measure dev {worst_measure:.2e} <= 1e-12",
    )


def test_criterion_9_measure_check_discrimination(conj_smooth):
    dev = measure_deviation(conj_smooth, dyadic_intervals(256))
    _report(
        "9",
        dev > 1e-3 and abs(dev - CONJUGATED_MEASURE_DEVIATION) <= 1e-9,
        f"smooth conjugated map deviation {dev:.6e} > 1e-3, matches pinned oracle "
        f"{CONJUGATED_MEASURE_DEVIATION:.6e} within 1e-9",
    )


class TestReproBundle:
    """The CLI bundle reports the same outcomes and flags lowered caps."""

    def test_repro_all_passes(self, capsys, tmp_path):
        from circledyn.cli import main

        out = tmp_path / "suite.json"
        code = main(["repro", "all", "--json", "--out", str(out)])
        doc = json.loads(out.read_text())
        statuses = {row[0]: row[4] for row in doc["rows"]}
        assert code == 0
        assert len(statuses) == 9
        assert all(s == "pass" for s in statuses.values())

    def test_repro_all_with_small_depth_cap_flags_rows(self, tmp_path):
        from circledyn.cli import main

        out = tmp_path / "suite.json"
        code = main(["repro", "all", "--depth-cap", "4", "--json", "--out", str(out)])
        assert code == 2
        doc = json.loads(out.read_text())
        statuses = {row[0]: row[4] for row in doc["rows"]}
        assert statuses["4"] == "FAIL"  # tolerance unreachable at depth 4
        assert statuses["6"] == "FAIL"
        assert statuses["9"] == "pass"  # unaffected rows still run
        # an erroring row still states its criterion's claim
        cid, title, measured, threshold, status, note = doc["rows"][0]
        assert (cid, title, measured, status) == ("1", "inverse distortion of f_0.6 at 0 grows as 1.5^n", "error", "FAIL")
        assert threshold == "rel err <= 1e-10 for n=1..20, runtime < 1s"
        assert note == "DepthCapExceeded: inverse depth 5 exceeds cap 4"

    def test_every_failing_row_names_its_cause_under_low_depth_caps(self):
        from circledyn.repro import ReproConfig, run_suite

        rows = run_suite(ReproConfig(conjugacy_depth_cap=4, depth_cap=4))
        failing = [row for row in rows if not row.passed]
        assert {row.cid for row in failing} == {"1", "4", "6", "7"}
        assert all(row.note for row in failing), [(row.cid, row.note) for row in failing]
        # criterion 7's qs ratio reads h at depth 4, far wider than its tol
        assert rows[6].note == "tolerance unreachable within depth cap"
        assert rows[6].measured.endswith("qs ratio 0.3333, deviation 2.00")

    def test_repro_all_reruns_write_the_same_bytes(self, tmp_path):
        from circledyn.cli import main

        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert main(["repro", "all", "--out", str(first)]) == 0
        assert main(["repro", "all", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_a_raising_criterion_keeps_its_claim(self, monkeypatch):
        from circledyn import repro

        passing = repro.run_suite()

        def raises(config):
            raise RuntimeError("forced")

        monkeypatch.setattr(repro, "ALL_CRITERIA", (raises,) * len(repro.ALL_CRITERIA))
        erroring = repro.run_suite()
        assert len(erroring) == len(passing) == 9
        for row, want in zip(erroring, passing):
            assert (row.cid, row.title, row.threshold) == (want.cid, want.title, want.threshold)
            assert (row.measured, row.passed, row.note) == ("error", False, "RuntimeError: forced")

    def test_a_row_over_its_runtime_bound_names_the_time_in_its_note(self, monkeypatch):
        # every clock reading is 20 s after the last, so each timed criterion
        # takes 20 s: over both bounds, with the measurement itself intact
        from types import SimpleNamespace

        from circledyn import repro

        fast = [repro.criterion_1(), repro.criterion_4()]
        clock = iter(range(0, 1000, 20))
        monkeypatch.setattr(repro, "time", SimpleNamespace(perf_counter=lambda: float(next(clock))))
        slow = [repro.criterion_1(), repro.criterion_4()]
        for row, want in zip(slow, fast):
            assert want.passed and want.note == "" and not want.measured.endswith("s")
            assert (row.measured, row.passed, row.note) == (want.measured, False, "runtime 20.00s")
