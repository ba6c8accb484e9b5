"""Desk-scale reproduction experiments, bundled for the CLI and the test suite.

Each criterion function measures one closed-form or property-based claim about
the reference maps (the piecewise-linear family, the linear map, and the
sine-perturbed smooth map) and returns a structured pass/fail row under its
claim, stated once in ``_CLAIMS``.  The ``run_suite`` bundle never raises: a
failing sub-run marks its row failed and the suite continues.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import defaults
from .analysis import (
    dyadic_intervals,
    iter_dilatation_reports,
    iter_uqs_ratios,
    measure_deviation,
    qs_ratio,
    symmetry_modulus,
    tail_sum,
)
from .circle_maps import (
    CircleMapSpec,
    homeo_lift_values,
    lift_values,
    linear_map,
    make_conjugated,
    piecewise_linear,
    sine_homeo,
    smooth_sine_map,
)
from .conjugacy import ConjugacyMap, conjugacy_residual, endpoint_table
from .symbolic_partition import (
    Word,
    bounded_geometry_constant,
    iter_levels,
    level_lengths,
)

# regression constant: measure deviation of conjugated(linear d=2, sine_homeo c=0.5)
# over 256 dyadic intervals, pinned from a 40-digit bisection oracle before the build
CONJUGATED_MEASURE_DEVIATION = 0.0039046823935966124
# the note of a row whose conjugacy enclosures stopped at the depth cap short of their tol
_UNMET = "tolerance unreachable within depth cap"


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    title: str
    measured: str
    threshold: str
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class ReproConfig:
    """Caps shared by the whole suite and every CLI command; lowering them flags affected rows."""

    conjugacy_depth_cap: int = defaults.CONJUGACY_DEPTH_CAP
    depth_cap: int = defaults.DEPTH_CAP
    cell_cap: int = defaults.CELL_CAP
    work_cap: int = defaults.WORK_CAP


# criterion id -> (title, threshold): the claim a row states, whether its
# criterion returns or raises
_CLAIMS = {
    "1": ("inverse distortion of f_0.6 at 0 grows as 1.5^n", "rel err <= 1e-10 for n=1..20, runtime < 1s"),
    "2": ("bounded-geometry constant of f_0.6 is 2.5 with two-valued ratios",
          "|C - 2.5| <= 1e-9 and ratios within 1e-9 of {1/0.6, 1/0.4}"),
    "3": ("tail sums obey (1-A)^k; linear case attains 2^-k; cover measure decays",
          "S_k <= (1-A)^k; |S_k - 2^-k| <= 1e-12; S_k < 1e-3 reached"),
    "4": ("conjugacy residual of (f_0.6 -> linear) on a 1024 grid", "residual <= 1e-6 at tol 1e-8, runtime < 10s"),
    "5": ("recovered conjugacy of conjugated(linear, sine 0.5) matches the homeo", "<= 1e-6"),
    "6": ("self-conjugacy of f_0.6 is the identity and measurably symmetric",
          "|h(x)-x| <= 1e-10 on 1024 grid; deviation <= 1e-6 for t >= 2^-10"),
    "7": ("max cylinder ratio grows as 1.25^n and h is quantifiably non-symmetric",
          "growth within 1e-9 for n<=10; ratio <= 0.25; deviation >= 0.75"),
    "8": ("property suite over 100 random piecewise-linear maps",
          "partition invariants <= 1e-10; extremes straddle 1 monotonically; measure <= 1e-12"),
    "9": ("conjugated(linear, sine 0.5) visibly breaks measure preservation",
          "> 1e-3 and within 1e-9 of the pinned oracle value"),
}


def _row(cid: str, measured: str, passed: bool, *notes: str) -> CriterionResult:
    """Criterion ``cid``'s row: its claim, what was measured, and the nonempty notes."""
    title, threshold = _CLAIMS[cid]
    return CriterionResult(cid, title, measured, threshold, passed, "; ".join(filter(None, notes)))


def _runtime_note(elapsed: float, limit: float) -> str:
    """The elapsed time, named only where it breaks its bound: a passing row prints no clock."""
    return "" if elapsed < limit else f"runtime {elapsed:.2f}s"


def _f06() -> CircleMapSpec:
    return piecewise_linear([0.6])


def criterion_1(config: ReproConfig = ReproConfig()) -> CriterionResult:
    """Non-quasisymmetry of the alpha=0.6 map: inverse distortion grows as 1.5^n."""
    start = time.perf_counter()
    f = _f06()
    worst = 0.0
    for n, ratio in enumerate(iter_uqs_ratios(f, 0.0, 0.2, 20, depth_cap=config.depth_cap), 1):
        expected = 1.5**n
        worst = max(worst, abs(ratio - expected) / expected)
    elapsed = time.perf_counter() - start
    return _row("1", f"max rel err {worst:.3e}", worst <= 1e-10 and elapsed < 1.0, _runtime_note(elapsed, 1.0))


def criterion_2(config: ReproConfig = ReproConfig()) -> CriterionResult:
    """Bounded geometry of f_0.6: constant 2.5, ratios in {1/0.6, 1/0.4}."""
    f = _f06()
    constant = bounded_geometry_constant(f, 12, cell_cap=config.cell_cap)
    allowed = np.asarray([1.0 / 0.6, 1.0 / 0.4])
    worst_off = 0.0
    prev = np.asarray([1.0])
    for lefts in iter_levels(f, 12, cell_cap=config.cell_cap):
        lengths = level_lengths(lefts)
        ratios = prev[:, None] / lengths.reshape(-1, 2)
        off = np.min(np.abs(ratios[..., None] - allowed), axis=-1)
        worst_off = max(worst_off, float(np.max(off)))
        prev = lengths
    ok = abs(constant - 2.5) <= 1e-9 and worst_off <= 1e-9
    return _row("2", f"constant {constant!r}, worst ratio offset {worst_off:.3e}", ok)


def criterion_3(config: ReproConfig = ReproConfig()) -> CriterionResult:
    """Tail sums stay under their decay bound and the cover measure decays."""
    maps = {
        "linear": linear_map(2),
        "f_0.6": _f06(),
        "smooth": smooth_sine_map(2, 0.5),
    }
    margin = 1e-12
    reports = {
        (name, word): tail_sum(
            spec, word, 10, work_cap=config.work_cap, cell_cap=config.cell_cap
        )
        for name, spec in maps.items()
        for word in (Word((0,)), Word((0, 1)))
    }
    bound_ok = not any(
        row.excluded_sum > row.bound_empirical + margin
        for report in reports.values()
        for row in report.rows
    )
    linear_report = reports["linear", Word((0,))]
    linear_err = max(
        abs(row.excluded_sum - 2.0**-row.k) for row in linear_report.rows
    )
    equality_err = max(
        abs(row.excluded_sum - row.bound_empirical) for row in linear_report.rows
    )
    decay_ok = all(
        any(row.excluded_sum < 1e-3 for row in reports[name, Word((0,))].rows)
        for name in maps
    )
    ok = bound_ok and linear_err <= 1e-12 and equality_err <= 1e-12 and decay_ok
    measured = (
        f"bounds {'ok' if bound_ok else 'VIOLATED'}, linear err {linear_err:.2e}, "
        f"decay<1e-3 {'ok' if decay_ok else 'missing'}"
    )
    return _row("3", measured, ok)


def criterion_4(config: ReproConfig = ReproConfig()) -> CriterionResult:
    """Functional equation h o f = g o h holds on a 1024 grid."""
    start = time.perf_counter()
    report = conjugacy_residual(
        _f06(), linear_map(2), 1024, tol=1e-8, depth_cap=config.conjugacy_depth_cap
    )
    elapsed = time.perf_counter() - start
    passed = report.max_residual <= 1e-6 and elapsed < 10.0 and report.tol_met_all
    measured = f"residual {report.max_residual:.3e}, width {report.max_enclosure_width:.1e}"
    return _row("4", measured, passed, "" if report.tol_met_all else _UNMET, _runtime_note(elapsed, 10.0))


def criterion_5(config: ReproConfig = ReproConfig()) -> CriterionResult:
    """The recovered conjugacy of a constructed pair matches the construction."""
    homeo = sine_homeo(0.5)
    base = linear_map(2)
    f = make_conjugated(base, homeo)
    table = endpoint_table(f, base, 10, cell_cap=config.cell_cap)
    expected = homeo_lift_values(homeo, table.f_points)
    worst = float(np.max(np.abs(table.g_points - expected)))
    return _row("5", f"max |h(e) - H(e)| = {worst:.3e} over {len(table)} level-10 endpoints", worst <= 1e-6)


def criterion_6(config: ReproConfig = ReproConfig()) -> CriterionResult:
    """Identity direction: conjugating f_0.6 to itself recovers the identity."""
    f = _f06()
    xs = np.arange(1024, dtype=float) / 1024
    h = ConjugacyMap(f, f, tol=1e-10, depth_cap=config.conjugacy_depth_cap)
    lo, hi, met = h.enclose(xs)
    met = bool(np.all(met))
    worst = float(np.max(np.abs(0.5 * (lo + hi) - xs)))
    report = symmetry_modulus(h, scales=[2.0**-j for j in range(1, 11)], grid=1024)
    modulus = report.worst()
    passed = worst <= 1e-10 and modulus <= 1e-6 and met
    return _row("6", f"max |h(x) - x| = {worst:.2e}, modulus <= {modulus:.2e}", passed, "" if met else _UNMET)


def criterion_7(config: ReproConfig = ReproConfig()) -> CriterionResult:
    """Contrapositive: distinct Lebesgue-preserving pair has non-symmetric h."""
    f = _f06()
    g = linear_map(2)
    worst_err = 0.0
    for report in iter_dilatation_reports(f, g, 10, cell_cap=config.cell_cap):
        worst_err = max(worst_err, abs(report.max_ratio - 1.25**report.level))
    h = ConjugacyMap(f, g, tol=1e-10, depth_cap=config.conjugacy_depth_cap)
    t = 0.4**3
    ratio = qs_ratio(h, 0.0, t)
    deviation = max(ratio - 1.0, 1.0 / ratio - 1.0)
    met = bool(np.all(h.enclose([t, 0.0, -t])[2]))
    passed = worst_err <= 1e-9 and ratio <= 0.25 and deviation >= 0.75 and met
    measured = f"max |ratio - 1.25^n| = {worst_err:.2e}; qs ratio {ratio:.4f}, deviation {deviation:.2f}"
    return _row("7", measured, passed, "" if met else _UNMET)


def _random_pl_pairs(count: int, seed: int = 20250808):
    """Deterministic same-degree pairs of full-branch piecewise-linear maps."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        d = int(rng.integers(2, 5))
        specs = []
        for _ in range(2):
            gaps = rng.uniform(0.1, 1.0, size=d)  # min gap >= 0.1/3.1 > 0.02 after normalizing
            cuts = np.cumsum(gaps)[:-1] / np.sum(gaps)
            specs.append(piecewise_linear(cuts))
        pairs.append((specs[0], specs[1]))
    return pairs


def criterion_8(config: ReproConfig = ReproConfig()) -> CriterionResult:
    """Partition, dilatation, and measure invariants over 100 random maps."""
    pairs = _random_pl_pairs(50)
    maps = [spec for pair in pairs for spec in pair]
    tile_tol = 1e-10
    worst_tiling = 0.0
    worst_refine = 0.0
    worst_dynamics = 0.0
    worst_measure = 0.0
    structure_ok = True
    for spec in maps:
        d = spec.degree
        level = 8
        *_, lefts_prev, lefts = iter_levels(spec, level, cell_cap=config.cell_cap)
        lengths = level_lengths(lefts)
        if not (lefts[0] == 0.0 and np.all(lengths > 0)):
            structure_ok = False
        worst_tiling = max(worst_tiling, abs(float(np.sum(lengths)) - 1.0))
        # refinement: parent endpoints are a subset of child endpoints (the
        # right end 1, shared by both levels, is left out)
        worst_refine = max(worst_refine, float(np.max(np.abs(lefts[::d] - lefts_prev))))
        # dynamics: the lift maps each left endpoint onto the shifted word's
        # endpoint; row s holds the words s w, whose shifted words w are the
        # parent level in order
        image = lift_values(spec, lefts).reshape(d, -1) - np.arange(d)[:, None]
        worst_dynamics = max(worst_dynamics, float(np.max(np.abs(image - lefts_prev))))
        worst_measure = max(
            worst_measure, measure_deviation(spec, dyadic_intervals(64))
        )
    mediant_ok = True
    for f, g in pairs:
        prev_max, prev_min = 1.0, 1.0
        for report in iter_dilatation_reports(f, g, 6, cell_cap=config.cell_cap):
            if not (report.min_ratio <= 1.0 <= report.max_ratio):
                mediant_ok = False
            if report.max_ratio < prev_max or report.min_ratio > prev_min:
                mediant_ok = False
            prev_max, prev_min = report.max_ratio, report.min_ratio
    passed = (
        structure_ok
        and mediant_ok
        and worst_tiling <= tile_tol
        and worst_refine <= tile_tol
        and worst_dynamics <= tile_tol
        and worst_measure <= 1e-12
    )
    measured = (
        f"tiling {worst_tiling:.1e}, refine {worst_refine:.1e}, dynamics {worst_dynamics:.1e}, "
        f"measure {worst_measure:.1e}, mediant {'ok' if mediant_ok else 'VIOLATED'}"
    )
    return _row("8", measured, passed)


def criterion_9(config: ReproConfig = ReproConfig()) -> CriterionResult:
    """A generic smooth conjugated map does not preserve Lebesgue measure."""
    spec = make_conjugated(linear_map(2), sine_homeo(0.5))
    dev = measure_deviation(spec, dyadic_intervals(256))
    off = abs(dev - CONJUGATED_MEASURE_DEVIATION)
    passed = dev > 1e-3 and off <= 1e-9
    return _row("9", f"deviation {dev:.12e} (pinned {CONJUGATED_MEASURE_DEVIATION:.12e})", passed)


ALL_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
)


def run_suite(config: ReproConfig = ReproConfig()) -> list[CriterionResult]:
    """Run every criterion; failures become failed rows under the same claim, never exceptions."""
    results = []
    for cid, fn in zip(_CLAIMS, ALL_CRITERIA, strict=True):
        try:
            results.append(fn(config))
        except Exception as exc:  # noqa: BLE001 - the suite must keep going
            results.append(_row(cid, "error", False, f"{type(exc).__name__}: {exc}"))
    return results


def falpha_uqs_rows(
    alpha: float, t: float, n_max: int, config: ReproConfig = ReproConfig()
) -> list[tuple[int, float, float, float]]:
    """Rows (n, measured ratio, expected (alpha/(1-alpha))^n, relative error), under ``config``'s depth cap."""
    spec = piecewise_linear([alpha])
    expected_base = alpha / (1.0 - alpha)
    rows = []
    for n, ratio in enumerate(iter_uqs_ratios(spec, 0.0, t, n_max, depth_cap=config.depth_cap), 1):
        expected = expected_base**n
        rows.append((n, ratio, expected, abs(ratio - expected) / expected))
    return rows
