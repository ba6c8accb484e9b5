"""Lift evaluation, branch inversion, validation, and spec ingestion."""

import inspect
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from circledyn import (
    CircleHomeoSpec,
    CircleMapSpec,
    DepthCapExceeded,
    InvalidMapError,
    SolverError,
    SpecFormatError,
    compose_homeos,
    eval_lift,
    global_inverse_lift,
    homeo_eval,
    homeo_inverse_values,
    homeo_lift_values,
    identity_homeo,
    inverse_branch,
    inverse_branch_values,
    linear_map,
    make_conjugated,
    map_spec_from_json,
    map_spec_to_dict,
    map_spec_from_dict,
    piecewise_linear,
    sine_homeo,
    smooth_sine_map,
    validate,
    validate_homeo,
)
from circledyn import circle_maps, defaults
from _oracles import (
    _sine_family_bracket as earlier_bracket,
    _solve_sine_family as earlier_solve,
    bisect_root,
    conjugated_inverse_branch,
    grid_monotone_failure,
    mp_sine_family_newton_root,
    mp_sine_family_root,
    pl_lift,
    reference_chain_error_bound,
    reference_sine_family_solve,
    sine_homeo_lift,
    smooth_lift,
)

TOL = defaults.SOLVER_TOL
UNIT_YS = np.linspace(0.0, 1.0, 33)


class TestEvalLift:
    def test_linear(self, lin2):
        assert eval_lift(lin2, 0.3) == pytest.approx(0.6, abs=1e-15)

    def test_piecewise_linear_upper_branch(self, f06):
        # direct substitution: 1 + (0.8 - 0.6) / 0.4
        assert eval_lift(f06, 0.8) == pytest.approx(1.5, abs=1e-15)

    def test_smooth_fixes_zero(self, smooth05):
        assert eval_lift(smooth05, 0.0) == 0.0

    def test_matches_direct_formula(self, f06):
        for x in np.linspace(-2.0, 3.0, 41):
            assert eval_lift(f06, float(x)) == pytest.approx(
                pl_lift([0.6], float(x)), abs=1e-12
            )

    def test_periodicity_exact(self, f06, smooth05):
        for spec, d in ((f06, 2), (smooth05, 2)):
            for x in np.linspace(0.0, 1.0, 37, endpoint=False):
                assert eval_lift(spec, float(x) + 1.0) - eval_lift(spec, float(x)) == (
                    pytest.approx(d, abs=1e-12)
                )

    def test_endpoints(self, f06):
        assert eval_lift(f06, 0.0) == 0.0
        assert eval_lift(f06, 1.0) == 2.0

    @pytest.mark.parametrize(
        "cuts",
        [[0.6], [0.2, 0.7], [1.5e-9, 0.5], [0.1, 0.35, 0.5, 0.9], [0.05, 0.3, 0.31, 0.6, 0.99]],
    )
    def test_pl_lift_equals_two_gather_formula_bitwise(self, cuts):
        # the lift gathers one cached width per point; the values must be
        # those of gathering both branch ends and subtracting per point
        spec = piecewise_linear(cuts)
        ext = np.concatenate(([0.0], cuts, [1.0]))
        rng = np.random.default_rng(len(cuts))
        xs = np.concatenate((rng.uniform(-3.0, 3.0, 4001), ext, ext - 1.0, np.nextafter(ext, 2.0)))
        k = np.floor(xs)
        u = xs - k
        idx = np.searchsorted(ext[1:-1], u, side="right")
        want = idx + (u - ext[idx]) / (ext[idx + 1] - ext[idx]) + k * spec.degree
        got = circle_maps.lift_values(spec, xs)
        assert got.tobytes() == want.tobytes()
        assert [eval_lift(spec, float(x)) for x in xs[:50]] == want[:50].tolist()
        table = circle_maps._pl_table(spec.cuts)
        assert not any(part.flags.writeable for part in table)
        assert table is circle_maps._pl_table(spec.cuts)
        assert table[1].tobytes() == np.diff(ext).tobytes()

    def test_rejects_invalid_spec(self):
        bad = smooth_sine_map(2, 2.5)
        with pytest.raises(InvalidMapError):
            eval_lift(bad, 0.3)


class TestInverseBranch:
    def test_linear_branch1(self, lin2):
        assert inverse_branch(lin2, 1, 0.5) == pytest.approx(0.75, abs=1e-15)

    def test_pl_closed_form_vs_bisection_oracle(self, f06):
        got = inverse_branch(f06, 0, 0.6)
        assert got == pytest.approx(0.36, abs=1e-15)
        oracle = bisect_root(lambda x: pl_lift([0.6], x), 0.0, 0.6, 0.6)
        assert got == pytest.approx(oracle, abs=1e-12)

    def test_smooth_fixed_point(self, smooth05):
        assert inverse_branch(smooth05, 0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_smooth_roundtrip(self, smooth05):
        for branch in (0, 1):
            for y in np.linspace(0.0, 1.0, 17):
                x = inverse_branch(smooth05, branch, float(y))
                assert eval_lift(smooth05, x) == pytest.approx(y + branch, abs=1e-11)

    def test_cut_belongs_to_both_branches(self, f06):
        # the explicit branch index resolves the tie, never the point
        assert inverse_branch(f06, 0, 1.0) == pytest.approx(0.6, abs=1e-15)
        assert inverse_branch(f06, 1, 0.0) == pytest.approx(0.6, abs=1e-15)

    def test_branch_out_of_range(self, f06):
        with pytest.raises(ValueError):
            inverse_branch(f06, 2, 0.5)

    @pytest.mark.parametrize("branch, y", [(0, 1.5), (1, -0.25)])
    def test_target_outside_unit_interval(self, f06, branch, y):
        with pytest.raises(ValueError, match=f"^{re.escape(f'y={y!r} outside [0,1]')}$"):
            inverse_branch(f06, branch, y)


class TestRootSolver:
    def test_smooth_sine_matches_oracle(self, smooth05):
        for branch in (0, 1):
            got = inverse_branch_values(smooth05, branch, UNIT_YS)
            want = [
                bisect_root(lambda x: smooth_lift(2, 0.5, x), 0.0, 1.0, branch + y)
                for y in UNIT_YS
            ]
            assert np.max(np.abs(got - want)) <= TOL

    @pytest.mark.parametrize("c", [0.5, 0.999])
    def test_sine_homeo_matches_oracle(self, c):
        got = homeo_inverse_values(sine_homeo(c), UNIT_YS)
        want = [bisect_root(lambda u: sine_homeo_lift(c, u), 0.0, 1.0, y) for y in UNIT_YS]
        assert np.max(np.abs(got - want)) <= TOL

    def test_conjugated_matches_oracle(self, conj_smooth):
        for branch in (0, 1):
            got = inverse_branch_values(conj_smooth, branch, UNIT_YS)
            want = [conjugated_inverse_branch(0.5, branch, y) for y in UNIT_YS]
            assert np.max(np.abs(got - want)) <= TOL

    def test_exact_end_hits(self, smooth05, conj_smooth):
        assert inverse_branch_values(smooth05, 0, 0.0) == 0.0
        assert inverse_branch_values(conj_smooth, 0, 0.0) == 0.0
        assert inverse_branch_values(conj_smooth, 1, 1.0) == 1.0

    def test_element_alone_matches_batch_bitwise(self, smooth05, conj_smooth):
        # a batch over more than one solver block, against single targets;
        # targets near the flat spots take more Newton steps than the rest
        block = circle_maps._SOLVER_BLOCK
        ys = np.random.default_rng(3).random(block + 100)
        ys[:50] = 0.5 + np.logspace(-14, -1, 50)  # flat spot of c > 0
        ys[50:100] = np.logspace(-14, -1, 50)  # flat spot of c < 0, and of epsilon > 0 on branch 1
        solves = [
            lambda y, spec=spec: inverse_branch_values(spec, 1, y)
            for spec in (smooth05, conj_smooth, smooth_sine_map(2, 1.998))
        ] + [lambda y, c=c: homeo_inverse_values(sine_homeo(c), y) for c in (0.5, -0.999)]
        for solve in solves:
            batch = solve(ys)
            for i in (*range(0, 100, 7), block - 1, block, block + 99):
                alone = solve(ys[i : i + 1])
                assert alone[0] == batch[i], i

    def test_non_finite_target_rejected(self, smooth05):
        with pytest.raises(SolverError, match="non-finite"):
            inverse_branch_values(smooth05, 0, [math.nan])


# (D, a) of x -> D*x + a*sin(2*pi*x)/(2*pi): smooth_sine has D = degree and
# a = epsilon, sine_homeo has D = 1 and a = c; the |a| = 0.999*D rows are
# near-degenerate (slope floor 0.001*D)
SINE_FAMILY = [(2, 0.5), (2, 1.998), (2, -1.998), (3, 1.2), (1, 0.5), (1, 0.999), (1, -0.999), (1, 0.0)]


def _sine_family_targets(D):
    rng = np.random.default_rng(17 + D)
    return np.concatenate([rng.random(24) * D, np.arange(D + 1.0), [0.5 * D, 1e-300, D - 1e-15]])


def _flat_spot_targets(D, a):
    """Targets clustered around the image of the flat spot (x = 1/2 for a > 0, x = 0 for a < 0)."""
    flat = D / 2 if a > 0 else 0.0
    offsets = np.logspace(-14, -1, 50)
    return np.clip(flat + np.concatenate([-offsets, offsets]), 0.0, D)


def _count_solver_evaluations(monkeypatch):
    """Patch the solver so every point it evaluates the family at after the
    seed is counted: the extra Newton steps and the finishing passes call
    ``_sine_family``, while the seed's one residual per target is written
    out in the bracket.  Build the inverse table first: it calls
    ``_sine_family`` too."""
    counter = {"points": 0}
    family, solve = circle_maps._sine_family, circle_maps._solve_sine_family
    solving = []

    def counted_family(D, a, x):
        if solving:
            counter["points"] += np.size(x)
        return family(D, a, x)

    def counted_solve(*args):
        solving.append(True)
        try:
            return solve(*args)
        finally:
            solving.pop()

    monkeypatch.setattr(circle_maps, "_sine_family", counted_family)
    monkeypatch.setattr(circle_maps, "_solve_sine_family", counted_solve)
    return counter


def _count_numpy_points(monkeypatch, *names):
    """Patch ``circle_maps.np`` so the points passed to each of ``names`` are counted."""
    counter = {"points": 0}

    class CountedNumpy:
        def __getattr__(self, name):
            fn = getattr(np, name)
            if name not in names:
                return fn

            def counted(x, *args, **kwargs):
                counter["points"] += np.size(x)
                return fn(x, *args, **kwargs)

            return counted

    monkeypatch.setattr(circle_maps, "np", CountedNumpy())
    return counter


class TestSeedBracket:
    @pytest.mark.parametrize("D, a", SINE_FAMILY)
    def test_bracket_contains_mp_root(self, D, a):
        targets = _sine_family_targets(D)
        lo, hi = circle_maps._sine_family_bracket(D, a, targets, TOL)
        assert np.all((0.0 <= lo) & (lo <= hi) & (hi <= 1.0))
        for t, left, right in zip(targets, lo, hi):
            root = mp_sine_family_root(D, a, float(t))
            assert left <= root <= right, (t, left, right)

    @pytest.mark.parametrize("D, a", SINE_FAMILY)
    def test_bracket_ends_straddle_target(self, D, a):
        # computed f is below the target at an unclipped left end and above it
        # at an unclipped right end, so the solver starts from a true bracket
        targets = _sine_family_targets(D)
        lo, hi = circle_maps._sine_family_bracket(D, a, targets, TOL)
        f_lo, f_hi = (D * x + a * np.sin(2 * np.pi * x) / (2 * np.pi) for x in (lo, hi))
        assert np.all((f_lo < targets) | (lo == 0.0))
        assert np.all((f_hi > targets) | (hi == 1.0))

    @pytest.mark.parametrize("D, a", SINE_FAMILY)
    def test_solved_roots_match_mp_root(self, D, a):
        spec = smooth_sine_map(D, a) if D > 1 else sine_homeo(a)
        targets = _sine_family_targets(D)
        # branch 0 with y = t solves F(x) = t for any t in [0, D]
        got = inverse_branch_values(spec, 0, targets) if D > 1 else homeo_inverse_values(spec, targets)
        # the solver is within TOL/2 of a root of the computed f; rounding in
        # f moves that root by up to a few ulps over the slope floor
        rounding = 8 * np.finfo(float).eps * (D + abs(a)) / (D - abs(a))
        for t, x in zip(targets, got):
            assert abs(x - float(mp_sine_family_root(D, a, float(t)))) <= TOL / 2 + rounding

    @pytest.mark.parametrize(
        "spec",
        [
            smooth_sine_map(2, 0.5),
            smooth_sine_map(3, 2.997),
            smooth_sine_map(3, -2.997),
            make_conjugated(linear_map(2), sine_homeo(0.5)),
            make_conjugated(linear_map(3), sine_homeo(-0.999)),
            make_conjugated(
                smooth_sine_map(2, 1.998), compose_homeos([sine_homeo(0.999), sine_homeo(-0.4)])
            ),
        ],
        ids=lambda spec: spec.describe(),
    )
    def test_end_hits_and_shared_endpoints_exact(self, spec):
        d = spec.degree
        assert inverse_branch_values(spec, 0, 0.0) == 0.0
        assert inverse_branch_values(spec, d - 1, 1.0) == 1.0
        for s in range(d - 1):
            assert inverse_branch_values(spec, s, 1.0) == inverse_branch_values(spec, s + 1, 0.0)

    @pytest.mark.parametrize("c", [0.5, 0.999, -0.999])
    def test_homeo_inverse_fixes_unit_ends(self, c):
        assert homeo_inverse_values(sine_homeo(c), np.array([0.0, 1.0, 2.0])).tolist() == [0.0, 1.0, 2.0]

    @pytest.mark.parametrize(
        "spec",
        [smooth_sine_map(2, 0.5), make_conjugated(linear_map(2), sine_homeo(0.5))],
        ids=lambda spec: spec.describe(),
    )
    def test_evaluations_per_root(self, spec, monkeypatch):
        # starting every solve from [0, 1] took 8.7 (smooth_sine) and 9.5
        # (conjugated) solver evaluations per root, and evaluating the seeded
        # bracket's ends took 2; a certified bracket now takes none
        ys = np.linspace(0.0, 1.0, 1001)
        inverse_branch_values(spec, 0, ys)  # the inverse table is built once per (D, a)
        counter = _count_solver_evaluations(monkeypatch)
        for branch in (0, 1):
            inverse_branch_values(spec, branch, ys)
        assert counter["points"] == 0

    @pytest.mark.parametrize(
        "spec, per_root",
        [(smooth_sine_map(2, 0.5), 2), (make_conjugated(linear_map(2), sine_homeo(0.5)), 3)],
        ids=lambda value: value.describe() if hasattr(value, "describe") else str(value),
    )
    def test_trig_evaluations_per_root(self, spec, per_root, monkeypatch):
        # one sine gives the table guess's residual and one cosine its
        # certified Newton step; the conjugated map also evaluates H once
        # per target
        ys = np.linspace(0.0, 1.0, 1001)
        inverse_branch_values(spec, 0, ys)  # the inverse table is built once per (D, a)
        counter = _count_numpy_points(monkeypatch, "sin", "cos")
        for branch in (0, 1):
            inverse_branch_values(spec, branch, ys)
        assert counter["points"] <= per_root * 2 * ys.size

    @pytest.mark.parametrize("D, a", [(D, a) for D, a in SINE_FAMILY if abs(a) < 0.9 * D])
    def test_seed_evaluates_the_family_once_per_target(self, D, a, monkeypatch):
        # the table guess's residual is the only sine: its Newton step is
        # certified by the a-priori bound, not by a second residual
        targets = _sine_family_targets(D)
        circle_maps._sine_family_inverse_table(D, a)  # built once per (D, a), not per target
        counter = _count_numpy_points(monkeypatch, "sin")
        circle_maps._sine_family_bracket(D, a, targets, TOL)
        assert counter["points"] <= targets.size

    def test_table_cache_stays_bounded(self):
        bound = circle_maps._sine_family_inverse_table.cache_info().maxsize
        assert bound <= 16
        for k in range(100):
            circle_maps._sine_family_bracket(2, 0.5 + k * 1e-3, np.array([1.0]), TOL)
        assert circle_maps._sine_family_inverse_table.cache_info().currsize <= bound

    @pytest.mark.parametrize(
        "D, a, widest, evaluations",
        [
            (2, 1.998, 2.0e-4, 5.5),
            (2, -1.998, 2.0e-4, 5.1),
            (5, -4.9, 4e-13, 4.9),
            (1, 0.999, 2.4e-4, 5.4),
            (1, -0.999, 2.4e-4, 5.1),
            (2, 2.0 - 1.2e-9, 1.0, 10.3),
        ],
    )
    def test_near_degenerate_seed(self, D, a, widest, evaluations, monkeypatch):
        # |a| close to D: the certified seed stays narrow even at the flat
        # spot, and the solver needs few evaluations per root after the seed,
        # Newton steps and finishing passes together.  The general solver
        # that finished these brackets before certified bisection took 8.4,
        # 7.5, 7.5, 8.4, 7.5 and 15.8, counted the same way
        rng = np.random.default_rng(5)
        targets = np.concatenate([np.linspace(0.0, D, 201), rng.random(100) * D, _flat_spot_targets(D, a)])
        lo, hi = circle_maps._sine_family_bracket(D, a, targets, TOL)
        assert np.max(hi - lo) <= widest
        counter = _count_solver_evaluations(monkeypatch)
        if D > 1:
            inverse_branch_values(smooth_sine_map(D, a), 0, targets)
        else:
            homeo_inverse_values(sine_homeo(a), targets)
        assert counter["points"] <= evaluations * targets.size


# the benchmark's parameter bands (perfbench/workloads.py) at both ends and
# both signs: EPS_RANGE of smooth_sine for d = 2 and d = 3, then SINE_C and
# COMPOSE_C of sine_homeo
BENCH_BANDS = [
    (D, sign * size)
    for D, band in ((2, (0.25, 0.3)), (3, (0.8, 0.9)), (1, (0.35, 0.4)), (1, (0.2, 0.25)))
    for size in band
    for sign in (1.0, -1.0)
]
CERTIFIED_FAMILY = SINE_FAMILY + BENCH_BANDS
NON_DEGENERATE = [(D, a) for D, a in CERTIFIED_FAMILY if abs(a) < 0.9 * D]
UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _certificate_targets(D, a):
    """Random targets, the integers, flat-spot targets, and targets whose
    table guess is a table node (``pos`` an integer)."""
    nodes = np.arange(0, circle_maps._SEED_NODES + 1, 256) * (D / circle_maps._SEED_NODES)
    return np.concatenate([
        np.random.default_rng(41 + D).random(40) * D,
        np.arange(D + 1.0),
        _flat_spot_targets(D, a)[::5],
        nodes,
    ])


def _documented_radius(D, a, r0):
    """The documented Newton radius r1 for the computed residual r0, from its
    terms in 60-digit arithmetic."""
    import mpmath

    with mpmath.workdps(60):
        u, D, a, r0 = mpmath.mpf(UNIT_ROUNDOFF), mpmath.mpf(D), abs(mpmath.mpf(a)), abs(mpmath.mpf(r0))
        m, M = D - a, 2 * mpmath.pi * a
        pad, ds = 16 * u * (D + a), u * (D + 24 * a)
        e0 = (r0 + pad) / m
        return (ds * e0 + M / 2 * e0**2 + pad) / (m - ds) + u * r0 / (m - ds) + u


class TestNewtonCertificate:
    """One sine per root: the table guess's Newton step is certified a priori."""

    @pytest.mark.parametrize("tol", [1e-13, 1e-10, 1e-6])
    @pytest.mark.parametrize("D, a", CERTIFIED_FAMILY)
    def test_brackets_contain_mp_root(self, D, a, tol):
        targets = _certificate_targets(D, a)
        lo, hi = circle_maps._sine_family_bracket(D, a, targets, tol)
        assert np.all((0.0 <= lo) & (lo <= hi) & (hi <= 1.0))
        # Newton at 60 digits from a start within 1e-13 of the root
        starts = circle_maps._solve_sine_family(D, a, targets, 1e-13)
        for t, left, right, start in zip(targets, lo, hi, starts):
            root = mp_sine_family_newton_root(D, a, float(t), float(start))
            assert left <= root <= right, (t, left, right)

    def test_slope_floor_below_slope_error_falls_back(self):
        # a valid spec whose floor D - |a| is below ds: no a-priori radius
        # exists, so every element falls back to the residual radius
        D, a = 2, 2.0 - 4e-16
        assert validate(smooth_sine_map(D, a)).ok
        targets = np.array([0.3, 1.0, 1.7])
        lo, hi = circle_maps._sine_family_bracket(D, a, targets, TOL)
        for t, left, right in zip(targets, lo, hi):
            assert 0.0 <= left <= float(mp_sine_family_root(D, a, float(t))) <= right <= 1.0

    @pytest.mark.parametrize("D, a", NON_DEGENERATE)
    def test_one_sine_and_one_cosine_per_root(self, D, a, monkeypatch):
        targets = _certificate_targets(D, a)
        circle_maps._sine_family_inverse_table(D, a)  # built once per (D, a), not per target
        for name in ("sin", "cos"):
            counter = _count_numpy_points(monkeypatch, name)
            circle_maps._solve_sine_family(D, a, targets, TOL)
            assert counter["points"] == targets.size, name
            monkeypatch.undo()

    @pytest.mark.parametrize("D, a", CERTIFIED_FAMILY)
    def test_rounding_premises_hold(self, D, a):
        # the residual's rounding is at most a quarter of pad, and the
        # computed slope D + a*cos(2*pi*x) is within ds of f'(x)
        import mpmath

        rng = np.random.default_rng(43 + D)
        xs = np.concatenate([rng.random(150), [0.0, 0.25, 0.5, 0.75, 1.0], np.nextafter([0.25, 0.5, 0.75, 1.0], 0.0)])
        targets = np.clip(xs * D + rng.normal(0.0, 1e-6, xs.size), 0.0, D)
        residual = circle_maps._sine_family(D, a, xs) - targets
        slope = D + a * np.cos(2.0 * math.pi * xs)
        u, size = UNIT_ROUNDOFF, D + abs(a)
        with mpmath.workdps(60):
            two_pi, p = 2 * mpmath.pi, mpmath.mpf(a)
            for x, t, r, s in zip(xs, targets, residual, slope):
                x = mpmath.mpf(float(x))
                exact_r = D * x + p * mpmath.sin(two_pi * x) / two_pi - mpmath.mpf(float(t))
                assert abs(mpmath.mpf(float(r)) - exact_r) <= 4 * u * size, (x, t)
                exact_s = D + p * mpmath.cos(two_pi * x)
                assert abs(mpmath.mpf(float(s)) - exact_s) <= u * (D + 24 * abs(a)), x

    @pytest.mark.parametrize("D, a", CERTIFIED_FAMILY)
    def test_radius_is_the_documented_bound_rounded_up(self, D, a, monkeypatch):
        # a constant inverse table makes the guess x0 whatever the test
        # chooses, from 1e-10 to 1e-2 off the root.  With tol/2 just below the
        # documented r1 the step must not certify itself (the fallback adds a
        # second sine); with tol/2 a few ulps above it, it must
        rng = np.random.default_rng(47 + D)
        targets = rng.random(6) * D
        roots = circle_maps._solve_sine_family(D, a, targets, TOL)
        offsets = np.concatenate([-np.logspace(-10, -2, 9), np.logspace(-10, -2, 9)])
        nodes = circle_maps._SEED_NODES + 1
        for t, root in zip(targets, roots):
            for x0 in np.clip(root + offsets, 0.0, 1.0):
                target = np.array([t])
                r0 = float((circle_maps._sine_family(D, a, np.array([x0])) - target)[0])
                bound = _documented_radius(D, a, r0)
                below = float(bound)
                below = below if below < bound else math.nextafter(below, 0.0)
                for half_tol, certified in ((below, False), (float(bound * (1 + 64 * UNIT_ROUNDOFF)), True)):
                    monkeypatch.setattr(circle_maps, "_sine_family_inverse_table", lambda *_: np.full(nodes, x0))
                    counter = _count_numpy_points(monkeypatch, "sin")
                    circle_maps._sine_family_bracket(D, a, target, 2.0 * half_tol)
                    monkeypatch.undo()
                    assert (counter["points"] == 1) == certified, (t, x0, half_tol)


class TestSolverTol:
    """A solver tol that is not a finite number > 0 fails before any work."""

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejected_at_every_entry(self, tol, monkeypatch):
        # every root solve enters here, and no public function takes a tol
        def no_bracket(*args):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(circle_maps, "_sine_family_bracket", no_bracket)
        with pytest.raises(ValueError, match=re.escape(f"tol must be a finite number > 0, got {tol!r}")):
            circle_maps._solve_sine_family(2, 0.5, [0.3, 1.1], tol)

    def test_no_public_function_takes_one(self):
        # SOLVER_TOL is the solver's constant, read where a solve needs it
        import circledyn
        from circledyn import symbolic_partition as sp

        public = [getattr(circledyn, name) for name in circledyn.__all__]
        checked = [
            fn for fn in public if callable(fn) and not (isinstance(fn, type) and issubclass(fn, BaseException))
        ] + [sp.chain_values, sp.ragged_chain_values, sp.refine_words, sp.itinerary_batch, sp.level_left_endpoints,
             circle_maps.chain_error_bound]
        assert len(checked) > 60
        for fn in checked:
            for param in inspect.signature(fn).parameters.values():
                assert param.name != "solver_tol", fn
                default = param.default
                assert not (isinstance(default, float) and default == defaults.SOLVER_TOL), (fn, param.name)


class TestDefaultsTable:
    """Each knob of ``defaults`` is documented and read: a constant left
    without a user, or a row left after its constant, fails here."""

    def test_every_constant_has_a_row_and_a_reader(self):
        constants = {name for name in vars(defaults) if name.isupper()}
        rows = set(re.findall(r"^([A-Z][A-Z0-9_]*) {2,}\S", defaults.__doc__, re.MULTILINE))
        assert rows == constants
        package = Path(defaults.__file__).parent
        sources = [path.read_text() for path in package.glob("*.py") if path.name != "defaults.py"]
        for name in constants:
            assert any(re.search(rf"\bdefaults\.{name}\b", text) for text in sources), name


def _family_fn(D, a):
    """The lift of the family member (D, a), as its map kind evaluates it."""
    if D > 1:
        spec = smooth_sine_map(D, a)
        return lambda u: circle_maps._unit_lift(spec, u)
    return lambda u: homeo_lift_values(sine_homeo(a), u)


def _oracle_targets(D, a):
    """Random targets, both ends, the integers and their float neighbours,
    targets within the range slack outside [0, D], and flat-spot targets."""
    ints = np.arange(D + 1.0)
    return np.concatenate([
        np.random.default_rng(29 + D).random(200) * D,
        ints,
        np.nextafter(ints, -np.inf)[1:],
        np.nextafter(ints, np.inf)[:-1],
        [-5e-10, -1e-300, 5e-324, D + 5e-10, 0.5 * D],
        _flat_spot_targets(D, a),
    ])


# SINE_FAMILY and flatter members, down to a slope floor D - |a| of 4.4e-16,
# whose brackets near the flat spot stay wider than tol at any tol
BOUND_ROWS = SINE_FAMILY + [
    (5, -4.9),
    (3, 2.997),
    (2, 2.0 - 1.2e-9),
    (2, -(2.0 - 1.2e-9)),
    (1, -(1.0 - 1.2e-9)),
    (2, 2.0 - 4e-16),
]


def _same_bits(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _assert_within_bound(D, a, targets, roots, tol, sample=None):
    """Each root lies within the documented bound, ``_root_error`` plus a
    unit roundoff, of the exact root of its target clipped to [0, D]: the
    family is increasing, so ``f(x - bound) <= t <= f(x + bound)`` in
    60-digit arithmetic.  ``sample`` limits the check to that many elements,
    spread evenly."""
    import mpmath

    targets, roots = np.ravel(targets), np.ravel(roots)
    if sample is not None and targets.size > sample:
        pick = np.linspace(0, targets.size - 1, sample).astype(int)
        targets, roots = targets[pick], roots[pick]
    bound = circle_maps._root_error(D, a, tol) + UNIT_ROUNDOFF
    with mpmath.workdps(60):
        two_pi, p, reach = 2 * mpmath.pi, mpmath.mpf(a), mpmath.mpf(bound)

        def f(x):
            return D * x + p * mpmath.sin(two_pi * x) / two_pi

        for t, x in zip(targets.tolist(), roots.tolist()):
            assert f(x - reach) <= min(max(t, 0.0), D) <= f(x + reach), (t, x, bound)


def _assert_earlier_bits_or_bound(D, a, targets, tol, got, want, sample=None):
    """``got`` equals the earlier kernel's ``want`` bit for bit wherever the
    certified bracket is at most ``tol`` wide or the target is an end hit;
    the wider brackets, which the earlier kernel finished by its general
    solver, lie within the documented bound of the 60-digit root."""
    assert got.shape == want.shape and got.dtype == want.dtype
    t, got, want = np.ravel(targets), np.ravel(got), np.ravel(want)
    lo, hi = earlier_bracket(D, a, t, tol)
    wide = (hi - lo > tol) & (t != 0.0) & (t != D)
    assert _same_bits(got[~wide], want[~wide])
    _assert_within_bound(D, a, t[wide], got[wide], tol, sample)


class TestCertifiedFinish:
    """A bracket at most tol wide is finished from the targets alone."""

    def test_unit_ends_are_exact(self):
        # f(0) = 0 and f(1) = D bit for bit: |a*sin(2*pi)/(2*pi)| < half an ulp of D
        sweep = [(D, float(a)) for D in range(1, 9) for a in np.linspace(-D, D, 401)[1:-1]]
        for D, a in SINE_FAMILY + [(5, -4.9), (3, 2.997)] + sweep:
            assert _family_fn(D, a)(np.array([0.0, 1.0])).tolist() == [0.0, float(D)], (D, a)

    @pytest.mark.parametrize("tol", [1e-13, 1e-10, 1e-6])
    @pytest.mark.parametrize("D, a", SINE_FAMILY)
    def test_equals_bracket_then_full_solve_where_certified(self, D, a, tol):
        targets = _oracle_targets(D, a)
        got = circle_maps._solve_sine_family(D, a, targets, tol)
        _assert_earlier_bits_or_bound(D, a, targets, tol, got, reference_sine_family_solve(D, a, targets, tol))

    @pytest.mark.parametrize("D, a", SINE_FAMILY)
    @pytest.mark.parametrize(
        "bad, message",
        [
            (-2e-9, "outside monotone bracket"),
            (-1.0, "outside monotone bracket"),
            ("D+", "outside monotone bracket"),
            (math.nan, "non-finite"),
            (math.inf, "non-finite"),
            (-math.inf, "non-finite"),
        ],
    )
    def test_rejects_as_the_full_solve_does(self, D, a, bad, message):
        # a NaN anywhere takes precedence over a range failure
        bad = D + 2e-9 if bad == "D+" else bad
        for targets, want in (
            (np.array([0.5 * D, bad]), message),
            (np.array([bad, -1.0, math.nan]), "non-finite"),
        ):
            for solve in (
                lambda t: circle_maps._solve_sine_family(D, a, t, TOL),
                lambda t: reference_sine_family_solve(D, a, t, TOL),
            ):
                with pytest.raises(SolverError, match=want):
                    solve(targets)

    def test_runs_warning_free(self):
        # neither the bracket nor the finishing bisection runs under an
        # np.errstate that hides warnings: no NaN, inf or zero slope floor reaches them
        for D, a in BOUND_ROWS:
            targets = _oracle_targets(D, a)
            for tol in (TOL, 1e-17):
                with np.errstate(divide="raise", invalid="raise", over="raise"):
                    circle_maps._solve_sine_family(D, a, targets, tol)


class TestCertifiedBisection:
    """Brackets still wider than tol are finished by certified bisection,
    and every root lies within the one documented per-root bound."""

    @pytest.mark.parametrize("tol", [1e-13, 1e-10, 1e-6, 1e-17])
    @pytest.mark.parametrize("D, a", BOUND_ROWS)
    def test_roots_within_documented_bound(self, D, a, tol):
        targets = _oracle_targets(D, a)
        roots = circle_maps._solve_sine_family(D, a, targets, tol)
        assert np.all((0.0 <= roots) & (roots <= 1.0))
        _assert_within_bound(D, a, targets, roots, tol)

    def test_tiny_tol(self):
        # no bracket gets 1e-17 wide: the general solver raised "root solver
        # failed to converge" here, and the bisection stops at an uncertain sign
        ys = np.linspace(0.0, 1.0, 1001)
        got = circle_maps._solve_sine_family(2, 0.5, ys, 1e-17)
        _assert_within_bound(2, 0.5, ys, got, 1e-17)

    @pytest.mark.parametrize(
        "spec",
        [smooth_sine_map(3, 2.997), smooth_sine_map(2, 1.998), make_conjugated(linear_map(2), sine_homeo(0.999))],
        ids=lambda spec: spec.describe(),
    )
    def test_level_one_values_within_chain_error_bound(self, spec):
        # the general solver missed tol/2 + 4u here: at 23 of these 450 values
        # of smooth_sine(3, 2.997), by up to 1.2e-13, and 23 of 300 of
        # smooth_sine(2, 1.998)
        import mpmath

        near = np.logspace(-14, -1, 30)
        ys = np.concatenate([np.random.default_rng(7).random(30), near, 1.0 - near, 0.5 - near, 0.5 + near])
        ys = np.round(ys * 2.0**50) / 2.0**50  # so branch + y is exact
        bound = mpmath.mpf(float(circle_maps.chain_error_bound(spec, 1)[1]))
        with mpmath.workdps(60):
            two_pi = 2 * mpmath.pi
            if spec.kind == "smooth_sine":
                # F(x) = b + y
                D, p = spec.degree, mpmath.mpf(spec.epsilon)
                inner = lambda x: D * x + p * mpmath.sin(two_pi * x) / two_pi
                image = lambda b, y: b + mpmath.mpf(y)
            else:
                # H(x) = G^{-1}(H(y) + b) for the base G = linear(2)
                c = mpmath.mpf(spec.homeo.c)
                inner = lambda x: x + c * mpmath.sin(two_pi * x) / two_pi
                image = lambda b, y: (inner(mpmath.mpf(y)) + b) / 2
            for b in range(spec.degree):
                for y, x in zip(ys.tolist(), inverse_branch_values(spec, b, ys).tolist()):
                    assert inner(x - bound) <= image(b, y) <= inner(x + bound), (b, y, x)


BLOCK = circle_maps._SOLVER_BLOCK


class TestLeanKernel:
    """Per-block guards and in-place arithmetic change no bit: the kernel
    equals the earlier one, kept verbatim in ``_oracles``, on every path,
    wherever a certified bracket is at most tol wide."""

    @pytest.mark.parametrize("D, a", SINE_FAMILY)
    @pytest.mark.parametrize("size", [0, 1, BLOCK - 1, BLOCK + 1, 2 * BLOCK + 3])
    def test_block_sizes(self, D, a, size):
        targets = np.random.default_rng(size).random(size) * D
        flat = _flat_spot_targets(D, a)[:size]
        targets[: flat.size] = flat
        got = circle_maps._solve_sine_family(D, a, targets, TOL)
        _assert_earlier_bits_or_bound(D, a, targets, TOL, got, earlier_solve(D, a, targets, TOL), sample=200)
        for got, want in zip(circle_maps._sine_family_bracket(D, a, targets, TOL), earlier_bracket(D, a, targets)):
            assert _same_bits(got, want)

    @pytest.mark.parametrize("D, a", SINE_FAMILY)
    def test_scalar_and_strided_targets(self, D, a):
        grid = np.random.default_rng(11).random((6, 4, 3)) * D
        views = (grid[:, 1:, ::2], grid.T, grid[::-1, :, 0])
        assert not any(view.flags.c_contiguous for view in views)
        for targets in (np.float64(0.3 * D), *views):
            got = circle_maps._solve_sine_family(D, a, targets, TOL)
            _assert_earlier_bits_or_bound(D, a, targets, TOL, got, earlier_solve(D, a, targets, TOL))

    @pytest.mark.parametrize("D, a", SINE_FAMILY)
    def test_end_hits_beside_the_range_slack(self, D, a):
        # the block's minimum is below 0 and its maximum above D: a guard
        # that looked for end hits only where min == 0 or max == D would skip them
        ends = [0.0, 1.0]  # the roots of t == 0 and t == D
        targets = np.array([-1e-9, 0.0, -5e-10, -5e-324, 0.5 * D, D, D + 1e-9, np.nextafter(D, 3.0 * D), 0.0, D])
        got = circle_maps._solve_sine_family(D, a, targets, TOL)
        _assert_earlier_bits_or_bound(D, a, targets, TOL, got, earlier_solve(D, a, targets, TOL))
        assert got[[1, 5, 8, 9]].tolist() == ends + ends

    @pytest.mark.parametrize("tol", [1e-13, 1e-10, 1e-6])
    @pytest.mark.parametrize("D, a", [(D, a) for D, a in SINE_FAMILY if abs(a) > 0.9 * D])
    def test_near_degenerate_blocks_mix_certified_and_wide(self, D, a, tol):
        targets = np.concatenate([np.random.default_rng(3).random(100) * D, _flat_spot_targets(D, a), [0.0, D]])
        lo, hi = circle_maps._sine_family_bracket(D, a, targets, tol)
        wide = hi - lo > tol
        assert np.any(wide)
        if tol > 1e-13:  # below pad/(D - |a|) no bracket is certified
            assert not np.all(wide)
        got = circle_maps._solve_sine_family(D, a, targets, tol)
        _assert_earlier_bits_or_bound(D, a, targets, tol, got, earlier_solve(D, a, targets, tol))
        for got, want in zip((lo, hi), earlier_bracket(D, a, targets, tol)):
            assert _same_bits(got, want)

    @pytest.mark.parametrize(
        "spec",
        [
            smooth_sine_map(2, 0.5),
            smooth_sine_map(3, 1.2),
            make_conjugated(linear_map(3), sine_homeo(-0.999)),
            make_conjugated(smooth_sine_map(2, 1.998), compose_homeos([sine_homeo(0.999), sine_homeo(-0.4)])),
        ],
        ids=lambda spec: spec.describe(),
    )
    def test_walk_writes_strided_children(self, spec):
        # the level walk passes the non-copied parents, a strided view, and
        # the strided child slots of the new level as ``out``: the values are
        # those of contiguous parents and no ``out`` (the solves near the flat
        # spots of the near-degenerate specs are wider than tol, so the
        # earlier kernel is no reference for them)
        d = spec.degree
        lefts = np.sort(np.random.default_rng(d).random(d * 40))
        lefts[0] = 0.0
        parents = lefts.reshape(-1, d)[:, 1:]
        level = np.full(d * lefts.size, -1.0)
        slots = level.reshape(d, -1, d)[:, :, 1:]
        branches = np.arange(d).reshape(d, 1, 1)
        assert inverse_branch_values(spec, branches, parents, out=slots) is slots
        want = inverse_branch_values(spec, branches, np.ascontiguousarray(parents))
        assert _same_bits(np.ascontiguousarray(slots), want)
        assert np.all(level.reshape(d, -1, d)[:, :, 0] == -1.0)  # the copied slots are left alone

    @pytest.mark.parametrize("D, a", SINE_FAMILY)
    @pytest.mark.parametrize(
        "first, second, message",
        [
            ((), (math.nan, -1.0), "non-finite"),
            ((), (-1.0, math.nan), "non-finite"),
            ((), (math.inf,), "non-finite"),
            ((), ("D+",), "outside monotone bracket"),
            ((-2e-9,), (math.nan,), "outside monotone bracket"),
        ],
    )
    def test_second_block_rejects_like_the_earlier_kernel(self, D, a, first, second, message):
        # each block checks its own targets, a NaN before a range failure,
        # after the blocks before it were solved
        targets = np.random.default_rng(13).random(BLOCK + 20) * D
        for at, values in ((5, first), (BLOCK + 7, second)):
            targets[at : at + len(values)] = [D + 2e-9 if v == "D+" else v for v in values]
        for solve in (circle_maps._solve_sine_family, earlier_solve):
            with pytest.raises(SolverError, match=message):
                solve(D, a, targets, TOL)


class TestGlobalInverseLift:
    def test_linear(self, lin2):
        assert global_inverse_lift(lin2, 0.8, 3) == pytest.approx(0.1, abs=1e-15)

    def test_pl_positive(self, f06):
        # 0.6^2 * 0.2; oracle = repeated single-branch inversion
        got = global_inverse_lift(f06, 0.2, 2)
        assert got == pytest.approx(0.072, abs=1e-15)
        step = bisect_root(lambda x: pl_lift([0.6], x), 0.0, 1.0, 0.2)
        oracle = bisect_root(lambda x: pl_lift([0.6], x), 0.0, 1.0, step)
        assert got == pytest.approx(oracle, abs=1e-12)

    def test_pl_negative_side(self, f06):
        # periodicity gives -(1 - alpha) * t; oracle = bisection on [-1, 0]
        got = global_inverse_lift(f06, -0.2, 1)
        assert got == pytest.approx(-0.08, abs=1e-15)
        oracle = bisect_root(lambda x: pl_lift([0.6], x), -1.0, 0.0, -0.2)
        assert got == pytest.approx(oracle, abs=1e-12)

    def test_integer_values_exact(self, f06):
        assert global_inverse_lift(f06, 2.0, 1) == 1.0
        assert global_inverse_lift(f06, -2.0, 1) == -1.0

    def test_forward_backward_roundtrip(self, f06, smooth05):
        for spec in (f06, smooth05):
            for y in (-1.3, -0.2, 0.0, 0.41, 0.99, 2.7):
                x = global_inverse_lift(spec, y, 4)
                forward = x
                for _ in range(4):
                    forward = eval_lift(spec, forward)
                assert forward == pytest.approx(y, abs=1e-9)

    def test_depth_cap(self, f06):
        with pytest.raises(DepthCapExceeded):
            global_inverse_lift(f06, 0.5, 61)

    @pytest.mark.parametrize("y", [1.7976931348623157e308, -1.7976931348623157e308, np.nextafter(1e300, 2e300)])
    @pytest.mark.parametrize(
        "spec", [linear_map(3), piecewise_linear([0.3, 0.55]), smooth_sine_map(3, 0.85)], ids=lambda s: s.kind
    )
    def test_huge_target_refused_before_any_step(self, monkeypatch, spec, y):
        # the scalar chain raised OverflowError on y = 1.797e308 for a degree-3 PL map
        want = rf"^y must be at most 1e300 in magnitude, got {re.escape(repr(float(y)))}$"
        with pytest.raises(ValueError, match=want):
            global_inverse_lift(spec, y, 1)

        def no_work(*args, **kwargs):
            raise AssertionError("inverse step taken for a huge target")

        monkeypatch.setattr(circle_maps, "_inverse_steps", no_work)
        with pytest.raises(ValueError, match=want):
            next(circle_maps.inverse_orbit(spec, [0.5, y], 1))

    @pytest.mark.parametrize("spec", [linear_map(3), piecewise_linear([0.3, 0.55]), smooth_sine_map(3, 0.85)])
    def test_targets_at_the_bound_are_stepped(self, spec):
        for y in (1e300, -1e300):
            x = global_inverse_lift(spec, y, 2)
            assert x == pytest.approx(y / 9, rel=1e-15)

    @pytest.mark.parametrize("y", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("spec_name", ["lin2", "f06", "smooth05"])
    def test_non_finite_target_rejected(self, request, spec_name, y):
        spec = request.getfixturevalue(spec_name)
        with pytest.raises(ValueError, match=r"^y must be finite, got (inf|-inf|nan)$"):
            global_inverse_lift(spec, y, 3)

    @pytest.mark.parametrize(
        "ys, n, error, message",
        [
            ([0.5], 0, ValueError, "n must be >= 1"),
            ([], 0, ValueError, "n must be >= 1"),
            ([], 10**9, DepthCapExceeded, "inverse depth 1000000000 exceeds cap 60"),
            ([0.5, -1.3], 61, DepthCapExceeded, "inverse depth 61 exceeds cap 60"),
            ([math.inf], 0, ValueError, "y must be finite, got inf"),  # the point before n
        ],
        ids=["one_point_n0", "no_point_n0", "no_point_past_cap", "two_points_past_cap", "point_checked_first"],
    )
    def test_n_checked_once_after_the_points(self, f06, monkeypatch, ys, n, error, message):
        def no_work(*args, **kwargs):
            raise AssertionError("inverse step taken for a refused request")

        monkeypatch.setattr(circle_maps, "_inverse_steps", no_work)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            list(circle_maps.inverse_orbit(f06, ys, n))
        if len(ys) == 1:
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                global_inverse_lift(f06, ys[0], n)


class TestValidate:
    def test_f06_passes(self, f06):
        assert validate(f06).ok

    def test_report_text(self, f06):
        # a passing report, and a failing one with a violation that has no
        # location and one that has
        assert str(validate(f06)) == "piecewise_linear(cuts=[0.6]): ok"
        assert str(validate(smooth_sine_map(1, 2.5))) == (
            "smooth_sine(d=1, epsilon=2.5): 2 violation(s)\n"
            "  [bad_degree] map: degree must be an integer in [2, 1024], got 1\n"
            "  [non_monotone] map: non-monotone lift, min F' = d - |epsilon| = -1.5 <= 0 (F' changes sign) at x=0.5"
        )

    def test_cuts_not_increasing(self):
        report = validate(piecewise_linear([0.7, 0.3]))
        assert not report.ok
        assert any(v.code == "cuts_not_increasing" for v in report.violations)

    def test_smooth_non_monotone(self):
        # min F' = d - |epsilon| < 0, so the lift cannot be increasing
        report = validate(smooth_sine_map(2, 2.5))
        assert not report.ok
        assert any(v.code == "non_monotone" for v in report.violations)
        xs = np.linspace(0.0, 1.0, 4097)
        slopes = np.diff([2 * x + 2.5 * np.sin(2 * np.pi * x) / (2 * np.pi) for x in xs])
        assert slopes.min() < 0  # oracle: grid minimum of F' changes sign

    def test_degree_below_two_rejected(self):
        report = validate(CircleMapSpec(kind="linear", degree=1))
        assert not report.ok

    @pytest.mark.parametrize(
        "spec",
        [
            linear_map(defaults.DEGREE_CAP + 1),
            linear_map(10**12),
            smooth_sine_map(10**12, 0.5),
            CircleMapSpec(kind="conjugated", degree=10**12, base=linear_map(10**12), homeo=sine_homeo(0.5)),
        ],
    )
    def test_degree_above_cap_rejected_before_allocation(self, spec):
        tracemalloc.start()
        try:
            report = validate(spec)
            # checked before branch_points, which would build a degree-length tuple
            assert [v.code for v in report.violations][:1] == ["bad_degree"]
            with pytest.raises(InvalidMapError, match="degree"):
                circle_maps.branch_points(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize(
        "spec, code, message",
        [
            (CircleMapSpec(kind="piecewise_linear_full_branch", degree=3, cuts=(0.6,)),
             "bad_degree", "map: degree must equal len(cuts)+1"),
            (CircleMapSpec(kind="conjugated", base=linear_map(2)), "missing_field", "map: conjugated needs base and homeo"),
            (CircleMapSpec(kind="conjugated", homeo=identity_homeo()), "missing_field", "map: conjugated needs base and homeo"),
            (CircleMapSpec(kind="conjugated", degree=3, base=linear_map(2), homeo=identity_homeo()),
             "bad_degree", "map: degree must match the base map"),
            (CircleMapSpec(kind="conjugated", base=linear_map(2), homeo=compose_homeos([])),
             "empty_composition", "map.homeo: empty composition"),
            (compose_homeos([]), "empty_composition", "homeo: empty composition"),
        ],
        ids=["pl_degree", "no_homeo", "no_base", "conjugated_degree", "empty_composition", "empty_composition_homeo"],
    )
    def test_structural_violation_reported(self, spec, code, message):
        report = validate(spec) if isinstance(spec, CircleMapSpec) else validate_homeo(spec)
        assert [(v.code, v.message, v.location) for v in report.violations] == [(code, message, None)]

    def test_non_spec_refused(self):
        with pytest.raises(TypeError, match=r"^expected CircleMapSpec, got str$"):
            validate("linear")

    def test_degree_at_cap_passes(self):
        assert validate(linear_map(defaults.DEGREE_CAP)).ok

    def test_tiny_branch_rejected(self):
        report = validate(piecewise_linear([0.5, 0.5 + 1e-12]))
        assert not report.ok
        assert any(v.code == "branch_too_small" for v in report.violations)

    def test_cut_one_ulp_from_grid_point_passes(self):
        # 0.49999999999999994 sits one ulp below the grid point 0.5, where
        # the lift step rounds to zero
        spec = piecewise_linear([0.4411764705882352, 0.49999999999999994, 0.9411764705882353])
        assert validate(spec).ok

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_numbers_rejected(self, value):
        for spec in (
            piecewise_linear([value]),
            smooth_sine_map(2, value),
            CircleMapSpec(kind="conjugated", base=linear_map(2), homeo=sine_homeo(value)),
        ):
            codes = [v.code for v in validate(spec).violations]
            assert codes == ["non_finite"]
        assert [v.code for v in validate_homeo(sine_homeo(value)).violations] == ["non_finite"]
        with pytest.raises(InvalidMapError, match="finite"):
            make_conjugated(linear_map(2), sine_homeo(value))

    def test_homeo_amplitude_bound(self):
        with pytest.raises(InvalidMapError):
            make_conjugated(linear_map(2), sine_homeo(1.0))

    @pytest.mark.parametrize(
        "base, homeo",
        [
            (smooth_sine_map(2, 1.0), compose_homeos([sine_homeo(0.999999), sine_homeo(-0.999999), sine_homeo(0.999999)])),
            (smooth_sine_map(2, 1.999999), sine_homeo(0.999999)),
        ],
    )
    def test_grid_check_rejects_structurally_valid_specs(self, base, homeo):
        # the base and the homeomorphism pass their structural checks, but
        # the computed lift of the conjugated map is not strictly increasing:
        # the slope floor rejects it
        spec = CircleMapSpec(kind="conjugated", degree=base.degree, base=base, homeo=homeo)
        assert grid_monotone_failure(spec) is not None
        report = validate(spec)
        assert [v.code for v in report.violations] == ["non_monotone"]
        assert re.fullmatch(
            r"map: slope floor \S+ of the conjugated lift below minimum 1e-09", report.violations[0].message
        )
        assert report.violations[0].location is None
        with pytest.raises(InvalidMapError, match="slope floor"):
            make_conjugated(base, homeo)


class TestDescribe:
    @pytest.mark.parametrize(
        "spec, text",
        [
            (piecewise_linear([0.6]), "piecewise_linear(cuts=[0.6])"),
            (smooth_sine_map(2, 0.5), "smooth_sine(d=2, epsilon=0.5)"),
            # :g would print epsilon=2, which names an invalid map
            (smooth_sine_map(2, 1.999999), "smooth_sine(d=2, epsilon=1.999999)"),
            (smooth_sine_map(2, 2 - 1e-15), "smooth_sine(d=2, epsilon=1.999999999999999)"),
            (piecewise_linear([1 / 3, 0.5]), "piecewise_linear(cuts=[0.3333333333333333, 0.5])"),
            (sine_homeo(1 - 1e-9), "sine_homeo(c=0.999999999)"),
            (sine_homeo(0.1 + 0.2), "sine_homeo(c=0.30000000000000004)"),
        ],
    )
    def test_numbers_read_back_exactly(self, spec, text):
        assert spec.describe() == text


class TestMakeConjugated:
    def test_bad_parts_named_by_path(self):
        with pytest.raises(InvalidMapError, match=r"map\.base: non-monotone lift.*; map\.homeo: \|c\|=1\.5 >= 1"):
            make_conjugated(smooth_sine_map(2, 2.5), sine_homeo(1.5))

    def test_identity_homeo_is_noop(self, lin2):
        conj = make_conjugated(lin2, identity_homeo())
        xs = np.linspace(0.0, 1.0, 1000, endpoint=False)
        got = [eval_lift(conj, float(x)) for x in xs]
        want = [eval_lift(lin2, float(x)) for x in xs]
        assert np.allclose(got, want, atol=1e-12)

    def test_fixes_zero(self, conj_smooth):
        assert eval_lift(conj_smooth, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_half_maps_to_one(self, conj_smooth):
        # H(0.5) = 0.5, G(0.5) = 1.0, H^{-1}(1.0) = 1.0 by periodicity
        assert eval_lift(conj_smooth, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_inverse_branch_matches_oracle(self, conj_smooth):
        for branch in (0, 1):
            for y in (0.0, 0.25, 0.7, 1.0):
                got = inverse_branch(conj_smooth, branch, y)
                assert got == pytest.approx(
                    conjugated_inverse_branch(0.5, branch, y), abs=1e-11
                )


class TestHomeos:
    def test_sine_lift_matches_formula(self):
        h = sine_homeo(0.5)
        for x in np.linspace(-1.0, 2.0, 23):
            assert homeo_eval(h, float(x)) == pytest.approx(
                sine_homeo_lift(0.5, float(x)), abs=1e-15
            )

    def test_inverse_roundtrip(self):
        h = sine_homeo(-0.7)
        ys = np.linspace(-1.5, 2.5, 33)
        xs = homeo_inverse_values(h, ys)
        assert np.allclose(homeo_lift_values(h, xs), ys, atol=1e-11)

    def test_composition_order_and_inverse(self):
        h = compose_homeos([sine_homeo(0.3), sine_homeo(-0.4)])
        inner = sine_homeo(-0.4)
        outer = sine_homeo(0.3)
        x = 0.37
        assert homeo_eval(h, x) == pytest.approx(
            homeo_eval(outer, homeo_eval(inner, x)), abs=1e-15
        )
        y = homeo_eval(h, x)
        assert float(homeo_inverse_values(h, y)) == pytest.approx(x, abs=1e-11)

    def test_inverse_equals_the_clipped_form_bitwise(self):
        # a finite y - floor(y) is exact, in [0, 1] and never -0.0, so the
        # clip to [0, 1] that the inverse once applied changed no bit
        h = sine_homeo(0.5)
        powers = 10.0 ** -np.arange(0, 321)  # 1 down to 1e-320
        ints = np.arange(-50.0, 51.0)
        ys = np.concatenate([
            np.random.default_rng(5).uniform(-50.0, 50.0, 10**6),
            powers, -powers, [0.0, -0.0, 1e300, -1e300],
            ints, np.nextafter(ints, np.inf), np.nextafter(ints, -np.inf),
        ])
        k = np.floor(ys)
        want = k + circle_maps._homeo_inverse_unit(h, np.clip(ys - k, 0.0, 1.0))
        assert homeo_inverse_values(h, ys).tobytes() == want.tobytes()
        for bad in (np.inf, -np.inf, np.nan):
            with np.errstate(invalid="ignore"), pytest.raises(SolverError, match="non-finite solver target"):
                homeo_inverse_values(h, [0.3, bad])

    @pytest.mark.parametrize("h", [
        identity_homeo(),
        sine_homeo(0.9),
        sine_homeo(-0.55),
        compose_homeos([sine_homeo(0.6), compose_homeos([sine_homeo(-0.8), sine_homeo(0.3)])]),
    ], ids=lambda h: h.describe())
    def test_rounding_bound_holds_against_40_digits(self, h):
        # the conjugated word model moves H(x) by homeo_rounding(h) at most
        import mpmath

        def exact(spec, x):
            # a composition has parts; the identity is the sine lift with c = 0
            for part in reversed(spec.parts):
                x = exact(part, x)
            return x + mpmath.mpf(spec.c) * mpmath.sin(2 * mpmath.pi * x) / (2 * mpmath.pi)

        xs = np.concatenate([np.random.default_rng(11).uniform(0.0, 1.0, 400), np.linspace(0.0, 1.0, 65)])
        got = homeo_lift_values(h, xs)
        with mpmath.workdps(40):
            worst = max(abs(mpmath.mpf(float(y)) - exact(h, mpmath.mpf(float(x)))) for x, y in zip(xs, got))
        bound = circle_maps.homeo_rounding(h)
        assert worst <= bound
        if bound:
            assert worst > bound / 256  # and not loose by orders of magnitude


class TestJsonIngestion:
    @pytest.mark.parametrize(
        "text",
        [
            '{"kind":"piecewise_linear_full_branch","cuts":[0.6]}',
            '{"kind":"linear","degree":2}',
            '{"kind":"smooth_sine","degree":2,"epsilon":0.5}',
            '{"kind":"conjugated","base":{"kind":"linear","degree":2},'
            '"homeo":{"kind":"sine_homeo","c":0.5}}',
            '{"kind":"conjugated","base":{"kind":"smooth_sine","degree":3,"epsilon":-0.25},'
            '"homeo":{"kind":"identity"}}',
            '{"kind":"conjugated","base":{"kind":"piecewise_linear_full_branch","cuts":[0.3,0.7]},'
            '"homeo":{"kind":"compose","parts":[{"kind":"compose","parts":'
            '[{"kind":"sine_homeo","c":0.3},{"kind":"identity"}]},{"kind":"sine_homeo","c":-0.2}]}}',
        ],
    )
    def test_roundtrip(self, text):
        spec = map_spec_from_json(text)
        assert map_spec_from_dict(map_spec_to_dict(spec)) == spec

    def test_pl_degree_is_implied(self):
        spec = map_spec_from_json('{"kind":"piecewise_linear_full_branch","cuts":[0.3,0.7]}')
        assert spec.degree == 3

    def test_pl_explicit_degree_rejected(self):
        with pytest.raises(SpecFormatError, match="degree"):
            map_spec_from_json('{"kind":"piecewise_linear_full_branch","cuts":[0.6],"degree":2}')

    def test_unknown_kind(self):
        with pytest.raises(SpecFormatError, match="kind"):
            map_spec_from_json('{"kind":"cubic"}')

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: CircleMapSpec(kind="cubic"), "unknown map kind 'cubic'"),
            (lambda: CircleHomeoSpec(kind="bogus"), "unknown homeomorphism kind 'bogus'"),
        ],
        ids=["map", "homeo"],
    )
    def test_unknown_kind_rejected_when_built(self, build, message):
        with pytest.raises(InvalidMapError, match=message):
            build()

    def test_bad_cut_entry_has_field_path(self):
        with pytest.raises(SpecFormatError, match=r"cuts\[1\]"):
            map_spec_from_json('{"kind":"piecewise_linear_full_branch","cuts":[0.3,"x"]}')

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"kind":"piecewise_linear_full_branch","cuts":[NaN]}', r"\$\.cuts\[0\]"),
            ('{"kind":"smooth_sine","degree":2,"epsilon":Infinity}', r"\$\.epsilon"),
            ('{"kind":"smooth_sine","degree":2,"epsilon":1' + "0" * 400 + "}", r"\$\.epsilon"),
            (
                '{"kind":"conjugated","base":{"kind":"linear","degree":2},'
                '"homeo":{"kind":"sine_homeo","c":-Infinity}}',
                r"\$\.homeo\.c",
            ),
        ],
        ids=["cut", "epsilon", "huge_int_epsilon", "homeo_c"],
    )
    def test_non_finite_number_names_field(self, text, field):
        with pytest.raises(SpecFormatError, match=field + ": not a finite number"):
            map_spec_from_json(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"kind":"linear","degree":2.0}', "$.degree: not an integer (got 2.0)"),
            ('{"kind":"smooth_sine","degree":true,"epsilon":0.5}', "$.degree: not an integer (got True)"),
            ("[0.6]", "$: expected an object"),
            ('{"kind":"conjugated","base":"linear","homeo":{"kind":"identity"}}', "$.base: expected an object"),
            ('{"kind":"smooth_sine","degree":2}', "$.epsilon: missing"),
            ('{"kind":"conjugated","base":{"kind":"linear","degree":2}}', "$.homeo: missing"),
        ],
        ids=["float_degree", "bool_degree", "not_an_object", "base_not_an_object", "missing_epsilon", "missing_homeo"],
    )
    def test_malformed_field_named_by_path(self, text, message):
        with pytest.raises(SpecFormatError, match=f"^{re.escape(message)}$"):
            map_spec_from_json(text)

    def test_invalid_json_reports_position(self):
        with pytest.raises(SpecFormatError, match="line"):
            map_spec_from_json("{not json}")

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecFormatError, match="slope"):
            map_spec_from_json('{"kind":"linear","degree":2,"slope":3}')


class TestChainErrorBound:
    def test_nested_composition_counts_every_solve(self):
        # H^{-1} solves once per sine_homeo, however the composition is nested
        a, b, c = sine_homeo(0.3), sine_homeo(-0.4), sine_homeo(0.5)
        flat = make_conjugated(linear_map(2), compose_homeos([a, b, c]))
        nested = make_conjugated(linear_map(2), compose_homeos([compose_homeos([a, b]), c]))
        assert np.array_equal(
            circle_maps.chain_error_bound(nested, 8), circle_maps.chain_error_bound(flat, 8)
        )

    @pytest.mark.parametrize("tol", [1e-13, 1e-10, 1e-6])
    @pytest.mark.parametrize(
        "spec",
        [
            linear_map(2),
            piecewise_linear([0.6]),
            smooth_sine_map(2, 0.5),
            smooth_sine_map(3, -1.2),
            make_conjugated(linear_map(2), sine_homeo(0.5)),
            make_conjugated(piecewise_linear([0.6]), identity_homeo()),
            make_conjugated(smooth_sine_map(2, 0.3), compose_homeos([sine_homeo(0.3), sine_homeo(-0.4), sine_homeo(0.5)])),
            make_conjugated(linear_map(3), compose_homeos([compose_homeos([sine_homeo(0.2), sine_homeo(0.3)]), sine_homeo(-0.25)] * 2)),
        ],
        ids=lambda spec: spec.describe(),
    )
    def test_tol_over_two_per_solve_where_the_floor_allows(self, spec, tol, solver_tol):
        # every solve has (5/4)*pad/(D - |a|) <= tol/2: the per-root bound is
        # tol/2, and the sums of the conjugated step round as its multiple did
        solver_tol(tol)
        assert circle_maps.chain_error_bound(spec, 12).tobytes() == reference_chain_error_bound(spec, tol, 12).tobytes()

    def test_near_degenerate_solves_count_their_floor(self):
        u = UNIT_ROUNDOFF
        floor_term = 1.25 * 16.0 * u * (2 + 1.998) / (2 - 1.998)
        assert circle_maps.chain_error_bound(smooth_sine_map(2, 1.998), 1)[1] == floor_term + 4.0 * u
        homeo = compose_homeos([sine_homeo(0.999), sine_homeo(0.3)])
        h_lo, h_hi = circle_maps.homeo_slope_bounds(homeo)
        step = (1.25 * 16.0 * u * 1.999 / (1 - 0.999) + 0.5 * TOL + 4.0 * u) / h_lo + 4.0 * u
        bound = circle_maps.chain_error_bound(make_conjugated(linear_map(2), homeo), 1)[1]
        assert bound == pytest.approx(step * h_hi / h_lo, rel=1e-15)  # the outer H carries it by h_hi/h_lo
