"""Lift evaluation, branch inversion, validation, and spec ingestion."""

import math
import tracemalloc

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
    bisect_root,
    conjugated_inverse_branch,
    mp_sine_family_root,
    pl_lift,
    reference_sine_family_solve,
    sine_homeo_lift,
    smooth_lift,
)

TOL = defaults.SOLVER_TOL
UNIT_YS = np.linspace(0.0, 1.0, 33)


def _solve_counted(fn, targets):
    """Roots of ``fn = targets`` on [0, 1], and how many points ``fn`` was evaluated at."""
    evaluated = 0

    def counted(u):
        nonlocal evaluated
        evaluated += np.size(u)
        return fn(u)

    roots = circle_maps._solve_block(counted, np.zeros(targets.size), np.ones(targets.size), targets, TOL)
    return roots, evaluated


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

    @pytest.mark.parametrize(
        "fn, targets, root",
        [
            # slope 1e6 at the root: the secant over [0, 1] is a poor model
            (
                lambda u: np.arctan(1e6 * (u - 0.5)),
                np.linspace(-1.5, 1.5, 101),
                lambda t: 0.5 + np.tan(t) / 1e6,
            ),
            (lambda u: u**21, np.linspace(0.0, 1.0, 101), lambda t: t ** (1.0 / 21.0)),
            (
                lambda u: np.exp(50.0 * u),
                np.linspace(1.0, math.exp(50.0), 101),
                lambda t: np.log(t) / 50.0,
            ),
        ],
        ids=["steep_arctan", "power_21", "exp_50"],
    )
    def test_hard_monotone_functions(self, fn, targets, root):
        got, evaluated = _solve_counted(fn, targets)
        assert np.max(np.abs(got - root(targets))) <= TOL
        # never more than twice the steps of plain bisection on [0, 1]
        assert evaluated <= 2 * (math.ceil(math.log2(1.0 / TOL)) + 1) * targets.size

    def test_exact_end_hits(self, smooth05, conj_smooth):
        assert inverse_branch_values(smooth05, 0, 0.0) == 0.0
        assert inverse_branch_values(conj_smooth, 0, 0.0) == 0.0
        assert inverse_branch_values(conj_smooth, 1, 1.0) == 1.0
        got = circle_maps._solve_block(lambda u: u**3, np.array([0.5]), np.array([1.0]), np.array([0.3]), TOL)
        assert abs(got[0] - 0.3 ** (1.0 / 3.0)) <= TOL

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

    def test_evaluations_per_target(self, smooth05):
        targets = np.linspace(0.0, 2.0, 1001)
        _, evaluated = _solve_counted(lambda u: circle_maps.lift_values(smooth05, u), targets)
        assert evaluated <= 16 * targets.size

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
    """Patch the solver passes so every point their ``fn`` is evaluated at is counted."""
    counter = {"points": 0}
    solve = circle_maps._solve_block

    def counted_solve(fn, lo, hi, target, tol):
        def counted(u):
            counter["points"] += np.size(u)
            return fn(u)

        return solve(counted, lo, hi, target, tol)

    monkeypatch.setattr(circle_maps, "_solve_block", counted_solve)
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
        lo, hi = circle_maps._sine_family_bracket(D, a, targets)
        assert np.all((0.0 <= lo) & (lo <= hi) & (hi <= 1.0))
        for t, left, right in zip(targets, lo, hi):
            root = mp_sine_family_root(D, a, float(t))
            assert left <= root <= right, (t, left, right)

    @pytest.mark.parametrize("D, a", SINE_FAMILY)
    def test_bracket_ends_straddle_target(self, D, a):
        # computed f is below the target at an unclipped left end and above it
        # at an unclipped right end, so the solver starts from a true bracket
        targets = _sine_family_targets(D)
        lo, hi = circle_maps._sine_family_bracket(D, a, targets)
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
        counter = _count_solver_evaluations(monkeypatch)
        ys = np.linspace(0.0, 1.0, 1001)
        for branch in (0, 1):
            inverse_branch_values(spec, branch, ys)
        assert counter["points"] == 0

    @pytest.mark.parametrize(
        "spec, per_root",
        [(smooth_sine_map(2, 0.5), 3), (make_conjugated(linear_map(2), sine_homeo(0.5)), 4)],
        ids=lambda value: value.describe() if hasattr(value, "describe") else str(value),
    )
    def test_trig_evaluations_per_root(self, spec, per_root, monkeypatch):
        # one sine certifies the table guess, a cosine and a sine make its
        # Newton step; the conjugated map also evaluates H once per target
        ys = np.linspace(0.0, 1.0, 1001)
        inverse_branch_values(spec, 0, ys)  # the inverse table is built once per (D, a)
        counter = _count_numpy_points(monkeypatch, "sin", "cos")
        for branch in (0, 1):
            inverse_branch_values(spec, branch, ys)
        assert counter["points"] <= per_root * 2 * ys.size

    @pytest.mark.parametrize("D, a", [(D, a) for D, a in SINE_FAMILY if abs(a) < 0.9 * D])
    def test_seed_evaluates_the_family_at_most_twice_per_target(self, D, a, monkeypatch):
        # the table guess is certified once and, after one Newton step, once more
        targets = _sine_family_targets(D)
        circle_maps._sine_family_inverse_table(D, a)  # built once per (D, a), not per target
        counter = _count_numpy_points(monkeypatch, "sin")
        circle_maps._sine_family_bracket(D, a, targets)
        assert counter["points"] <= 2 * targets.size

    def test_table_cache_stays_bounded(self):
        bound = circle_maps._sine_family_inverse_table.cache_info().maxsize
        assert bound <= 16
        for k in range(100):
            circle_maps._sine_family_bracket(2, 0.5 + k * 1e-3, np.array([1.0]))
        assert circle_maps._sine_family_inverse_table.cache_info().currsize <= bound

    @pytest.mark.parametrize(
        "D, a, widest, evaluations",
        [
            (2, 1.998, 2.0e-4, 4.5),
            (2, -1.998, 2.0e-4, 3.8),
            (5, -4.9, 4e-13, 3.8),
            (1, 0.999, 2.4e-4, 4.45),
            (1, -0.999, 2.4e-4, 3.8),
        ],
    )
    def test_near_degenerate_seed(self, D, a, widest, evaluations, monkeypatch):
        # |a| close to D: the certified seed stays narrow even at the flat
        # spot, and the solver needs few evaluations per root, ends included
        rng = np.random.default_rng(5)
        targets = np.concatenate([np.linspace(0.0, D, 201), rng.random(100) * D, _flat_spot_targets(D, a)])
        lo, hi = circle_maps._sine_family_bracket(D, a, targets)
        assert np.max(hi - lo) <= widest
        counter = _count_solver_evaluations(monkeypatch)
        if D > 1:
            inverse_branch_values(smooth_sine_map(D, a), 0, targets)
        else:
            homeo_inverse_values(sine_homeo(a), targets)
        assert counter["points"] <= evaluations * targets.size


def _family_fn(D, a):
    """The lift of the family member (D, a), as its map kind evaluates it."""
    if D > 1:
        spec = smooth_sine_map(D, a)
        return lambda u: circle_maps._unit_lift(spec, u, TOL)
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


class TestCertifiedFinish:
    """A bracket at most tol wide is finished from the targets alone."""

    def test_unit_ends_are_exact(self):
        # f(0) = 0 and f(1) = D bit for bit: |a*sin(2*pi)/(2*pi)| < half an ulp of D
        sweep = [(D, float(a)) for D in range(1, 9) for a in np.linspace(-D, D, 401)[1:-1]]
        for D, a in SINE_FAMILY + [(5, -4.9), (3, 2.997)] + sweep:
            assert _family_fn(D, a)(np.array([0.0, 1.0])).tolist() == [0.0, float(D)], (D, a)

    @pytest.mark.parametrize("tol", [1e-13, 1e-10, 1e-6])
    @pytest.mark.parametrize("D, a", SINE_FAMILY)
    def test_equals_bracket_then_full_solve_bitwise(self, D, a, tol):
        targets = _oracle_targets(D, a)
        got = circle_maps._solve_sine_family(D, a, targets, tol)
        want = reference_sine_family_solve(D, a, targets, tol)
        assert got.tobytes() == want.tobytes()

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
        # the bracket no longer guards NaN with np.errstate: none reaches it
        for D, a in SINE_FAMILY:
            targets = _oracle_targets(D, a)
            with np.errstate(divide="raise", invalid="raise", over="raise"):
                circle_maps._solve_sine_family(D, a, targets, TOL)


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

    @pytest.mark.parametrize("y", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("spec_name", ["lin2", "f06", "smooth05"])
    def test_non_finite_target_rejected(self, request, spec_name, y):
        spec = request.getfixturevalue(spec_name)
        with pytest.raises(ValueError, match=r"^y must be finite, got (inf|-inf|nan)$"):
            global_inverse_lift(spec, y, 3)


class TestValidate:
    def test_f06_passes(self, f06):
        assert validate(f06).ok

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
        # only the numeric grid check rejects it
        report = validate(make_conjugated(base, homeo))
        assert [v.code for v in report.violations] == ["non_monotone"]
        assert report.violations[0].message.startswith("lift not strictly increasing on the validation grid")


class TestMakeConjugated:
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
            circle_maps.chain_error_bound(nested, TOL, 8), circle_maps.chain_error_bound(flat, TOL, 8)
        )
