"""Conjugacy enclosures, endpoint tables, and the functional-equation residual."""

import functools
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from circledyn import (
    ConjugacyMap,
    DegreeMismatchError,
    EndpointTable,
    conjugacy_enclosures,
    conjugacy_eval,
    conjugacy_residual,
    endpoint_table,
    eval_lift,
    homeo_lift_values,
    level_endpoints,
    linear_map,
    make_conjugated,
    mesh,
    piecewise_linear,
    qs_ratio,
    sine_homeo,
    smooth_sine_map,
    symmetry_modulus,
    word_of_point,
    interval_of_word,
    lift_values,
)
from circledyn import conjugacy
from circledyn.circle_maps import chain_error_bound
from circledyn.conjugacy import ConjugacyResidual
from _oracles import exact_cylinder, pl_exact_word


class TestConjugacyEval:
    def test_identity_pair_encloses_input(self, f06):
        enc = conjugacy_eval(f06, f06, 0.37, tol=1e-8)
        assert enc.lo <= 0.37 <= enc.hi
        assert enc.width <= 1e-8
        assert enc.tol_met

    def test_level1_endpoint_maps_exactly(self, f06, lin2):
        # forced by h(f^{-1}(0)) = g^{-1}(0) with order preserved: a point on
        # an f-division gets the tol-wide g-cylinder on its right, whose left
        # end is the division's g-image
        enc = conjugacy_eval(f06, lin2, 0.6, tol=1e-8)
        table = endpoint_table(f06, lin2, 1)
        assert table.f_points[1] == 0.6
        assert enc.lo == table.g_points[1] == 0.5
        assert enc.width <= 1e-8 and enc.tol_met

    def test_level2_endpoint_maps_exactly(self, f06, lin2):
        enc = conjugacy_eval(f06, lin2, 0.84, tol=1e-8)
        # oracle: the level-2 endpoint table pairs 0.84 with 0.75
        table = endpoint_table(f06, lin2, 2)
        j = int(np.argmin(np.abs(table.f_points - 0.84)))
        assert enc.lo == table.g_points[j] == 0.75
        assert enc.width <= 1e-8 and enc.tol_met

    def test_fixed_ends(self, f06, lin2):
        assert conjugacy_eval(f06, lin2, 0.0).lo == 0.0
        assert conjugacy_eval(f06, lin2, 0.0).hi == 0.0
        assert conjugacy_eval(f06, lin2, 1.0).lo == 1.0

    def test_enclosure_width_bounded_by_mesh(self, f06, lin2):
        for x in (0.1, 0.37, 0.62, 0.9):
            enc = conjugacy_eval(f06, lin2, x, tol=1e-6)
            assert enc.width <= mesh(lin2, enc.depth) + 1e-15

    @pytest.mark.parametrize("pair, tol", [(("f06", "f09"), 1e-10), (("smooth05", "f06"), 1e-6)])
    def test_blocks_change_no_bit(self, request, pair, tol):
        f, g = (request.getfixturevalue(name) for name in pair)
        block = conjugacy._ENCLOSURE_BLOCK
        xs = np.linspace(0.0, 1.0, block + 501)
        whole = conjugacy_enclosures(f, g, xs, tol=tol)
        parts = [conjugacy_enclosures(f, g, xs[:block], tol=tol), conjugacy_enclosures(f, g, xs[block:], tol=tol)]
        for got, *pieces in zip(whole, *parts):
            assert np.array_equal(got, np.concatenate(pieces))

    def test_flagged_when_tolerance_unreachable(self, f06, lin2):
        enc = conjugacy_eval(f06, lin2, 0.37, tol=1e-10, depth_cap=4)
        assert not enc.tol_met
        assert enc.depth == 4
        assert enc.width > 1e-10  # best effort, still a sound enclosure

    def test_word_matching_semantics(self, f06, lin2):
        # the enclosure is the g-cylinder of x's f-word
        x = 0.41
        enc = conjugacy_eval(f06, lin2, x, tol=1e-3)
        word = word_of_point(f06, x, enc.depth)
        cyl = interval_of_word(lin2, word)
        assert enc.lo == pytest.approx(cyl.left, abs=1e-13)
        assert enc.hi == pytest.approx(cyl.right, abs=1e-13)

    def test_degree_mismatch(self, f06):
        with pytest.raises(DegreeMismatchError):
            conjugacy_eval(f06, linear_map(3), 0.5)

    def test_monotone_on_grid(self, f06, lin2):
        xs = np.linspace(0.0, 1.0, 257)
        lo, hi, _, _ = conjugacy_enclosures(f06, lin2, xs, tol=1e-10)
        mids = 0.5 * (lo + hi)
        assert np.all(np.diff(mids) >= 0)
        assert mids[0] == 0.0 and mids[-1] == 1.0


def _points_near_divisions() -> np.ndarray:
    """Floats near 300 exact divisions of f_0.6 of depth 1..28: the nearest
    float, one and two ulps either side, and 1e-13 to 9e-13 off."""
    f = piecewise_linear([0.6])
    rng = np.random.default_rng(22)
    divisions = []
    for _ in range(300):
        word = tuple(rng.integers(0, 2, int(rng.integers(0, 28))).tolist()) + (1,)
        divisions.append(float(exact_cylinder(f, word)[0]))
    c = np.asarray(divisions)
    up, down = np.nextafter(c, 2.0), np.nextafter(c, -1.0)
    near = [c, up, np.nextafter(up, 2.0), down, np.nextafter(down, -1.0)]
    return np.unique(np.concatenate(near + [c + t for t in (1e-13, 3e-13, 6e-13, 9e-13, -3e-13)]))


@functools.lru_cache(maxsize=None)
def _containment(tol: float) -> tuple[np.ndarray, np.ndarray]:
    """For each point of ``_points_near_divisions``: whether its f_0.6 -> linear(2)
    enclosure holds h(x), and whether x lies farther than the f-chain's
    error bound at the stop depth k from every division of depth <= k."""
    f, g = piecewise_linear([0.6]), linear_map(2)
    xs = _points_near_divisions()
    lo, hi, depth, met = conjugacy_enclosures(f, g, xs, tol=tol)
    assert met.all()
    radius = chain_error_bound(f, int(depth.max()))
    inside, clear = [], []
    for x, a, b, k in zip(xs.tolist(), lo.tolist(), hi.tolist(), depth.tolist()):
        # the divisions of depth <= k nearest x are the ends of its exact
        # level-k cylinder, and h(x) lies in linear(2)'s cylinder of the same
        # word, [0.w, 0.w + 2^-k] in binary
        word, margin = pl_exact_word([0.6], x, k)
        h_lo = Fraction(int("".join(map(str, word)), 2), 2**k)
        inside.append(Fraction(a) <= h_lo and h_lo + Fraction(1, 2**k) <= Fraction(b))
        clear.append(margin > radius[k])
    return np.asarray(inside), np.asarray(clear)


class TestContainment:
    """Every enclosure is the tol-wide g-cylinder of x's f-word, also for x
    on or beside an f-division, where h (only Holder for f != g) is steep."""

    @pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
    def test_points_clear_of_every_division(self, tol):
        inside, clear = _containment(tol)
        assert clear.sum() >= 1200
        assert inside[clear].all(), f"{np.sum(~inside[clear])} of {clear.sum()} miss h(x)"

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 9: within rounding of a division the chain may put x on "
        "the wrong side of it, so its enclosure is the neighbouring g-cylinder"))
    @pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
    def test_points_within_rounding_of_a_division(self, tol):
        inside, clear = _containment(tol)
        assert inside[~clear].all(), f"{np.sum(~inside[~clear])} of {np.sum(~clear)} miss h(x)"


class TestEndpointTable:
    def test_identity_pairs(self, f06):
        table = endpoint_table(f06, f06, 6)
        assert np.array_equal(table.f_points, table.g_points)

    def test_f06_to_linear_level2(self, f06, lin2):
        table = endpoint_table(f06, lin2, 2)
        assert np.allclose(table.f_points, [0.0, 0.36, 0.6, 0.84, 1.0], atol=1e-15)
        assert np.allclose(table.g_points, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-15)

    def test_swap_gives_inverse_relation(self, f06, lin2):
        fwd = endpoint_table(f06, lin2, 4)
        back = endpoint_table(lin2, f06, 4)
        assert np.array_equal(fwd.f_points, back.g_points)
        assert np.array_equal(fwd.g_points, back.f_points)

    def test_rejects_non_monotone_data(self):
        with pytest.raises(ValueError):
            EndpointTable(
                level=1,
                f_points=np.asarray([0.0, 0.5, 0.5, 1.0]),
                g_points=np.asarray([0.0, 0.3, 0.6, 1.0]),
            )

    def test_word_equivariance(self, f06, lin2):
        # h maps I_w(f) endpoints onto I_w(g) endpoints, tested through eval
        table = endpoint_table(f06, lin2, 5)
        lo, hi, _, met = conjugacy_enclosures(f06, lin2, table.f_points, tol=1e-9)
        assert np.array_equal(lo, table.g_points)
        assert np.all(hi - lo <= 1e-9) and met.all()


class TestFunctionalEquation:
    def test_identity_residual(self, f06):
        report = conjugacy_residual(f06, f06, 128, tol=1e-8)
        assert report.max_residual <= 2e-8

    def test_f06_linear_residual(self, f06, lin2):
        report = conjugacy_residual(f06, lin2, 1024, tol=1e-8)
        assert report.max_residual <= 1e-6
        assert report.tol_met_all

    @pytest.mark.parametrize(
        "f_name, g_name, grid",
        [("f06", "lin2", 64), ("smooth05", "lin2", 32), ("conj_smooth", "lin2", 32), ("conj_smooth", "smooth05", 16),
         ("f06", "lin2", conjugacy._ENCLOSURE_BLOCK // 2 + 512)],
    )
    def test_one_enclosure_call_equals_two(self, request, f_name, g_name, grid):
        # the residual refines the grid and its images in one call; the report
        # must equal that of one call on each, field by field
        f, g = request.getfixturevalue(f_name), request.getfixturevalue(g_name)
        tol = 1e-8
        xs = np.arange(grid, dtype=float) / grid
        lo1, hi1, _, met1 = conjugacy_enclosures(f, g, xs, tol=tol)
        fx = lift_values(f, xs)
        fx_frac = np.clip(fx - np.floor(fx), 0.0, 1.0)
        lo2, hi2, _, met2 = conjugacy_enclosures(f, g, fx_frac, tol=tol)
        g_hx = lift_values(g, 0.5 * (lo1 + hi1))
        residuals = np.abs((0.5 * (lo2 + hi2) - g_hx + 0.5) % 1.0 - 0.5)
        worst = int(np.argmax(residuals))
        expected = ConjugacyResidual(
            max_residual=float(residuals[worst]),
            max_enclosure_width=max(float(np.max(hi1 - lo1)), float(np.max(hi2 - lo2))),
            argmax_x=float(xs[worst]),
            grid_size=grid,
            tol=tol,
            tol_met_all=bool(np.all(met1) and np.all(met2)),
        )
        assert conjugacy_residual(f, g, grid, tol=tol) == expected

    def test_equation_at_endpoints(self, f06, lin2):
        # transported dynamics: g(h(e)) equals h(f(e)) at level-n f-endpoints
        table_n = endpoint_table(f06, lin2, 4)
        table_prev = endpoint_table(f06, lin2, 3)
        for j in range(len(table_n) - 1):
            e, e_img = table_n.f_points[j], table_n.g_points[j]
            fe = eval_lift(f06, float(e)) % 1.0
            ge = eval_lift(lin2, float(e_img)) % 1.0
            k = int(np.argmin(np.abs(table_prev.f_points - fe)))
            assert abs(table_prev.f_points[k] - fe) < 1e-10
            assert ge == pytest.approx(float(table_prev.g_points[k]), abs=1e-10)

    def test_constructed_pair_recovers_homeo(self, lin2):
        homeo = sine_homeo(0.5)
        f = make_conjugated(lin2, homeo)
        table = endpoint_table(f, lin2, 10)
        expected = homeo_lift_values(homeo, table.f_points)
        assert float(np.max(np.abs(table.g_points - expected))) <= 1e-6


class TestConjugacyMap:
    def test_lift_periodicity(self, f06, lin2):
        h = ConjugacyMap(f06, lin2, tol=1e-10)
        for x in (0.21, 0.73):
            assert h(x + 1.0) == pytest.approx(h(x) + 1.0, abs=1e-12)
            assert h(x - 2.0) == pytest.approx(h(x) - 2.0, abs=1e-12)

    def test_batch_matches_scalar(self, f06, lin2):
        h = ConjugacyMap(f06, lin2, tol=1e-10)
        xs = np.asarray([0.0, 0.125, 0.6, 0.84, 0.97])
        batch = h.lift_values(xs)
        singles = [h(float(x)) for x in xs]
        assert np.allclose(batch, singles, atol=0)

    @staticmethod
    def _points():
        ints = np.arange(-3.0, 4.0)
        return np.concatenate((
            np.linspace(-3.0, 3.0, 241), ints, [-0.0, 0.0, -1e-20, 1e-20],
            np.nextafter(ints, -np.inf), np.nextafter(ints, np.inf),
        ))

    @pytest.mark.parametrize("tol, depth_cap", [(1e-10, 48), (1e-10, 4)])
    def test_enclose_reads_the_enclosures_at_x_mod_1(self, f06, lin2, smooth05, tol, depth_cap):
        xs = self._points()
        u = xs - np.floor(xs)
        # the reductions it replaced: Python's float %, clipped, and x - floor(x), clipped
        assert np.clip(xs % 1.0, 0.0, 1.0).tobytes() == u.tobytes()
        assert np.clip(u, 0.0, 1.0).tobytes() == u.tobytes()
        for g in (lin2, smooth05):
            lo, hi, met = ConjugacyMap(f06, g, tol=tol, depth_cap=depth_cap).enclose(xs)
            want_lo, want_hi, _, want_met = conjugacy_enclosures(f06, g, u, tol=tol, depth_cap=depth_cap)
            assert lo.tobytes() == want_lo.tobytes() and hi.tobytes() == want_hi.tobytes()
            assert met.dtype == bool and np.array_equal(met, want_met)
            assert met.all() == (depth_cap == 48)

    def test_enclose_keeps_the_shape_of_x(self, f06, lin2):
        h = ConjugacyMap(f06, lin2, tol=1e-10)
        grid = self._points()[:240].reshape(12, 20)
        flat = h.enclose(grid.reshape(-1))
        for got, want in zip(h.enclose(grid), flat):
            assert got.shape == (12, 20) and got.tobytes() == want.tobytes()
        for x in (0.3, -2.7, np.float64(1.0)):
            point = h.enclose(x)
            assert all(part.shape == () for part in point)
            assert [part.item() for part in point] == [part[0].item() for part in h.enclose([x])]
        assert h.lift_values(grid).shape == (12, 20)

    def test_lift_values_are_the_midpoints_plus_floor(self, f06, lin2):
        h = ConjugacyMap(f06, lin2, tol=1e-10)
        xs = self._points()
        lo, hi, _ = h.enclose(xs)
        assert h.lift_values(xs).tobytes() == (0.5 * (lo + hi) + np.floor(xs)).tobytes()
        assert [h(x) for x in xs[:20].tolist()] == h.lift_values(xs[:20]).tolist()

    @pytest.mark.parametrize(
        "reader, x",
        [(reader, x) for reader in ("enclose", "lift_values", "__call__") for x in (np.inf, -np.inf, np.nan)]
        + [(reader, [0.3, np.inf, -2.0, np.nan]) for reader in ("enclose", "lift_values")],
        ids=[f"{reader}-{x}" for reader in ("enclose", "lift_values", "__call__") for x in ("inf", "-inf", "nan")]
        + ["enclose-mixed", "lift_values-mixed"],
    )
    def test_non_finite_points_refused_before_they_are_reduced(self, f06, lin2, reader, x):
        h = ConjugacyMap(f06, lin2, tol=1e-10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # x - floor(x) on inf warns before any check
            with pytest.raises(ValueError, match=r"^conjugacy evaluation points must be finite$"):
                getattr(h, reader)(x)

    def test_residual_checks_the_pair_before_the_tol(self, f06):
        with pytest.raises(DegreeMismatchError):
            conjugacy_residual(f06, linear_map(3), 8, tol=float("nan"))
        with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
            conjugacy_residual(f06, linear_map(2), 8, tol=float("nan"))


class TestRefusals:
    CASES = {
        "table_lengths": (
            lambda f, g: EndpointTable(level=1, f_points=np.asarray([0.0, 0.6, 1.0]), g_points=np.asarray([0.0, 1.0])),
            ValueError, "endpoint arrays must have equal length",
        ),
        "two_dimensional_points": (
            lambda f, g: conjugacy_enclosures(f, g, np.zeros((2, 2))), ValueError, "xs must be one-dimensional",
        ),
        "empty_residual_grid": (
            lambda f, g: conjugacy_residual(f, g, 0), ValueError, "grid_size must be >= 1, got 0",
        ),
        "negative_depth_cap_when_built": (
            lambda f, g: ConjugacyMap(f, g, depth_cap=-1), ValueError, "depth_cap must be >= 0, got -1",
        ),
    }

    @pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
    def test_refused_with_its_message(self, f06, lin2, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call(f06, lin2)


# every degree validation admits, up to DEGREE_CAP: level 6 of these maps has
# 11^6 to 1024^6 cylinders, far past the cell cap, so a gate that walked full
# levels would refuse them
HIGH_DEGREE_SELF = [linear_map(11), smooth_sine_map(12, 3.0), linear_map(37), smooth_sine_map(1024, 256.0)]
HIGH_DEGREE_PAIRS = [(f, f) for f in HIGH_DEGREE_SELF] + [
    (linear_map(11), smooth_sine_map(11, 2.0)),
    (linear_map(1024), smooth_sine_map(1024, 256.0)),
]


class TestHighDegree:
    @pytest.mark.parametrize("f", HIGH_DEGREE_SELF, ids=lambda f: f.describe())
    def test_self_conjugacy_is_the_identity(self, f):
        tol = 1e-10
        xs = np.linspace(0.0, 1.0, 41)
        lo, hi, _, met = conjugacy_enclosures(f, f, xs, tol=tol)
        assert met.all()
        assert np.max(np.abs(0.5 * (lo + hi) - xs)) <= tol
        enc = conjugacy_eval(f, f, 0.3, tol=tol)
        assert enc.tol_met and abs(enc.midpoint - 0.3) <= tol
        assert abs(ConjugacyMap(f, f, tol=tol)(0.3) - 0.3) <= tol

    @pytest.mark.parametrize("pair", HIGH_DEGREE_PAIRS, ids=lambda pair: f"{pair[0].describe()}->{pair[1].describe()}")
    def test_two_map_entry_points(self, pair):
        f, g = pair
        table = endpoint_table(f, g, 1)
        assert len(table) == f.degree + 1
        assert np.array_equal(table.g_points, level_endpoints(g, 1))
        report = conjugacy_residual(f, g, 16, tol=1e-10)
        assert report.tol_met_all and report.max_residual <= 1e-8
        h = ConjugacyMap(f, g, tol=1e-10)
        assert qs_ratio(h, 0.3, 0.01) > 0.0
        modulus = symmetry_modulus(h, scales=[0.25, 0.1], grid=8)
        assert len(modulus.rows) == 2
