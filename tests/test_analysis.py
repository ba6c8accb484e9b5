"""Distortion ratios, moduli, measure preservation, dilatation, tail sums."""

import math

import numpy as np
import pytest

from circledyn import (
    ConjugacyMap,
    DegreeMismatchError,
    DepthCapExceeded,
    InvalidMapError,
    ResolutionExhausted,
    WorkCapExceeded,
    CellCapExceeded,
    Word,
    compose_homeos,
    dilatation_report,
    dyadic_intervals,
    global_inverse_lift,
    identity_homeo,
    inverse_orbit,
    iter_dilatation_reports,
    iter_uqs_ratios,
    linear_map,
    make_conjugated,
    measure_deviation,
    measure_profile,
    piecewise_linear,
    qs_ratio,
    sine_homeo,
    smooth_sine_map,
    symmetry_modulus,
    tail_sum,
    uqs_ratio_endo,
)
from circledyn import analysis, circle_maps, conjugacy
from circledyn.repro import _random_pl_pairs
from circledyn.symbolic_partition import cylinder_lengths, index_of_word, word_of_index
from _oracles import (
    conjugated_inverse_branch,
    pl_tail_sum_bruteforce,
    reference_inverse_lift,
    reference_measure_profile,
    reference_uqs_ratio,
    sine_homeo_lift,
)

# measure deviation of conjugated(linear 2, sine 0.5) on 256 dyadic intervals,
# pinned from a 40-digit bisection oracle before the build
PINNED_CONJUGATED_DEVIATION = 0.0039046823935966124

# homeomorphism specs whose lifts are not monotone: |c| >= 1
INVALID_HOMEOS = [sine_homeo(5.0), compose_homeos([sine_homeo(-3.0)])]


class TestQsRatio:
    def test_identity_is_one(self):
        h = identity_homeo()
        for x, t in ((0.0, 0.25), (0.3, 0.1), (0.9, 0.49)):
            assert qs_ratio(h, x, t) == pytest.approx(1.0, rel=1e-15)

    def test_conjugacy_collapse_at_zero(self, f06, lin2):
        # left increment is the cylinder ending at 1; right increment is much smaller
        h = ConjugacyMap(f06, lin2, tol=1e-10)
        ratio = qs_ratio(h, 0.0, 0.4**3)
        assert ratio <= 0.25
        # oracle: bracket h(0.064) by the level-8 endpoint table
        from circledyn import endpoint_table

        table = endpoint_table(f06, lin2, 8)
        j = int(np.searchsorted(table.f_points, 0.4**3, side="right")) - 1
        lo_bound = float(table.g_points[j]) / 0.125
        hi_bound = float(table.g_points[j + 1]) / 0.125
        assert lo_bound <= ratio <= hi_bound

    def test_smooth_homeo_ratios_tend_to_one(self):
        # differentiable with nonzero derivative, so ratios approach 1 like t
        h = sine_homeo(0.5)
        for t in (1e-2, 1e-3, 1e-4, 1e-5):
            assert abs(qs_ratio(h, 0.25, t) - 1.0) <= 4.0 * t + 1e-12

    def test_swapped_increments_give_reciprocal(self):
        h = sine_homeo(0.5)
        x, t = 0.37, 0.11
        vals = [sine_homeo_lift(0.5, v) for v in (x + t, x, x - t)]
        swapped = (vals[1] - vals[2]) / (vals[0] - vals[1])
        assert qs_ratio(h, x, t) * swapped == pytest.approx(1.0, rel=1e-14)

    def test_degenerate_denominator(self):
        step = lambda x: np.floor(np.asarray(x, dtype=float))
        with pytest.raises(ResolutionExhausted):
            qs_ratio(step, 0.5, 0.25)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            qs_ratio(identity_homeo(), 0.3, 0.0)

    @pytest.mark.parametrize(
        "x, t, name",
        [(math.nan, 0.1, "x"), (math.inf, 0.1, "x"), (-math.inf, 0.1, "x"),
         (0.3, math.nan, "t"), (0.3, math.inf, "t"), (0.3, -math.inf, "t")],
    )
    def test_non_finite_arguments_rejected_before_any_work(self, x, t, name):
        def no_work(xs):
            raise AssertionError("lift evaluated for a non-finite argument")

        with pytest.raises(ValueError, match=rf"^{name} must be finite, got "):
            qs_ratio(no_work, x, t)
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got "):
            qs_ratio(sine_homeo(0.3), x, t)

    @pytest.mark.parametrize("h", INVALID_HOMEOS, ids=lambda h: h.describe())
    def test_invalid_homeo_spec_rejected(self, h):
        with pytest.raises(InvalidMapError, match="non-monotone"):
            qs_ratio(h, 0.25, 0.2)


class TestSymmetryModulus:
    def test_identity_is_zero(self):
        report = symmetry_modulus(identity_homeo(), scales=[0.25, 0.125], grid=64)
        assert report.worst() == 0.0

    @pytest.mark.parametrize("h", INVALID_HOMEOS, ids=lambda h: h.describe())
    def test_invalid_homeo_spec_rejected(self, h):
        with pytest.raises(InvalidMapError, match="non-monotone"):
            symmetry_modulus(h, scales=[0.25], grid=16)

    def test_conjugacy_deviation_grows_at_small_scales(self, f06, lin2):
        h = ConjugacyMap(f06, lin2, tol=1e-10)
        report = symmetry_modulus(h, scales=[0.4**n for n in range(2, 7)], grid=32)
        by_scale = {row.scale: row.deviation for row in report.rows}
        for n in range(3, 7):
            assert by_scale[0.4**n] >= 0.75

    def test_self_conjugacy_bounded_by_enclosure_error(self, f06):
        tol = 1e-8
        h = ConjugacyMap(f06, f06, tol=tol)
        scales = [2.0**-j for j in range(1, 5)]
        report = symmetry_modulus(h, scales=scales, grid=64)
        for row in report.rows:
            assert row.deviation <= 10.0 * tol / row.scale

    def test_scales_sorted_and_validated(self):
        report = symmetry_modulus(identity_homeo(), scales=[0.125, 0.25], grid=16)
        assert [row.scale for row in report.rows] == [0.25, 0.125]
        with pytest.raises(ValueError):
            symmetry_modulus(identity_homeo(), scales=[0.7], grid=16)

    @pytest.mark.parametrize(
        "scales",
        [[math.nan, 0.1], [0.1, math.nan], [math.nan], [0.25, math.inf], [-math.inf, 0.1]],
    )
    def test_non_finite_scale_rejected_before_any_work(self, scales):
        def no_work(xs):
            raise AssertionError("lift evaluated for a non-finite scale")

        for h in (no_work, sine_homeo(0.3)):
            with pytest.raises(ValueError, match=r"^scales must lie in \(0, 0\.5\]$"):
                symmetry_modulus(h, scales=scales, grid=16)

    def test_one_evaluation_matches_per_scale_rows(self, f06, lin2, monkeypatch):
        # reference: the per-scale loop, one lift evaluation per shifted grid
        h = ConjugacyMap(f06, lin2, tol=1e-10)
        scales = [2.0**-j for j in range(1, 11)]
        xs = np.arange(256, dtype=float) / 256
        mid = h.lift_values(xs)
        want = []
        for t in scales:
            ratio = (h.lift_values(xs + t) - mid) / (mid - h.lift_values(xs - t))
            dev = np.maximum(ratio - 1.0, 1.0 / ratio - 1.0)
            j = int(np.argmax(dev))
            want.append((t, float(dev[j]), float(xs[j])))
        calls = []
        enclosures = conjugacy.conjugacy_enclosures
        monkeypatch.setattr(
            conjugacy, "conjugacy_enclosures", lambda *a, **k: calls.append(1) or enclosures(*a, **k)
        )
        report = symmetry_modulus(h, scales=scales, grid=256)
        assert len(calls) == 1
        got = [(row.scale, row.deviation, row.argmax_x) for row in report.rows]
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_large_grids_are_evaluated_in_batches_of_whole_rows(self):
        sizes = []

        def lift(x):
            sizes.append(x.size)
            return x + 0.3 * np.sin(2 * np.pi * x) / (2 * np.pi)

        grid, scales = 2**14, [0.25, 0.125, 0.0625]
        report = symmetry_modulus(lift, scales=scales, grid=grid)
        assert sum(sizes) == (2 * len(scales) + 1) * grid
        assert all(size % grid == 0 and size <= analysis._MODULUS_BATCH for size in sizes)
        xs = np.arange(grid, dtype=float) / grid
        mid = lift(xs)
        for row, t in zip(report.rows, scales):
            ratio = (lift(xs + t) - mid) / (mid - lift(xs - t))
            assert row.deviation == float(np.max(np.maximum(ratio - 1.0, 1.0 / ratio - 1.0)))

    def test_exhausted_resolution_names_the_largest_failing_scale(self):
        # increments vanish once t drops below the rounding step 5e-4
        calls = []

        def rounded(x):
            calls.append(1)
            return np.round(x, 3)

        with pytest.raises(ResolutionExhausted, match=r"^increment below floor at scale t=0.00048828125$"):
            symmetry_modulus(rounded, scales=[0.25, 2.0**-12, 0.125, 2.0**-11], grid=4)
        assert len(calls) == 1


class TestUqsRatioEndo:
    def test_linear_identically_one(self, lin2):
        for x, t, n in ((0.0, 0.2, 1), (0.35, 0.1, 5), (0.9, 0.3, 12)):
            assert uqs_ratio_endo(lin2, x, t, n) == pytest.approx(1.0, abs=1e-13)

    def test_f06_growth(self, f06):
        # the ratio at the fixed point is (alpha / (1-alpha))^n
        for n in range(1, 13):
            assert uqs_ratio_endo(f06, 0.0, 0.2, n) == pytest.approx(1.5**n, rel=1e-12)

    def test_f06_n4_value(self, f06):
        assert uqs_ratio_endo(f06, 0.0, 0.2, 4) == pytest.approx(5.0625, rel=1e-12)

    def test_smooth_ratio_stays_bounded(self, smooth05):
        # a smooth expanding map is uniformly quasisymmetric
        ratios = [uqs_ratio_endo(smooth05, 0.3, 0.05, n) for n in range(1, 15)]
        assert max(ratios) < 3.0
        assert min(ratios) > 1.0 / 3.0

    @pytest.mark.parametrize(
        "x, t, name",
        [(math.inf, 0.2, "x"), (math.nan, 0.2, "x"), (-math.inf, 0.2, "x"),
         (0.0, math.inf, "t"), (0.0, math.nan, "t"), (0.0, -math.inf, "t")],
    )
    def test_non_finite_arguments_rejected_before_any_work(self, f06, monkeypatch, x, t, name):
        def no_work(*args, **kwargs):
            raise AssertionError("inverse orbit computed for a non-finite argument")

        monkeypatch.setattr(circle_maps, "_inverse_steps", no_work)
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got "):
            uqs_ratio_endo(f06, x, t, 3)
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got "):
            next(iter_uqs_ratios(f06, x, t, 3))


BATCHED_SPECS = [
    linear_map(2),
    linear_map(3),
    piecewise_linear([0.6]),
    piecewise_linear([0.3, 0.55]),
    smooth_sine_map(2, 0.5),
    smooth_sine_map(3, -2.997),
    make_conjugated(linear_map(2), sine_homeo(0.5)),
    make_conjugated(piecewise_linear([0.6]), sine_homeo(-0.7)),
    make_conjugated(smooth_sine_map(2, 1.5), sine_homeo(0.999)),
]


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class TestUqsOneOrbit:
    """The 3-wide orbit and the n-walk equal three scalar chains per n."""

    @pytest.mark.parametrize("spec", BATCHED_SPECS, ids=lambda spec: spec.describe())
    @pytest.mark.parametrize("x, t", [(0.0, 0.2), (0.3, 0.05), (-1.7, 0.4), (2.05, 0.01)])
    def test_equal_scalar_chains_bitwise(self, spec, x, t):
        n_max = 12
        want = [reference_uqs_ratio(spec, x, t, n) for n in range(1, n_max + 1)]
        assert _bits(list(iter_uqs_ratios(spec, x, t, n_max))) == _bits(want)
        for n in (1, 5, n_max):
            assert _bits([uqs_ratio_endo(spec, x, t, n)]) == _bits([want[n - 1]])

    @pytest.mark.parametrize("spec", BATCHED_SPECS, ids=lambda spec: spec.describe())
    def test_orbit_points_equal_single_orbits(self, spec):
        ys = (2.3, 0.0, -0.45, 1.0)
        for n, values in enumerate(inverse_orbit(spec, ys, 7), 1):
            assert _bits(values) == _bits([global_inverse_lift(spec, y, n) for y in ys])
            assert _bits(values) == _bits([reference_inverse_lift(spec, y, n) for y in ys])

    def test_walk_stops_where_the_per_n_loop_raises(self, f06):
        # the f_0.6 orbit of 0 - 0.2 lands on 0 - 0 (denominator 0) at n = 40
        walk = iter_uqs_ratios(f06, 0.0, 0.2, 45)
        ratios = [next(walk) for _ in range(39)]
        with pytest.raises(ResolutionExhausted) as walked:
            next(walk)
        with pytest.raises(ResolutionExhausted) as alone:
            uqs_ratio_endo(f06, 0.0, 0.2, 40)
        assert str(walked.value) == str(alone.value)
        assert ratios[-1] == uqs_ratio_endo(f06, 0.0, 0.2, 39)

    def test_depth_cap_raises_after_the_capped_ratios(self, smooth05):
        walk = iter_uqs_ratios(smooth05, 0.3, 0.05, 9, depth_cap=6)
        assert len([next(walk) for _ in range(6)]) == 6
        with pytest.raises(DepthCapExceeded, match=r"^inverse depth 7 exceeds cap 6$"):
            next(walk)
        with pytest.raises(DepthCapExceeded, match=r"^inverse depth 7 exceeds cap 6$"):
            uqs_ratio_endo(smooth05, 0.3, 0.05, 7, depth_cap=6)

    def test_empty_walk(self, f06):
        assert list(iter_uqs_ratios(f06, 0.0, 0.2, 0)) == []

    def test_one_solve_per_step(self, smooth05, monkeypatch):
        calls = []
        solve = circle_maps.inverse_branch_values

        def counted(*args, **kwargs):
            calls.append(np.size(args[2]))
            return solve(*args, **kwargs)

        monkeypatch.setattr(circle_maps, "inverse_branch_values", counted)
        list(iter_uqs_ratios(smooth05, 0.3, 0.05, 10))
        assert calls == [3] * 10


class TestMeasureDeviation:
    def test_linear(self, lin2):
        assert measure_deviation(lin2, dyadic_intervals(32)) <= 1e-14

    def test_piecewise_linear(self, f06):
        # branch inverse lengths are 0.6*(b-a) + 0.4*(b-a)
        assert measure_deviation(f06, dyadic_intervals(64)) <= 1e-12

    def test_conjugated_map_breaks_preservation(self, conj_smooth):
        dev = measure_deviation(conj_smooth, dyadic_intervals(256))
        assert dev > 1e-3
        assert dev == pytest.approx(PINNED_CONJUGATED_DEVIATION, abs=1e-9)

    def test_profile_matches_independent_oracle(self, conj_smooth):
        intervals = [(0.0, 0.25), (0.5, 0.75), (255 / 256, 1.0)]
        profile = measure_profile(conj_smooth, intervals)
        for (a, b), got in zip(intervals, profile):
            pre = sum(
                conjugated_inverse_branch(0.5, i, b) - conjugated_inverse_branch(0.5, i, a)
                for i in (0, 1)
            )
            assert got == pytest.approx(abs(pre - (b - a)), abs=1e-11)

    def test_interval_validation(self, lin2):
        with pytest.raises(ValueError):
            measure_deviation(lin2, [(0.5, 0.5)])

    @pytest.mark.parametrize("spec", [piecewise_linear([0.6]), smooth_sine_map(2, 0.5)], ids=["pl", "smooth"])
    @pytest.mark.parametrize(
        "bad", [(math.nan, 0.5), (0.0, math.nan), (-math.inf, 0.5), (0.5, math.inf), (math.nan, math.nan)]
    )
    def test_non_finite_ends_rejected_before_any_solve(self, spec, bad, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("inverse branch solved for a non-finite interval end")

        monkeypatch.setattr(analysis, "inverse_branch_values", no_work)
        with pytest.raises(ValueError, match="nondegenerate subintervals"):
            measure_profile(spec, [bad, (0.5, 1.0)])

    @pytest.mark.parametrize("spec", BATCHED_SPECS, ids=lambda spec: spec.describe())
    def test_profile_equals_per_branch_calls_bitwise(self, spec):
        intervals = dyadic_intervals(64) + [(0.0, 1.0), (0.1, 0.37), (0.5, 0.5000001), (1e-300, 1e-12)]
        want = reference_measure_profile(spec, intervals)
        assert _bits(measure_profile(spec, intervals)) == _bits(want)

    def test_empty_interval_list(self, smooth05):
        with pytest.raises(ValueError, match="interval list is empty"):
            measure_profile(smooth05, [])


class TestDilatationReport:
    def test_identity_pair(self, f06):
        report = dilatation_report(f06, f06, 4)
        assert report.max_ratio == 1.0
        assert report.min_ratio == 1.0

    def test_f06_linear_level2(self, f06, lin2):
        report = dilatation_report(f06, lin2, 2)
        assert report.max_ratio == pytest.approx(2.0**-2 / 0.4**2, rel=1e-12)
        assert report.argmax_word == Word.from_text("11")
        assert report.min_ratio == pytest.approx(2.0**-2 / 0.6**2, rel=1e-12)
        assert report.argmin_word == Word.from_text("00")

    def test_growth_sequence(self, f06, lin2):
        for n in range(1, 11):
            report = dilatation_report(f06, lin2, n)
            assert report.max_ratio == pytest.approx(1.25**n, abs=1e-9)

    def test_extremes_straddle_one_and_nest(self, f09, lin2):
        prev_max, prev_min = 1.0, 1.0
        for n in range(1, 7):
            report = dilatation_report(f09, lin2, n)
            assert report.min_ratio <= 1.0 <= report.max_ratio
            assert report.max_ratio >= prev_max
            assert report.min_ratio <= prev_min
            prev_max, prev_min = report.max_ratio, report.min_ratio

    def test_coarse_cells(self, f06, lin2):
        report = dilatation_report(f06, lin2, 4, coarse_level=2)
        assert len(report.coarse_max) == 4
        assert max(r for _, r in report.coarse_max) == report.max_ratio
        # every coarse cell of this mixing pair sees a ratio above 1 eventually
        words = [w.to_text() for w, _ in report.coarse_max]
        assert words == ["00", "01", "10", "11"]

    def test_coarse_level_bound(self, f06, lin2):
        with pytest.raises(ValueError):
            dilatation_report(f06, lin2, 3, coarse_level=3)

    def test_mirror_ties_pick_the_lexicographically_smaller_word(self, conj_smooth, smooth05):
        # both maps commute with x -> 1 - x, so the cylinder of a word and of
        # its mirror (s -> 1 - s, index j -> 2^n - 1 - j) have equal lengths
        # and their ratios differ by rounding alone
        for n in range(2, 9):
            report = dilatation_report(conj_smooth, smooth05, n)
            for word in (report.argmax_word, report.argmin_word):
                j = index_of_word(word, 2)
                assert j < 2**n - 1 - j, (n, word.to_text())


def _seeded_pl(d, seed):
    gaps = np.random.default_rng(seed).uniform(0.1, 1.0, size=d)
    return piecewise_linear(np.cumsum(gaps)[:-1] / np.sum(gaps))


def _brute_force_witnesses(f, g, n):
    """The dilatation witnesses from every ratio's radius: the first index tied with each extreme."""
    len_f, len_g = cylinder_lengths(f, n), cylinder_lengths(g, n)
    err_f, err_g = (circle_maps.chain_error_bound(spec, n)[n] for spec in (f, g))
    ratios = len_g / len_f
    with np.errstate(divide="ignore"):
        radius = 2.0 * (err_g + ratios * err_f) / np.maximum(len_f - 2.0 * err_f, 0.0)
    jmax = int(np.argmax(ratios + radius >= np.max(ratios - radius)))
    jmin = int(np.argmax(-ratios + radius >= np.max(-ratios - radius)))
    return word_of_index(jmax, n, f.degree), word_of_index(jmin, n, f.degree)


class TestDilatationWitnesses:
    @pytest.mark.parametrize(
        "f, g, n",
        [(f, g, 7) for f, g in _random_pl_pairs(12)]
        + [
            (_seeded_pl(4, 1), _seeded_pl(4, 2), 9),
            # mirror cylinders tie: both maps commute with x -> 1 - x
            (make_conjugated(linear_map(2), sine_homeo(0.5)), smooth_sine_map(2, 0.5), 8),
        ],
        ids=[f"pl_pair_{i}" for i in range(12)] + ["d4_n9_wide_ratio_spread", "mirror_ties"],
    )
    def test_witnesses_equal_the_brute_force_rule(self, f, g, n):
        for report in iter_dilatation_reports(f, g, n):
            assert (report.argmax_word, report.argmin_word) == _brute_force_witnesses(f, g, report.level)


class TestIterDilatationReports:
    @pytest.mark.parametrize(
        "f, g, n",
        [
            (piecewise_linear([0.6]), linear_map(2), 10),
            (piecewise_linear([0.3, 0.55]), linear_map(3), 6),
            (piecewise_linear([0.6]), smooth_sine_map(2, 0.5), 9),
            (make_conjugated(linear_map(2), sine_homeo(0.5)), smooth_sine_map(2, -0.7), 8),
        ],
        ids=["pl-linear", "pl3-linear3", "pl-smooth", "conjugated-smooth"],
    )
    def test_matches_per_level_reports(self, f, g, n):
        walked = list(iter_dilatation_reports(f, g, n))
        assert [r.level for r in walked] == list(range(1, n + 1))
        for report in walked:
            alone = dilatation_report(f, g, report.level)
            assert report == alone
            # bit for bit, not just equal as floats
            assert np.float64(report.max_ratio).tobytes() == np.float64(alone.max_ratio).tobytes()
            assert np.float64(report.min_ratio).tobytes() == np.float64(alone.min_ratio).tobytes()

    def test_errors_before_the_first_report(self, f06, lin2):
        with pytest.raises(DegreeMismatchError):
            next(iter_dilatation_reports(f06, linear_map(3), 2))
        with pytest.raises(CellCapExceeded):
            next(iter_dilatation_reports(f06, lin2, 5, cell_cap=16))

    def test_level_zero_is_empty(self, f06, lin2):
        assert list(iter_dilatation_reports(f06, lin2, 0)) == []


class TestTailSum:
    def test_linear_word0(self, lin2):
        report = tail_sum(lin2, Word.from_text("0"), 10)
        for row in report.rows:
            assert row.excluded_sum == pytest.approx(2.0**-row.k, abs=1e-15)
            assert row.bound_empirical == pytest.approx(row.excluded_sum, abs=1e-15)
            assert row.interval_count == 1

    def test_f06_word0(self, f06):
        report = tail_sum(f06, Word.from_text("0"), 8)
        assert report.ratio_floor == pytest.approx(0.4, abs=1e-15)
        for row in report.rows:
            assert row.excluded_sum == pytest.approx(0.4**row.k, rel=1e-13)
            assert row.excluded_sum <= 0.6**row.k + 1e-15

    def test_f06_word01_matches_bruteforce(self, f06):
        report = tail_sum(f06, Word.from_text("01"), 3)
        got = report.rows[-1].excluded_sum
        assert got == pytest.approx(0.76**3, rel=1e-13)  # 1 - |I_01| = 0.76
        oracle = pl_tail_sum_bruteforce([0.6], (0, 1), 3)
        assert got == pytest.approx(oracle, rel=1e-12)
        assert report.rows[-1].interval_count == 27
        a2 = 0.4**2  # A = min level-2 cylinder length ratio
        assert report.ratio_floor == pytest.approx(a2, abs=1e-15)
        assert got <= (1 - a2) ** 3 + 1e-15

    def test_smooth_enumeration_bounds(self, smooth05):
        report = tail_sum(smooth05, Word.from_text("01"), 5)
        assert report.method == "enumeration"
        prev = 1.0
        for row in report.rows:
            assert row.excluded_sum <= row.bound_empirical + 1e-12
            assert row.bound_empirical <= row.bound_bg_constant + 1e-12
            assert row.excluded_sum <= prev  # S_k is nonincreasing
            prev = row.excluded_sum
            assert row.interval_count == 3**row.k

    def test_smooth_matches_direct_interval(self, smooth05):
        # with the single excluded block "0", S_k is one cylinder's length
        from circledyn import interval_of_word

        report = tail_sum(smooth05, Word.from_text("0"), 6)
        for row in report.rows:
            cyl = interval_of_word(smooth05, Word((1,) * row.k))
            assert row.excluded_sum == pytest.approx(cyl.length, abs=1e-11)

    def test_work_cap(self, f06):
        with pytest.raises(WorkCapExceeded):
            tail_sum(f06, Word.from_text("01010"), 10)

    def test_cell_cap(self, smooth05):
        with pytest.raises(CellCapExceeded):
            tail_sum(smooth05, Word.from_text("01"), 11, cell_cap=2**20)

    def test_cover_measure_decays(self, lin2, f06, smooth05):
        for spec in (lin2, f06, smooth05):
            report = tail_sum(spec, Word.from_text("0"), 10)
            assert any(row.excluded_sum < 1e-3 for row in report.rows)
