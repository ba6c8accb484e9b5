"""Cylinder intervals, itineraries, level enumeration, and geometric constants."""

import inspect
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from circledyn import (
    CellCapExceeded,
    DepthCapExceeded,
    InvalidMapError,
    Word,
    bounded_geometry_constant,
    cylinder_lengths,
    drop_last,
    enumerate_level,
    interval_of_word,
    left_shift,
    level_endpoints,
    linear_map,
    make_conjugated,
    mesh,
    piecewise_linear,
    sine_homeo,
    smooth_sine_map,
    verify_markov,
    word_of_point,
)
from circledyn import circle_maps, defaults, symbolic_partition
from circledyn.circle_maps import chain_error_bound
from circledyn.symbolic_partition import CylinderInterval, index_of_word, level_words, word_of_index
from _oracles import (
    MP_DIGITS,
    exact_cylinder,
    mp_level_left_endpoints,
    pl_cylinder,
    pl_word_by_scan,
    reference_cylinder,
)


class TestWord:
    def test_text_roundtrip(self):
        assert Word.from_text("012").symbols == (0, 1, 2)
        assert Word.from_text("012").to_text() == "012"
        assert Word.from_text("").symbols == ()
        assert Word.from_text("0-11-3").symbols == (0, 11, 3)

    def test_shifts(self):
        assert left_shift(Word.from_text("012")) == Word.from_text("12")
        assert drop_last(Word.from_text("012")) == Word.from_text("01")
        assert left_shift(Word.from_text("0")) == Word(())
        assert drop_last(Word.from_text("0")) == Word(())

    def test_shift_of_empty_word_fails(self):
        with pytest.raises(ValueError):
            left_shift(Word(()))
        with pytest.raises(ValueError):
            drop_last(Word(()))

    def test_level(self):
        assert Word(()).level == 0
        assert Word((0, 1, 1)).level == 3

    @pytest.mark.parametrize("level, degree", [(0, 2), (1, 3), (4, 2), (3, 4), (2, 12)])
    def test_level_words_in_index_order(self, level, degree):
        words = level_words(level, degree)
        assert words == [word_of_index(j, level, degree) for j in range(degree**level)]
        assert [index_of_word(w, degree) for w in words] == list(range(degree**level))

    # degree 11 prints "93" but "10-3"; levels with more than one block join a
    # prefix to every suffix (degree 200: one symbol a block)
    @pytest.mark.parametrize(
        "level, degree",
        [(0, 2), (1, 2), (16, 2), (10, 3), (5, 10), (0, 11), (1, 11), (3, 11), (2, 200)],
    )
    def test_level_texts_are_the_word_texts(self, level, degree):
        blocks = list(symbolic_partition.level_texts(level, degree))
        assert max(map(len, blocks)) <= max(symbolic_partition._SOLVER_BLOCK, degree)
        assert [t for block in blocks for t in block] == [w.to_text() for w in level_words(level, degree)]


class TestIntervalOfWord:
    def test_linear_dyadic(self, lin2):
        cyl = interval_of_word(lin2, Word.from_text("01"))
        assert (cyl.left, cyl.right) == (0.25, 0.5)

    def test_f06(self, f06):
        cyl = interval_of_word(f06, Word.from_text("01"))
        assert cyl.left == pytest.approx(0.36, abs=1e-15)
        assert cyl.right == pytest.approx(0.6, abs=1e-15)
        assert cyl.length == pytest.approx(0.24, abs=1e-15)

    def test_empty_word_is_unit_interval(self, f06, smooth05):
        for spec in (f06, smooth05):
            cyl = interval_of_word(spec, Word(()))
            assert (cyl.left, cyl.right) == (0.0, 1.0)

    def test_matches_closed_form_oracle(self, f09):
        for text in ("0", "1", "10", "011", "1101"):
            cyl = interval_of_word(f09, Word.from_text(text))
            a, b = pl_cylinder([0.9], tuple(int(c) for c in text))
            assert cyl.left == pytest.approx(a, abs=1e-13)
            assert cyl.right == pytest.approx(b, abs=1e-13)

    def test_symbol_out_of_range(self, f06):
        with pytest.raises(ValueError):
            interval_of_word(f06, Word((0, 2)))

    def test_depth_cap(self, f06):
        with pytest.raises(DepthCapExceeded):
            interval_of_word(f06, Word((0,) * 61))

    def test_depth_cap_is_the_package_constant(self, f06, monkeypatch):
        for fn in (interval_of_word, word_of_point):
            assert "depth_cap" not in inspect.signature(fn).parameters
        with pytest.raises(DepthCapExceeded, match="^word level 61 exceeds cap 60$"):
            interval_of_word(f06, Word((1,) * 61))
        with pytest.raises(DepthCapExceeded, match="^level 61 exceeds cap 60$"):
            word_of_point(f06, 0.5, 61)
        # x is checked before n
        with pytest.raises(ValueError, match="outside"):
            word_of_point(f06, 1.0, 61)
        with pytest.raises(ValueError, match="^n must be >= 0$"):
            word_of_point(f06, 0.5, -1)
        # read at call time
        monkeypatch.setattr(defaults, "DEPTH_CAP", 5)
        with pytest.raises(DepthCapExceeded, match="^word level 6 exceeds cap 5$"):
            interval_of_word(f06, Word((1,) * 6))
        with pytest.raises(DepthCapExceeded, match="^level 6 exceeds cap 5$"):
            word_of_point(f06, 0.5, 6)

    def test_deep_word_stays_accurate(self, f06):
        cyl = interval_of_word(f06, Word((0,) * 40))
        assert cyl.left == 0.0
        assert cyl.right == pytest.approx(0.6**40, rel=1e-12)
        assert cyl.endpoint_radius < 1e-12


def _near_gap_pl(rng, degree: int):
    """A PL map whose narrowest branches are within a factor 2 of MIN_CUT_GAP."""
    widths = rng.uniform(0.1, 1.0, degree)
    tiny = rng.choice(degree, size=max(1, degree // 2), replace=False)
    widths[tiny] = defaults.MIN_CUT_GAP * rng.uniform(1.5, 2.0, tiny.size)
    rest = np.setdiff1d(np.arange(degree), tiny)
    widths[rest] *= (1.0 - widths[tiny].sum()) / widths[rest].sum()
    return piecewise_linear(np.cumsum(widths)[:-1])


def _closed_form_specs():
    rng = np.random.default_rng(20)
    specs = [linear_map(d) for d in range(2, 6)]
    specs += [_near_gap_pl(rng, d) for d in range(2, 6)]
    specs += [piecewise_linear(np.sort(rng.uniform(0.05, 0.95, d - 1))) for d in range(2, 6)]
    return specs


def _describe(spec) -> str:
    return spec.describe()


def _bits(a: float, b: float) -> tuple[str, str]:
    return float.hex(float(a)), float.hex(float(b))


class TestClosedFormCylinder:
    """Linear and PL cylinders come from a chain on two Python floats; it must
    equal the per-symbol vector chain bit for bit."""

    @pytest.mark.parametrize("spec", _closed_form_specs(), ids=_describe)
    def test_equals_per_symbol_chain_bit_for_bit(self, spec):
        d, cap = spec.degree, defaults.DEPTH_CAP
        rng = np.random.default_rng(spec.degree)
        words = [(), (0,) * cap, (d - 1,) * cap, (0,) * 7, (d - 1,) * 7]
        words += [tuple(int(s) for s in rng.integers(d, size=cap)) for _ in range(5)]
        words += [
            tuple(int(s) for s in rng.integers(d, size=rng.integers(0, cap + 1))) for _ in range(60)
        ]
        for symbols in words:
            cyl = interval_of_word(spec, Word(symbols))
            ref = reference_cylinder(spec, symbols)
            assert _bits(cyl.left, cyl.right) == _bits(*ref), symbols
            assert type(cyl.left) is float and type(cyl.right) is float

    @pytest.fixture
    def branch_calls(self, monkeypatch):
        """Counts inverse_branch_values calls: from interval_of_word, and from
        anywhere in circle_maps."""
        counts = {"partition": 0, "circle_maps": 0}

        def counted(module, key):
            fn = module.inverse_branch_values

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, "inverse_branch_values", wrapper)

        counted(symbolic_partition, "partition")
        counted(circle_maps, "circle_maps")
        return counts

    @pytest.mark.parametrize("spec", [linear_map(3), piecewise_linear([0.3, 0.55])], ids=_describe)
    def test_closed_forms_make_no_vector_call(self, spec, branch_calls):
        interval_of_word(spec, Word((0, 1, 2) * 13))
        assert branch_calls == {"partition": 0, "circle_maps": 0}

    @pytest.mark.parametrize(
        "spec", [smooth_sine_map(2, 0.5), make_conjugated(linear_map(2), sine_homeo(0.5))], ids=_describe
    )
    def test_root_solved_kinds_make_one_call_per_symbol(self, spec, branch_calls):
        word = Word((1, 0) * 8 + (1,))
        cyl = interval_of_word(spec, word)
        assert branch_calls["partition"] == word.level
        assert 0.0 < cyl.left < cyl.right < 1.0
        # one chain on both ends gives the per-symbol chain's bits
        for symbols in ((), (0,), word.symbols, (1,) * 30):
            cyl = interval_of_word(spec, Word(symbols))
            assert _bits(cyl.left, cyl.right) == _bits(*reference_cylinder(spec, symbols)), symbols


# degree 2, so a level-12 enumeration stays at 4096 cells
RADIUS_SPECS = [
    linear_map(2),
    piecewise_linear([0.6]),
    smooth_sine_map(2, -1.2),
    make_conjugated(piecewise_linear([0.7]), sine_homeo(-0.7)),
]


def _within(value: float, exact, radius: float) -> bool:
    """``|value - exact| <= radius`` exactly: ``exact`` a Fraction or an mpmath number."""
    if isinstance(exact, Fraction):
        return abs(Fraction(value) - exact) <= Fraction(radius)
    with mpmath.workdps(MP_DIGITS):
        return abs(mpmath.mpf(value) - exact) <= mpmath.mpf(radius)


class TestEndpointRadius:
    """Every cylinder's radius is the one error rule, ``chain_error_bound``,
    and it contains the exact ends."""

    @pytest.mark.parametrize("spec", RADIUS_SPECS, ids=_describe)
    def test_radius_is_the_chain_error_bound(self, spec):
        for n in (0, 1, 5, 12):
            want = float(chain_error_bound(spec, n)[n])
            assert interval_of_word(spec, Word((spec.degree - 1,) * n)).endpoint_radius == want
            assert {c.endpoint_radius for c in enumerate_level(spec, n)} == {want}
        assert interval_of_word(spec, Word(())).endpoint_radius == 0.0

    @pytest.mark.parametrize(
        "spec",
        [linear_map(2), linear_map(3), piecewise_linear([0.6]), piecewise_linear([0.05, 0.5]),
         _near_gap_pl(np.random.default_rng(7), 3)],
        ids=_describe,
    )
    def test_closed_form_words_contain_the_exact_ends(self, spec):
        rng = np.random.default_rng(spec.degree)
        words = [(0,) * 60, (spec.degree - 1,) * 60]
        words += [tuple(int(s) for s in rng.integers(spec.degree, size=rng.integers(1, 61))) for _ in range(40)]
        for symbols in words:
            cyl = interval_of_word(spec, Word(symbols))
            a, b = exact_cylinder(spec, symbols)
            assert _within(cyl.left, a, cyl.endpoint_radius), symbols
            assert _within(cyl.right, b, cyl.endpoint_radius), symbols

    @pytest.mark.parametrize("spec", [linear_map(3), piecewise_linear([0.6]), piecewise_linear([0.3, 0.55])], ids=_describe)
    def test_closed_form_levels_contain_the_exact_ends(self, spec):
        n = 5
        for cyl in enumerate_level(spec, n):
            a, b = exact_cylinder(spec, cyl.word.symbols)
            assert _within(cyl.left, a, cyl.endpoint_radius) and _within(cyl.right, b, cyl.endpoint_radius)

    @pytest.mark.parametrize(
        "spec",
        [smooth_sine_map(2, 0.5), smooth_sine_map(3, -1.2), make_conjugated(linear_map(2), sine_homeo(0.5)),
         smooth_sine_map(2, 1.99), make_conjugated(linear_map(2), sine_homeo(0.99))],
        ids=_describe,
    )
    def test_root_solved_cylinders_contain_the_mpmath_ends(self, spec):
        if spec.kind == "smooth_sine":
            kind, param = "smooth_sine", spec.epsilon
        else:
            kind, param = "conjugated_linear", spec.homeo.c
        n = 6 if spec.degree == 2 else 4
        exact = mp_level_left_endpoints(kind, spec.degree, param, n) + [mpmath.mpf(1)]
        for j, cyl in enumerate(enumerate_level(spec, n)):
            direct = interval_of_word(spec, cyl.word)
            for got in (cyl, direct):
                assert _within(got.left, exact[j], got.endpoint_radius), cyl.word
                assert _within(got.right, exact[j + 1], got.endpoint_radius), cyl.word


class TestWordOfPoint:
    def test_linear_binary_expansion(self, lin2):
        assert word_of_point(lin2, 0.3, 2) == Word.from_text("01")

    def test_f06_example(self, f06):
        # 0.5 lies in [0.36, 0.6)
        assert word_of_point(f06, 0.5, 2) == Word.from_text("01")

    def test_fixed_point_all_zeros(self, f06, smooth05):
        for spec in (f06, smooth05):
            assert word_of_point(spec, 0.0, 6) == Word((0,) * 6)

    def test_tie_break_right(self, f06):
        # 0.6 is shared by [0.36, 0.6] and [0.6, 0.84]; the right cylinder wins
        assert word_of_point(f06, 0.6, 1) == Word.from_text("1")
        assert word_of_point(f06, 0.6, 2) == Word.from_text("10")

    def test_matches_membership_scan(self, f09):
        for x in (0.05, 0.3141, 0.81, 0.9, 0.95):
            for n in (1, 2, 3):
                got = word_of_point(f09, x, n)
                assert got.symbols == pl_word_by_scan([0.9], x, n)

    def test_roundtrip_through_interval(self, f06, smooth05):
        for spec in (f06, smooth05):
            for text in ("0", "11", "010", "1011"):
                word = Word.from_text(text)
                cyl = interval_of_word(spec, word)
                mid = 0.5 * (cyl.left + cyl.right)
                assert word_of_point(spec, mid, word.level) == word

    def test_domain_check(self, f06):
        with pytest.raises(ValueError):
            word_of_point(f06, 1.0, 3)


class TestEnumerateLevel:
    def test_linear_level3(self, lin2):
        cells = enumerate_level(lin2, 3)
        ends = [c.left for c in cells] + [cells[-1].right]
        assert ends == [k / 8 for k in range(9)]
        assert [c.word.to_text() for c in cells[:3]] == ["000", "001", "010"]

    def test_f06_level1(self, f06):
        cells = enumerate_level(f06, 1)
        assert [(c.left, c.right) for c in cells] == [(0.0, 0.6), (0.6, 1.0)]

    def test_f06_level2_endpoints(self, f06):
        ends = level_endpoints(f06, 2)
        assert np.allclose(ends, [0.0, 0.36, 0.6, 0.84, 1.0], atol=1e-15)

    def test_neighbors_share_endpoints_exactly(self, smooth05):
        cells = enumerate_level(smooth05, 6)
        for a, b in zip(cells, cells[1:]):
            assert a.right == b.left

    def test_cell_cap(self, lin2):
        with pytest.raises(CellCapExceeded):
            enumerate_level(lin2, 8, cell_cap=100)

    @pytest.mark.parametrize("n", [0, 1, 6, 16])
    def test_lazy_level_equals_the_cell_list(self, f06, smooth05, n):
        # the cell list enumerate_level returned before it went lazy
        spec = f06 if n > 6 else smooth05
        ends = level_endpoints(spec, n).tolist()
        radius = float(chain_error_bound(spec, n)[n])
        want = [
            CylinderInterval(word=w, left=a, right=b, level=n, endpoint_radius=radius)
            for w, a, b in zip(level_words(n, 2), ends, ends[1:])
        ]
        cells = enumerate_level(spec, n)
        assert (len(cells), cells.level, cells.endpoint_radius) == (len(want), n, radius)
        assert cells[-1] == want[-1] and cells[0] == want[0] and cells[-len(want)] == want[0]
        assert cells[:3] == want[:3] and cells[5:1:-2] == want[5:1:-2]
        assert list(zip(cells, cells[1:])) == list(zip(want, want[1:]))
        assert list(cells) == want
        for j in (len(want), -len(want) - 1):
            with pytest.raises(IndexError):
                cells[j]

    def test_word_level_agreement(self, f06):
        for cyl in enumerate_level(f06, 3):
            direct = interval_of_word(f06, cyl.word)
            assert direct.left == cyl.left  # identical inverse-branch chains
            assert direct.right == pytest.approx(cyl.right, abs=1e-13)


class TestGeometricConstants:
    def test_linear_constant_is_degree(self, lin2):
        assert bounded_geometry_constant(lin2, 6) == pytest.approx(2.0, abs=1e-12)

    def test_f06_constant(self, f06):
        # ratios take only the values {1/0.6, 1/0.4}
        assert bounded_geometry_constant(f06, 8) == pytest.approx(2.5, abs=1e-9)

    def test_f09_constant(self, f09):
        # 1/(1 - 0.9); the thin cylinders at level 8 cost some float accuracy
        assert bounded_geometry_constant(f09, 8) == pytest.approx(10.0, abs=1e-6)

    def test_mesh_linear(self, lin2):
        assert mesh(lin2, 5) == pytest.approx(2.0**-5, abs=1e-15)

    def test_mesh_f06(self, f06):
        assert mesh(f06, 3) == pytest.approx(0.216, abs=1e-15)

    def test_mesh_ratio_bounded_by_max_branch(self, f06):
        meshes = [mesh(f06, n) for n in range(1, 11)]
        for a, b in zip(meshes, meshes[1:]):
            assert b / a <= 0.6 + 1e-12


class TestVerifyMarkov:
    def test_linear_level10(self, lin2):
        report = verify_markov(lin2, 10, tol=1e-9)
        assert report.ok
        assert report.cell_count == 1024

    def test_f06_level10(self, f06):
        report = verify_markov(f06, 10, tol=1e-9)
        assert report.ok
        assert report.max_forward_error <= 1e-9

    def test_smooth_level8(self, smooth05):
        assert verify_markov(smooth05, 8, tol=1e-9).ok

    def test_report_text(self, f06):
        # at tol 0 the level's rounding alone fails the check
        tail = "max |f^n(endpoint) - {0,1}| = 5.551e-16, sum(lengths)-1 = 0.000e+00"
        assert str(verify_markov(f06, 3)) == f"markov level 3 (8 cells): pass; {tail}"
        assert str(verify_markov(f06, 3, tol=0.0)) == f"markov level 3 (8 cells): FAIL; {tail}"

    def test_invalid_map_raises_before_check(self):
        with pytest.raises(InvalidMapError):
            verify_markov(smooth_sine_map(2, 2.5), 4)


class TestPartitionInvariants:
    def test_refinement_and_union(self, f06, smooth05):
        for spec in (f06, smooth05):
            parent = level_endpoints(spec, 4)
            child = level_endpoints(spec, 5)
            # parent endpoints are a subset of child endpoints (bit-exact)
            assert np.array_equal(child[:: spec.degree], parent)

    def test_dynamics_relation(self, f06):
        # the lift maps each level-n cylinder onto the left-shifted word's cylinder
        n = 5
        ends = level_endpoints(f06, n)
        prev = level_endpoints(f06, n - 1)
        idx = np.arange(2**n)
        from circledyn import lift_values

        image = lift_values(f06, ends[:-1]) - idx // 2 ** (n - 1)
        assert np.max(np.abs(image - prev[:-1][idx % 2 ** (n - 1)])) < 1e-12

    def test_lengths_sum_to_one(self, f06, smooth05):
        for spec in (f06, smooth05):
            for n in (3, 6, 9):
                lengths = cylinder_lengths(spec, n)
                assert abs(float(np.sum(lengths)) - 1.0) <= 2**n * 1e-12
