"""The level kernel against the branch-by-branch reference loop and mpmath.

``iter_levels`` solves each partition endpoint once: a word ending in symbol 0
shares its parent's left end, so for root-solved kinds every step copies the
parents and solves only the other children.  Every level must equal the old
loop (kept in ``_oracles``) bit for bit, and a level-n walk of a root-solved
map may solve at most d^n endpoints, where the old loop solved
d(d^n - 1)/(d - 1).

The walks that consume levels (tail sums, the bounded-geometry constant)
stream them: lengths in one allocation, parent/child quotients reduced in
chunks.  They must equal the old whole-level computations, kept in
``_oracles``, bit for bit, and stay within a memory budget.

The level ops (``level_endpoints``, ``cylinder_lengths``, ``dilatation_report``)
hold their result, the one level it is built from and block-sized temporaries:
level n goes straight into the endpoint array, lengths are differenced in
place and ratios divided into the g-lengths.  Their values must equal the
walk's, bit for bit, and every refusal comes before any level is built.
"""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from circledyn import (
    CellCapExceeded,
    InvalidMapError,
    Word,
    bounded_geometry_constant,
    cylinder_lengths,
    dilatation_report,
    endpoint_table,
    iter_levels,
    level_endpoints,
    linear_map,
    make_conjugated,
    piecewise_linear,
    sine_homeo,
    smooth_sine_map,
)
from circledyn import analysis, defaults, symbolic_partition
from circledyn.analysis import tail_sum
from circledyn.circle_maps import chain_error_bound, compose_homeos, is_closed_form
from circledyn.symbolic_partition import descent_ratio, level_left_endpoints, level_lengths
from _oracles import (
    MP_DIGITS,
    mp_level_left_endpoints,
    reference_bounded_geometry_constant,
    reference_levels,
    reference_tail_sum,
)

TOL = defaults.SOLVER_TOL


@st.composite
def pl_maps(draw, degree):
    gaps = draw(st.lists(st.floats(0.1, 1.0), min_size=degree, max_size=degree))
    return piecewise_linear(np.cumsum(gaps)[:-1] / sum(gaps))


@st.composite
def homeos(draw):
    amplitudes = draw(st.lists(st.floats(-0.9, 0.9), min_size=1, max_size=2))
    parts = [sine_homeo(c) for c in amplitudes]
    return parts[0] if len(parts) == 1 else compose_homeos(parts)


@st.composite
def specs_with_level(draw):
    """A spec of any kind and a level of at most 2^10 cells (2^8 for root-solved kinds)."""
    kind = draw(st.sampled_from(["linear", "pl", "smooth_sine", "conjugated"]))
    d = draw(st.integers(2, 4 if kind in ("linear", "pl") else 3))
    if kind == "linear":
        spec = linear_map(d)
    elif kind == "pl":
        spec = draw(pl_maps(d))
    elif kind == "smooth_sine":
        spec = smooth_sine_map(d, draw(st.floats(-0.9, 0.9)) * (d - 1))
    else:
        base = draw(
            st.one_of(
                st.just(linear_map(d)),
                pl_maps(d),
                st.floats(-0.9, 0.9).map(lambda e: smooth_sine_map(d, e)),
            )
        )
        spec = make_conjugated(base, draw(homeos()))
    cells = 2**10 if kind in ("linear", "pl") else 2**8
    level = draw(st.integers(1, int(math.log(cells, d) + 1e-9)))
    return spec, level


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _seeded_pl(d, seed):
    gaps = np.random.default_rng(seed).uniform(0.1, 1.0, size=d)
    return piecewise_linear(np.cumsum(gaps)[:-1] / np.sum(gaps))


def _traced_peak(call):
    """The tracemalloc peak of ``call()``, run once before to build caches and seed tables."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# levels whose last step takes several solver blocks of parents, and whose
# lengths take several blocks of differences
DEEP = {2: 17, 3: 11, 4: 9, 5: 8}


class TestAgainstReferenceLoop:
    # the tol is set anew for each example, so the fixture may span them
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(specs_with_level(), st.sampled_from([TOL, 1e-10]))
    def test_every_level_bit_identical(self, solver_tol, spec_level, tol):
        spec, n = spec_level
        solver_tol(tol)
        got = list(iter_levels(spec, n))
        want = reference_levels(spec, n)
        assert len(got) == n
        for k, (a, b) in enumerate(zip(got, want), 1):
            assert np.array_equal(a, b), (spec, k)
            assert _same_bits(a, b), (spec, k)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("family", ["linear", "random_pl", "narrow_pl"])
    def test_closed_form_levels_bit_identical(self, d, family):
        # closed forms write all d branch images of a block of parents in one
        # broadcast call; the values must be those of the concatenated
        # per-branch calls, also at levels that take several blocks
        if family == "linear":
            spec = linear_map(d)
        elif family == "random_pl":
            gaps = np.random.default_rng(d).uniform(0.1, 1.0, size=d)
            spec = piecewise_linear(np.cumsum(gaps)[:-1] / np.sum(gaps))
        else:
            # branches 1.5 and 1.9 minimum gaps wide
            narrow = 1.5 * defaults.MIN_CUT_GAP
            cuts = [narrow, narrow + 1.9 * defaults.MIN_CUT_GAP] + [0.5 + 0.1 * k for k in range(d - 3)]
            spec = piecewise_linear(cuts[: d - 1])
        n = DEEP[d]
        got = list(iter_levels(spec, n))
        want = reference_levels(spec, n)
        assert len(got) == n
        for k, (a, b) in enumerate(zip(got, want), 1):
            assert _same_bits(a, b), (spec, k)

    def test_parents_are_every_dth_child(self):
        levels = list(iter_levels(smooth_sine_map(3, 1.2), 6))
        for parent, child in zip(levels, levels[1:]):
            assert _same_bits(child[::3], parent)

    def test_level_zero_and_cap(self, smooth05):
        assert list(iter_levels(smooth05, 0)) == []
        assert _same_bits(level_left_endpoints(smooth05, 0), np.zeros(1))
        with pytest.raises(CellCapExceeded):
            list(iter_levels(smooth05, 11, cell_cap=2**10))


def _count_solves(monkeypatch):
    """Count the elements (broadcast size of branch and y) and the calls that
    reach ``inverse_branch_values`` from the level kernel."""
    counts = {"items": 0, "calls": 0}
    original = symbolic_partition.inverse_branch_values

    def counted(spec, branch, y, *args, **kwargs):
        counts["calls"] += 1
        counts["items"] += np.broadcast(np.asarray(branch), np.asarray(y)).size
        return original(spec, branch, y, *args, **kwargs)

    monkeypatch.setattr(symbolic_partition, "inverse_branch_values", counted)
    return counts


class TestWorkCount:
    @pytest.mark.parametrize(
        "spec, n",
        [
            (smooth_sine_map(2, 0.5), 12),
            (smooth_sine_map(3, 1.0), 7),
            (make_conjugated(linear_map(2), sine_homeo(0.5)), 10),
            (make_conjugated(piecewise_linear([0.3, 0.6]), sine_homeo(-0.4)), 6),
        ],
    )
    def test_root_solved_walk_solves_each_endpoint_once(self, spec, n, monkeypatch):
        counts = _count_solves(monkeypatch)
        level_left_endpoints(spec, n)
        d = spec.degree
        assert counts["items"] <= d**n  # the old loop: d(d^n - 1)/(d - 1)
        assert counts["calls"] == n  # one call per level, level 1 included

    def test_closed_forms_apply_every_branch(self, f06, monkeypatch):
        counts = _count_solves(monkeypatch)
        level_left_endpoints(f06, 10)
        assert counts["items"] == 2 * (2**10 - 1)

    def test_tail_sum_and_bounded_geometry_share_the_kernel(self, smooth05, monkeypatch):
        counts = _count_solves(monkeypatch)
        tail_sum(smooth05, Word((0, 1)), 5)
        assert counts["items"] <= 2**10
        counts["items"] = 0
        bounded_geometry_constant(smooth05, 10)
        assert counts["items"] <= 2**10


class TestMpmathOracle:
    @pytest.mark.parametrize(
        "spec, kind, n",
        [
            (smooth_sine_map(2, 0.5), "smooth_sine", 10),
            (make_conjugated(linear_map(2), sine_homeo(0.5)), "conjugated_linear", 8),
        ],
    )
    def test_endpoints_within_chain_error_bound(self, spec, kind, n):
        got = level_left_endpoints(spec, n)
        want = mp_level_left_endpoints(kind, 2, 0.5, n)
        bound = chain_error_bound(spec, n)[n]
        with mpmath.workdps(MP_DIGITS):
            errors = [abs(mpmath.mpf(float(a)) - b) for a, b in zip(got, want)]
        assert len(errors) == 2**n
        assert max(errors) <= bound


# maps of every kind, each with the deepest level the walks below may reach
WALK_SPECS = [
    (linear_map(2), 12),
    (linear_map(3), 8),
    (piecewise_linear([0.6]), 12),
    (piecewise_linear([1.5e-9, 0.5]), 8),  # zero lengths from level 3, then 0/0 quotients
    (piecewise_linear([0.2, 0.45, 0.7]), 6),
    (smooth_sine_map(2, 0.5), 12),
    (smooth_sine_map(3, 1.2), 8),
    (make_conjugated(linear_map(2), sine_homeo(0.5)), 10),
    (make_conjugated(piecewise_linear([0.3, 0.6]), sine_homeo(-0.4)), 6),
]


def _same_value(a, b):
    """``a == b``, with NaN equal to NaN."""
    return a == b or (math.isnan(a) and math.isnan(b))


class TestStreamingWalks:
    @pytest.mark.parametrize("spec, depth", WALK_SPECS)
    def test_tail_sum_walk_equals_whole_level_reference(self, spec, depth):
        # the enumeration runs for every kind here, closed forms included
        d = spec.degree
        with np.errstate(divide="ignore", invalid="ignore"):
            for n in (1, 2, 3):
                words = {Word((0,) * n), Word(tuple(s % d for s in range(1, n + 1))), Word((d - 1,) * n)}
                for word in sorted(words, key=str):
                    for k_max in sorted({1, 2, depth // n}):
                        got = analysis._enumerated_tail_sum(spec, word, k_max, defaults.CELL_CAP)
                        want = reference_tail_sum(spec, word, k_max)
                        # repr holds every float's exact value, NaN included
                        assert repr(got) == repr(want), (spec, word, k_max)
                        if not is_closed_form(spec):
                            assert tail_sum(spec, word, k_max) == got

    @pytest.mark.parametrize("spec, depth", WALK_SPECS)
    def test_bounded_geometry_constant_equals_whole_level_reference(self, spec, depth):
        with np.errstate(divide="ignore", invalid="ignore"):
            for n_max in (1, 2, depth // 2, depth):
                got = bounded_geometry_constant(spec, n_max)
                assert _same_value(got, reference_bounded_geometry_constant(spec, n_max)), (spec, n_max)

    @pytest.mark.parametrize("block", [1, 3, 8])
    def test_chunk_size_changes_no_bit(self, block, monkeypatch):
        # chunks far smaller than a level: every walk reduces over many of them
        monkeypatch.setattr(symbolic_partition, "_SOLVER_BLOCK", block)
        spec = smooth_sine_map(3, 1.2)
        assert tail_sum(spec, Word((0, 2)), 3) == reference_tail_sum(spec, Word((0, 2)), 3)
        assert bounded_geometry_constant(spec, 6) == reference_bounded_geometry_constant(spec, 6)


def _whole_level_ratio(parents, lengths, floor):
    m = lengths.size // parents.size
    with np.errstate(divide="ignore", invalid="ignore"):
        if floor:
            return float(np.min(lengths / np.repeat(parents, m)))
        return float(np.max(np.repeat(parents, m) / lengths))


class TestLevelKernel:
    def test_lengths_equal_diff_of_appended_ends(self):
        rng = np.random.default_rng(3)
        levels = [
            np.zeros(1),
            np.sort(rng.uniform(0.0, 1.0, 1001)),
            np.array([0.0, 0.5, 0.5, 0.25, np.nan, 0.9, 1.0]),  # zero, negative and NaN lengths
            np.array([0.0, -0.0, 1.0 - 2**-53]),
        ]
        for lefts in levels:
            want = np.diff(np.append(lefts, 1.0))
            assert level_lengths(lefts).tobytes() == want.tobytes()

    @pytest.mark.parametrize("floor", [False, True])
    @pytest.mark.parametrize("block", [1, 2, 5, 2**15])
    def test_descent_ratio_equals_whole_level_quotients(self, floor, block, monkeypatch):
        monkeypatch.setattr(symbolic_partition, "_SOLVER_BLOCK", block)
        rng = np.random.default_rng(block)
        cases = []
        for m in (2, 3, 7):
            parents = rng.uniform(0.1, 1.0, 40)
            lengths = rng.uniform(0.01, 1.0, 40 * m)
            cases.append((parents, lengths))
            for bad in (0.0, -0.0, -0.3, np.nan, np.inf):
                for at in (0, 17, lengths.size - 1):  # first, middle and last chunk
                    hand = lengths.copy()
                    hand[at] = bad
                    cases.append((parents, hand))
            zero_parent = parents.copy()
            zero_parent[[3, 39]] = 0.0
            cases.append((zero_parent, lengths))
            cases.append((zero_parent, np.where(np.arange(lengths.size) % 5 == 0, 0.0, lengths)))
        cases.append((np.ones(1), np.array([0.5, -0.2, np.nan, 0.7])))
        for parents, lengths in cases:
            with np.errstate(divide="ignore", invalid="ignore"):
                got = descent_ratio(parents, lengths, floor=floor)
            assert _same_value(got, _whole_level_ratio(parents, lengths, floor)), (parents, lengths)

    @pytest.mark.parametrize("floor", [False, True])
    def test_descent_ratio_splits_children_of_one_parent(self, floor):
        # more children per parent than a chunk holds: chunks split the row
        lengths = np.random.default_rng(7).uniform(0.01, 1.0, 2 * symbolic_partition._SOLVER_BLOCK + 5)
        lengths[-1] = 1e-9 if not floor else 10.0
        got = descent_ratio(np.ones(1), lengths, floor=floor)
        assert got == _whole_level_ratio(np.ones(1), lengths, floor)
        lengths[-2] = np.nan
        with np.errstate(invalid="ignore"):
            assert math.isnan(descent_ratio(np.ones(1), lengths, floor=floor))


class TestWalkMemory:
    # a level-20 array of float64 is 8 MiB: the walks may peak at 3.25 of
    # them, the level solve included (about 37 and 32 MiB while every block
    # level was kept and each level's quotients were taken whole)
    BUDGET = 26 * 2**20

    @pytest.mark.parametrize(
        "walk",
        [
            lambda spec: tail_sum(spec, Word((0, 1)), 10),
            lambda spec: bounded_geometry_constant(spec, 20),
        ],
        ids=["tail_sum", "bounded_geometry_constant"],
    )
    def test_level_20_walk_peak(self, walk, smooth05):
        walk(smooth05)  # warm: caches and seed tables are built outside the measurement
        tracemalloc.start()
        try:
            walk(smooth05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.BUDGET


class TestLevelOps:
    @pytest.mark.parametrize(
        "spec, deep",
        [
            (linear_map(3), DEEP[3]),
            (_seeded_pl(2, 5), DEEP[2]),
            (_seeded_pl(4, 6), DEEP[4]),
            (smooth_sine_map(2, 0.5), 16),
            (make_conjugated(linear_map(2), sine_homeo(0.5)), 16),
        ],
        ids=["linear", "pl2", "pl4", "smooth_sine", "conjugated"],
    )
    def test_endpoints_and_lengths_equal_the_walk(self, spec, deep):
        for n in (0, 1, 2, deep):
            lefts = level_left_endpoints(spec, n)
            assert _same_bits(level_endpoints(spec, n), np.append(lefts, 1.0)), n
            assert _same_bits(cylinder_lengths(spec, n), level_lengths(lefts)), n

    REFUSALS = {
        "level_left_endpoints": lambda spec, n, cap: level_left_endpoints(spec, n, cell_cap=cap),
        "level_endpoints": lambda spec, n, cap: level_endpoints(spec, n, cell_cap=cap),
        "cylinder_lengths": lambda spec, n, cap: cylinder_lengths(spec, n, cell_cap=cap),
        "dilatation_report": lambda spec, n, cap: dilatation_report(spec, spec, n, cell_cap=cap),
        "endpoint_table": lambda spec, n, cap: endpoint_table(spec, spec, n, cell_cap=cap),
    }

    @pytest.mark.parametrize("op", REFUSALS.values(), ids=REFUSALS.keys())
    @pytest.mark.parametrize(
        "spec, error",
        [
            (linear_map(2), CellCapExceeded),
            (smooth_sine_map(2, 2.5), InvalidMapError),
            (piecewise_linear([0.7, 0.3]), InvalidMapError),
        ],
        ids=["over_cap", "invalid_smooth", "invalid_pl"],
    )
    def test_refused_before_any_level_is_built(self, op, spec, error):
        # level 20 holds 8 MiB: a check made after the walk to level 20
        # would show in the peak
        def refused():
            with pytest.raises(error):
                op(spec, 21, 2**20)

        assert _traced_peak(refused) < 64 * 2**10


class TestLevelOpMemory:
    """Each level op holds its result, the level it is built from and
    ``_SOLVER_BLOCK``-sized temporaries (0.25 MiB), nothing more.  Before
    the level step went by blocks, the closed forms' per-branch calls made a
    parent-sized temporary, ``level_endpoints`` appended a copy of level n,
    and ``cylinder_lengths`` and ``dilatation_report`` allocated new lengths
    and ratios: 4.00 MiB and 6.25 MiB at both sizes."""

    BLOCK = 8 * symbolic_partition._SOLVER_BLOCK
    # frames, array headers and other small objects of the interpreter
    SMALL = 16 * 2**10

    # (f, g, n): two maps of degree 2 and two of degree 4, each level 2 MiB
    SIZES = [
        (piecewise_linear([0.37]), piecewise_linear([0.55]), 18),
        (piecewise_linear([0.2, 0.45, 0.7]), piecewise_linear([0.3, 0.5, 0.8]), 9),
    ]
    IDS = ["d2_n18", "d4_n9"]

    @pytest.mark.parametrize("f, g, n", SIZES, ids=IDS)
    def test_level_endpoints_peak(self, f, g, n):
        level, parent = 8 * f.degree**n, 8 * f.degree ** (n - 1)
        assert _traced_peak(lambda: level_endpoints(f, n)) <= (level + 8) + parent + self.BLOCK + self.SMALL

    @pytest.mark.parametrize("f, g, n", SIZES, ids=IDS)
    def test_cylinder_lengths_peak(self, f, g, n):
        level, parent = 8 * f.degree**n, 8 * f.degree ** (n - 1)
        assert _traced_peak(lambda: cylinder_lengths(f, n)) <= level + parent + self.BLOCK + self.SMALL

    # ratios spread over 6.3e6: a tie radius taken from the top ratio would
    # make nearly the whole level a candidate for the smallest
    @pytest.mark.parametrize(
        "f, g, n",
        SIZES + [(_seeded_pl(4, 1), _seeded_pl(4, 2), 9)],
        ids=IDS + ["d4_n9_wide_ratio_spread"],
    )
    def test_dilatation_report_peak(self, f, g, n):
        # the two length arrays and g's parent level
        level, parent = 8 * f.degree**n, 8 * f.degree ** (n - 1)
        peak = _traced_peak(lambda: dilatation_report(f, g, n, coarse_level=2))
        assert peak <= 2 * level + parent + self.BLOCK + self.SMALL
