"""The shared refinement kernel against the per-depth backward-chain loops.

Itineraries and conjugacy enclosures come from one kernel that proposes each
decision with an O(1)-per-level word model and runs the backward chain only
where the model's error bound cannot settle it.  For linear and
piecewise-linear maps the result must equal the old loops (kept in
``_oracles``) bit for bit, also on points placed on cylinder endpoints, one
ulp off them and 1e-12 off them.  For root-solved maps the
words may differ only where x lies within 1e-12 of a cylinder boundary.
"""

import gc
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import circledyn
from circledyn import (
    Word,
    compose_homeos,
    conjugacy_enclosures,
    homeo_lift_values,
    interval_of_word,
    level_endpoints,
    linear_map,
    make_conjugated,
    piecewise_linear,
    sine_homeo,
    smooth_sine_map,
)
from circledyn import circle_maps, conjugacy, defaults
from circledyn.analysis import symmetry_modulus
from circledyn.conjugacy import ConjugacyMap
from circledyn.circle_maps import branch_points, inverse_branch_values
from circledyn.symbolic_partition import (
    chain_values,
    itinerary_batch,
    level_left_endpoints,
    ragged_chain_values,
    refine_words,
)
from _oracles import MP_DIGITS, mp_conjugated_pl_left_endpoints, reference_enclosures, reference_itinerary

TIE = 1e-12
# an offset from cylinder endpoints: a point this close to an end, but off
# it, gets the tol-wide cylinder of its own word like any other point
NEAR = 1e-12
OFFSETS = (0.0, "up", "down", NEAR, -NEAR, 5e-13, -5e-13, 2 * NEAR, -2 * NEAR)


@st.composite
def affine_maps(draw, degree):
    if draw(st.booleans()):
        return linear_map(degree)
    gaps = draw(st.lists(st.floats(0.1, 1.0), min_size=degree, max_size=degree))
    return piecewise_linear(np.cumsum(gaps)[:-1] / sum(gaps))


@st.composite
def endpoint_points(draw, spec):
    """Cylinder endpoints of levels 1..4, moved by an ulp or by about 1e-12,
    plus a few free points."""
    level = draw(st.integers(1, 4 if spec.degree == 2 else 3))
    ends = level_endpoints(spec, level)
    picks = draw(st.lists(st.integers(0, ends.size - 1), min_size=1, max_size=12))
    xs = []
    for i in picks:
        offset = draw(st.sampled_from(OFFSETS))
        if offset == "up":
            xs.append(np.nextafter(ends[i], 2.0))
        elif offset == "down":
            xs.append(np.nextafter(ends[i], -1.0))
        else:
            xs.append(ends[i] + offset)
    xs += draw(st.lists(st.floats(0.0, 1.0), max_size=6))
    return np.clip(np.asarray(xs, dtype=float), 0.0, 1.0)


def _assert_same(got, want):
    for name, a, b in zip(("lo", "hi", "depth", "tol_met"), got, want):
        assert np.array_equal(a, b), (name, a, b)


class TestAffineBitIdentical:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_enclosures(self, data):
        d = data.draw(st.integers(2, 4))
        f, g = data.draw(affine_maps(d)), data.draw(affine_maps(d))
        xs = data.draw(endpoint_points(f))
        tol = data.draw(st.sampled_from([1e-4, 1e-8, 1e-10, 1e-12, 1e-14]))
        cap = data.draw(st.sampled_from([defaults.CONJUGACY_DEPTH_CAP, 7]))
        got = conjugacy_enclosures(f, g, xs, tol=tol, depth_cap=cap)
        want = reference_enclosures(f, g, xs, tol, cap)
        _assert_same(got, want)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_itineraries(self, data):
        f = data.draw(affine_maps(data.draw(st.integers(2, 4))))
        xs = data.draw(endpoint_points(f))
        n = data.draw(st.integers(0, 40))
        got = itinerary_batch(f, xs, n)
        assert np.array_equal(got, reference_itinerary(f, xs, n))

    @pytest.mark.parametrize("cuts", [[0.6], [0.37, 0.81], [2e-9, 0.5]])
    def test_points_a_few_ulps_from_the_snap_distance(self, cuts):
        # points a few ulps either side of 1e-12, 1.5e-12 and 2e-12 from
        # cylinder ends, including left ends of level-12 cylinders of the map
        # with a 2e-9 branch, whose next children start within 1e-12 of such
        # a point
        f = piecewise_linear(cuts)
        deep = [Word((s,) * 12) for s in range(1, f.degree)] + [Word((1, f.degree - 1) * 6)]
        ends = np.append(level_endpoints(f, 3), [interval_of_word(f, w).left for w in deep])
        xs = []
        for base in (ends + NEAR, ends - NEAR, ends + 2e-12, ends[:-1] + 1.5e-12):
            for _ in range(4):
                base = np.nextafter(base, 2.0)
            for _ in range(9):
                xs.append(base)
                base = np.nextafter(base, -1.0)
        xs = np.clip(np.concatenate(xs), 0.0, 1.0)
        for g in (f, linear_map(f.degree)):
            got = conjugacy_enclosures(f, g, xs, tol=1e-10)
            _assert_same(got, reference_enclosures(f, g, xs, 1e-10, 48))

    def test_criterion_6_grid_and_shifts(self, f06):
        grid = np.arange(1024) / 1024
        for shift in (0.0, 2.0**-1, -(2.0**-1), 2.0**-5, -(2.0**-5), 2.0**-10, -(2.0**-10)):
            xs = np.clip(grid + shift, 0.0, 1.0)
            got = conjugacy_enclosures(f06, f06, xs, tol=1e-10)
            want = reference_enclosures(f06, f06, xs, 1e-10, 48)
            _assert_same(got, want)

    @pytest.mark.parametrize("d", [3, 4])
    def test_rounding_floor(self, d):
        # depth 32 of degree 3 and 4 lies below the chain's rounding floor
        # (ROADMAP item 9): the model is unsure everywhere past depth ~22, so
        # the backward chain decides every symbol, and so does the stop rule
        # near its tol
        gaps = np.random.default_rng([d, 29]).uniform(0.1, 1.0, size=d)
        f = piecewise_linear(np.cumsum(gaps)[:-1] / np.sum(gaps))
        xs = np.sort(np.random.default_rng([d, 30]).uniform(0.0, 1.0, 1024))
        assert np.array_equal(itinerary_batch(f, xs, 32), reference_itinerary(f, xs, 32))
        grid = np.arange(1024) / 1024
        g = linear_map(d)
        _assert_same(conjugacy_enclosures(f, g, grid, tol=1e-10), reference_enclosures(f, g, grid, 1e-10, 48))


class TestChains:
    """The in-place backward chains against one :func:`inverse_branch_values`
    call per symbol on new arrays, bit for bit; ``values`` is only read."""

    SPECS = [linear_map(d) for d in (2, 3, 5)] + [
        piecewise_linear([0.6]),
        piecewise_linear([0.37, 0.81]),
        piecewise_linear([0.1, 0.35, 0.7]),
        piecewise_linear([2e-9, 0.3, 0.5, 0.9]),
    ]

    @staticmethod
    def _loop(spec, words, values):
        for j in range(words.shape[1] - 1, -1, -1):
            values = inverse_branch_values(spec, words[:, j], values)
        return values

    @staticmethod
    def _values(spec, n, rows):
        # 0.0, 1.0 and the cuts, then seeded points
        rng = np.random.default_rng(n)
        special = np.asarray(branch_points(spec))
        line = np.concatenate((special, rng.uniform(0.0, 1.0, n)))[:n]
        return np.stack([np.roll(line, 3 * i) for i in range(rows)])

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.describe())
    @pytest.mark.parametrize("k", [0, 1, 7, 60])
    def test_chain_values(self, spec, k):
        words = np.random.default_rng(k).integers(spec.degree, size=(40, k))
        for rows in (spec.degree - 1, 2):
            values = self._values(spec, 40, rows)
            before = values.copy()
            got = chain_values(spec, words, values)
            assert got.tobytes() == self._loop(spec, words, before).tobytes()
            assert values.tobytes() == before.tobytes()
        # a read-only broadcast view of the cuts, as the refinement kernel passes them
        cuts = np.asarray(branch_points(spec))[1:-1, None]
        start = np.broadcast_to(cuts, (cuts.size, 40))
        got = chain_values(spec, words, start)
        assert got.tobytes() == self._loop(spec, words, np.array(start)).tobytes()

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.describe())
    def test_ragged_chain_values(self, spec):
        rng = np.random.default_rng(spec.degree)
        words = rng.integers(spec.degree, size=(80, 60))
        lengths = np.concatenate(([0, 60, 60, 1], rng.integers(0, 61, size=76)))
        for rows in (spec.degree - 1, 2):
            values = self._values(spec, 80, rows)
            before, words_before = values.copy(), words.copy()
            got = ragged_chain_values(spec, words, lengths, values)
            want = np.empty_like(before)
            for n in np.unique(lengths):
                at = lengths == n
                want[:, at] = self._loop(spec, words[at, :n], before[:, at])
            assert got.tobytes() == want.tobytes()
            assert values.tobytes() == before.tobytes() and words.tobytes() == words_before.tobytes()


def _margins(spec, x, word):
    """Distance from x to the nearer end of its cylinder at each depth."""
    out = []
    for k in range(1, len(word) + 1):
        lo, hi = chain_values(spec, np.asarray([word[:k]]), np.asarray([[0.0], [1.0]]))
        out.append(min(abs(x - lo[0]), abs(hi[0] - x)))
    return out


def _words_agree(spec, x, got, want) -> bool:
    """Equal words, or equal up to a depth where x sits within TIE of a boundary."""
    diff = np.flatnonzero(got != want)
    if diff.size == 0:
        return True
    k = int(diff[0])
    return min(_margins(spec, x, want[: k + 1])[-1], _margins(spec, x, got[: k + 1])[-1]) <= TIE


@st.composite
def solved_maps(draw):
    d = draw(st.integers(2, 3))
    if draw(st.booleans()):
        eps = draw(st.floats(-0.9, 0.9)) * (d - 1)
        return smooth_sine_map(d, eps)
    base = linear_map(d) if d == 2 else piecewise_linear([0.3, 0.55])
    return make_conjugated(base, sine_homeo(draw(st.floats(-0.6, 0.6))))


class TestSolvedKinds:
    @settings(max_examples=12, deadline=None)
    @given(solved_maps(), st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=12))
    def test_itineraries(self, spec, points):
        xs = np.asarray(points)
        got = itinerary_batch(spec, xs, 14)
        want = reference_itinerary(spec, xs, 14)
        for i, x in enumerate(xs):
            assert _words_agree(spec, x, got[i], want[i]), (x, got[i], want[i])

    @settings(max_examples=10, deadline=None)
    @given(solved_maps(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    def test_enclosures(self, spec, points):
        xs = np.asarray(points)
        g = linear_map(spec.degree)
        got = conjugacy_enclosures(spec, g, xs, tol=1e-6)
        want = reference_enclosures(spec, g, xs, 1e-6, 48)
        for i, x in enumerate(xs):
            if all(a[i] == b[i] for a, b in zip(got, want)):
                continue
            depth = max(got[2][i], want[2][i])
            word = itinerary_batch(spec, np.asarray([x]), int(depth))[0]
            assert min(_margins(spec, x, word)) <= 2 * TIE, (x, [a[i] for a in got], [b[i] for b in want])

    def test_solved_target_matches_reference(self, f06, smooth05):
        xs = np.arange(64) / 64
        got = conjugacy_enclosures(f06, smooth05, xs, tol=1e-8)
        _assert_same(got, reference_enclosures(f06, smooth05, xs, 1e-8, 48))


@st.composite
def conjugated_maps(draw):
    """``(F, G, H)`` with ``F = H^-1 o G o H``: a linear, piecewise-linear or
    smooth base and a sine or composed homeomorphism."""
    d = draw(st.integers(2, 3))
    base = draw(st.sampled_from([
        linear_map(d),
        piecewise_linear([0.6] if d == 2 else [0.3, 0.55]),
        smooth_sine_map(d, 0.5 * (d - 1)),
    ]))
    c = draw(st.floats(-0.7, 0.7))
    homeo = draw(st.sampled_from([
        sine_homeo(c),
        compose_homeos([sine_homeo(c), sine_homeo(-0.4)]),
    ]))
    return make_conjugated(base, homeo), base, homeo


# specs whose base has an affine word model: their sure decisions are exact
AFFINE_CONJUGATES = [
    make_conjugated(linear_map(2), sine_homeo(0.6)),
    make_conjugated(piecewise_linear([0.3, 0.55]), compose_homeos([sine_homeo(0.5), sine_homeo(-0.3)])),
    make_conjugated(make_conjugated(piecewise_linear([0.7]), sine_homeo(-0.5)), sine_homeo(0.4)),
]
CONJUGATES = AFFINE_CONJUGATES + [
    make_conjugated(smooth_sine_map(2, 0.8), sine_homeo(-0.5)),
    make_conjugated(make_conjugated(smooth_sine_map(3, 1.1), sine_homeo(0.3)), sine_homeo(0.5)),
]


class TestConjugatedModel:
    """A conjugated map ``F = H^-1 o G o H`` is refined with G's word model
    at ``H(x)``; the F-chain decides what that model leaves open."""

    @settings(max_examples=25, deadline=None)
    @given(conjugated_maps(), st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=10),
           st.integers(0, 26), st.integers(8, 16))
    def test_itineraries_are_conjugacy_invariant(self, fgh, points, index, n):
        f, g, h = fgh
        # cylinder endpoints a little off, far beyond TIE, besides free points
        ends = level_endpoints(f, 3)[index % (f.degree**3)]
        xs = np.clip(np.asarray(points + [ends + 1e-9, ends - 1e-10]), 0.0, 1.0)
        got = itinerary_batch(f, xs, n)
        want = itinerary_batch(g, np.clip(homeo_lift_values(h, xs), 0.0, 1.0), n)
        for i, x in enumerate(xs):
            assert _words_agree(f, x, got[i], want[i]), (x, got[i], want[i])

    @pytest.mark.parametrize("spec", CONJUGATES, ids=lambda s: s.describe())
    def test_refinement_solves_no_homeomorphism_inverse(self, spec, monkeypatch):
        xs = np.random.default_rng(3).uniform(0.0, 1.0, 64)
        refine_words(spec, xs[:2], 2)  # fill the caches first
        calls = _count_calls(monkeypatch, "homeo_inverse_values")
        refine_words(spec, xs, 30)
        conjugacy_enclosures(spec, linear_map(spec.degree), xs, tol=1e-10)
        assert calls[0] == 0

    @pytest.mark.parametrize("spec", AFFINE_CONJUGATES, ids=lambda s: s.describe())
    def test_sure_decisions_equal_the_chain_at_a_coarse_solver_tol(self, spec, solver_tol):
        # at a solver tol of 1e-6 the model must still agree with the chain
        # at and beside its endpoints (taken at the default solver tol); the
        # solves of these maps barely move at that tol, so the test below
        # pins the h_hi * err_F radius
        ends = level_endpoints(spec, 5 if spec.degree == 2 else 3)
        xs = np.clip(np.concatenate([ends + t for t in (0.0, 2e-9, -2e-9, 2e-8, -2e-8)]), 0.0, 1.0)
        solver_tol(1e-6)
        got = itinerary_batch(spec, xs, 12)
        assert np.array_equal(got, reference_itinerary(spec, xs, 12))
        g = linear_map(spec.degree)
        got = conjugacy_enclosures(spec, g, xs, tol=1e-5)
        _assert_same(got, reference_enclosures(spec, g, xs, 1e-5, 48))

    def test_points_between_a_computed_and_the_exact_division_go_to_the_chain(self, solver_tol):
        # at a solver tol of 1e-6 the sine-homeo solves of the F-chain stop
        # short near H's flat spot, so some computed F-divisions sit 1e-12 to
        # 1e-10 from the exact ones.  A point between the two lies on one side
        # for G's model at H(x), which follows the exact division, and on the
        # other for the chain: only a certainty radius that carries the chain
        # error (h_hi * err_F) leaves it to the chain.
        cuts, c, n = [0.6], 0.9, 5
        spec = make_conjugated(piecewise_linear(cuts), sine_homeo(c))
        solver_tol(1e-6)
        computed = level_left_endpoints(spec, n)
        exact = mp_conjugated_pl_left_endpoints(cuts, c, n)
        with mpmath.workdps(MP_DIGITS):
            gaps = np.array([float(mpmath.mpf(a) - b) for a, b in zip(computed, exact)])
        off = np.abs(gaps) > 1e-12
        assert off.sum() >= 5
        xs = computed[off] - 0.5 * gaps[off]
        assert np.array_equal(itinerary_batch(spec, xs, n + 2), reference_itinerary(spec, xs, n + 2))


class TestBranchEnds:
    """The kernel's single final chain relies on inverse branches hitting the
    branch ends bit for bit: ``phi_s(0) == c_s`` and ``phi_s(1) == c_{s+1}``."""

    @pytest.mark.parametrize("spec", [
        linear_map(3),
        piecewise_linear([0.2, 0.45, 0.8]),
        smooth_sine_map(3, 1.1),
        make_conjugated(linear_map(2), sine_homeo(0.7)),
        make_conjugated(piecewise_linear([0.3, 0.55]), sine_homeo(-0.4)),
    ])
    def test_ends_are_cuts(self, spec):
        cuts = np.asarray(branch_points(spec))
        d = spec.degree
        for s in range(d):
            lo = inverse_branch_values(spec, np.full(5, s), np.zeros(5))
            hi = inverse_branch_values(spec, np.full(5, s), np.ones(5))
            assert np.all(lo == cuts[s]) and np.all(hi == cuts[s + 1])


def _count_calls(monkeypatch, name="inverse_branch_values"):
    """Count calls of a ``circle_maps`` function through every module that binds it."""
    calls = [0]
    original = getattr(circle_maps, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for module_name in ("circle_maps", "symbolic_partition", "conjugacy", "analysis"):
        module = getattr(circledyn, module_name)
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


class TestCost:
    def test_criterion_6_call_bound(self, f06, monkeypatch):
        xs = np.arange(1024, dtype=float) / 1024
        conjugacy_enclosures(f06, f06, xs[:2], tol=1e-2)  # fill the caches first
        calls = _count_calls(monkeypatch)
        conjugacy_enclosures(f06, f06, xs, tol=1e-10)
        assert calls[0] <= 400

    def test_itinerary_call_bound(self, f06, monkeypatch):
        xs = np.sort(np.random.default_rng(7).uniform(0.0, 1.0, 1024))
        itinerary_batch(f06, xs[:2], 2)
        calls = _count_calls(monkeypatch)
        itinerary_batch(f06, xs, 32)
        assert calls[0] <= 128


class TestWordMatrix:
    """The kernel's word matrix is as wide as the deepest stop, not as
    ``depth_cap``: it starts at 64 columns and doubles as points go deeper.
    The chain error tables of the word models and the stop rule grow the
    same way, which needs ``chain_error_bound`` to be prefix-stable."""

    def test_a_huge_depth_cap_costs_only_the_depth_reached(self, f06, smooth05):
        # 64 points stop by depth 28; a matrix depth_cap columns wide would
        # hold 488 MiB, and its copies as much again, and depth_cap-long
        # chain error tables of the word model and the stop rule took 46 MiB
        self._check_huge_cap(f06, smooth05, 28)

    @pytest.mark.parametrize("pair", [("smooth05", "f06"), ("conj_smooth", "lin2")], ids="->".join)
    def test_every_word_model_sizes_its_tables_by_the_depth_reached(self, pair, request):
        # the orbit model of smooth_sine and the conjugated model (over the
        # affine one) with the affine and the root-solved stop rules
        f, g = (request.getfixturevalue(name) for name in pair)
        self._check_huge_cap(f, g, 30)

    @staticmethod
    def _check_huge_cap(f, g, deepest):
        xs = np.random.default_rng(0).uniform(0.0, 1.0, 64)
        want = conjugacy_enclosures(f, g, xs, tol=1e-8)
        tracemalloc.start()
        try:
            got = conjugacy_enclosures(f, g, xs, tol=1e-8, depth_cap=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got[2].max() <= deepest
        _assert_same(got, want)
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("pair", [("f06", "lin2"), ("smooth05", "f06"), ("conj_smooth", "smooth05")], ids="->".join)
    def test_word_models_need_no_cycle_collector(self, pair, request):
        # a table builder that held its model would keep the model's
        # point-sized arrays alive until the cycle collector ran
        f, g = (request.getfixturevalue(name) for name in pair)
        xs = np.linspace(0.1, 0.9, 5)
        conjugacy_enclosures(f, g, xs, tol=1e-8)
        gc.collect()
        gc.disable()
        try:
            conjugacy_enclosures(f, g, xs, tol=1e-8)
            itinerary_batch(f, xs, 10)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("name", ["lin2", "f06", "smooth05", "conj_smooth"])
    def test_chain_error_bound_is_prefix_stable(self, name, request):
        spec = request.getfixturevalue(name)
        whole = circle_maps.chain_error_bound(spec, 10**6)
        for n in (0, 1, 47, 48, 63, 64, 65, 127, 128, 129, 500, 1000):
            assert circle_maps.chain_error_bound(spec, n).tobytes() == whole[: n + 1].tobytes(), n

    def test_stops_past_the_first_64_columns(self, f06, lin2):
        # a linear(2) cylinder's computed width is exact down to 2^-100, or
        # rounds to 0, the sooner the farther x is from 0: the stops are
        # spread over depths 54..100, so the matrix doubles once midway
        xs = np.concatenate(([0.0, 1.0], 0.77 * 0.6 ** np.arange(0, 80, 8)))
        got = conjugacy_enclosures(f06, lin2, xs, tol=2.0**-100, depth_cap=130)
        _assert_same(got, reference_enclosures(f06, lin2, xs, 2.0**-100, 130))
        assert np.any((got[2] > 0) & (got[2] < 64)) and got[2].max() == 100

    def test_kernel_returns_the_columns_reached(self, f06):
        words, depth = refine_words(f06, np.asarray([0.3, 0.7]), 100)
        assert words.shape == (2, 100) and np.all(depth == 100)
        assert np.array_equal(words[:, :60], itinerary_batch(f06, [0.3, 0.7], 60))

    @pytest.mark.parametrize("n", [0, 5])
    def test_empty_itinerary_batch(self, f06, n):
        assert itinerary_batch(f06, [], n).shape == (0, n)

    def test_empty_enclosures(self, f06, lin2):
        got = conjugacy_enclosures(f06, lin2, np.zeros(0))
        assert [a.shape for a in got] == [(0,)] * 4


def _same_per_copy(got, distinct, got_single):
    """Each copy of ``distinct[j]`` holds the bits ``got_single`` has at j."""
    for name, a, b in zip(("lo", "hi", "depth", "tol_met"), got, got_single):
        want = b[distinct]
        assert a.dtype == want.dtype and a.tobytes() == want.tobytes(), name


class TestRepeatedPoints:
    """Each distinct point is refined once and its enclosure copied to every
    repeat, so a repeat gets the bits of a call that holds the point once."""

    @pytest.mark.parametrize("pair", ["pl", "solved", "conjugated"])
    def test_shuffled_grid_twice(self, pair, f06, lin2, smooth05, conj_smooth):
        f, g = {"pl": (f06, lin2), "solved": (f06, smooth05), "conjugated": (conj_smooth, lin2)}[pair]
        grid = np.arange(64, dtype=float) / 64 + 0.0123
        order = np.random.default_rng(3).permutation(np.repeat(np.arange(64), 2))
        got = conjugacy_enclosures(f, g, grid[order], tol=1e-10)
        _same_per_copy(got, order, conjugacy_enclosures(f, g, grid, tol=1e-10))

    def test_signed_zeros_and_one(self, f06, lin2):
        xs = np.asarray([0.0, -0.0, 1.0, 0.3, -0.0, 1.0, 0.0, 0.3])
        got = conjugacy_enclosures(f06, lin2, xs, tol=1e-10)
        singles = [conjugacy_enclosures(f06, lin2, xs[i : i + 1], tol=1e-10) for i in range(xs.size)]
        for i in range(xs.size):
            for a, b in zip(got, singles[i]):
                assert a[i : i + 1].tobytes() == b.tobytes(), (i, xs[i])
        lo, hi, _, _ = got
        assert hi[0] == hi[1] == 0.0 and lo[2] == 1.0

    def test_repeats_across_the_block_boundary(self, f06, lin2):
        count = conjugacy._ENCLOSURE_BLOCK + 64
        distinct = np.arange(count, dtype=float) / count
        order = np.concatenate((np.arange(count), np.arange(count - 96, count), np.arange(96)))
        order = np.random.default_rng(5).permutation(order)
        got = conjugacy_enclosures(f06, lin2, distinct[order], tol=1e-8)
        _same_per_copy(got, order, conjugacy_enclosures(f06, lin2, distinct, tol=1e-8))

    def test_symmetry_modulus_refines_each_grid_point_once(self, f06, monkeypatch):
        # criterion 6's modulus call: 21 shifted copies of the 1024 grid are
        # 21,504 points but only the 1024 grid points mod 1, and 0 maps to 0
        # without refinement
        refined = [0]
        original = conjugacy.refine_words

        def counted(spec, xs, *args, **kwargs):
            refined[0] += np.size(xs)
            return original(spec, xs, *args, **kwargs)

        monkeypatch.setattr(conjugacy, "refine_words", counted)
        h = ConjugacyMap(f06, f06, tol=1e-10)
        report = symmetry_modulus(h, scales=[2.0**-j for j in range(1, 11)], grid=1024)
        assert len(report.rows) == 10
        assert refined[0] == 1023


class TestInputs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.25, 1.5])
    def test_enclosures_reject_points(self, f06, lin2, bad):
        with pytest.raises(ValueError):
            conjugacy_enclosures(f06, lin2, np.asarray([bad, 0.5]))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, -1.0])
    def test_enclosures_reject_tol(self, f06, lin2, bad):
        with pytest.raises(ValueError, match="tol"):
            conjugacy_enclosures(f06, lin2, np.asarray([0.5]), tol=bad)

    def test_enclosures_reject_negative_depth_cap(self, f06, lin2):
        with pytest.raises(ValueError, match="depth_cap"):
            conjugacy_enclosures(f06, lin2, np.asarray([0.5]), depth_cap=-1)

    def test_zero_tol_still_refines_to_the_cap(self, f06, lin2):
        lo, hi, depth, met = conjugacy_enclosures(f06, lin2, np.asarray([0.37]), tol=0.0, depth_cap=20)
        assert depth[0] == 20 and not met[0] and lo[0] < hi[0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.25, 1.5])
    def test_itinerary_rejects_points(self, f06, bad):
        with pytest.raises(ValueError):
            itinerary_batch(f06, np.asarray([0.5, bad]), 4)

    def test_itinerary_depth_cap(self, f06):
        with pytest.raises(circledyn.DepthCapExceeded):
            itinerary_batch(f06, np.asarray([0.5]), defaults.DEPTH_CAP + 1)
        with pytest.raises(ValueError):
            itinerary_batch(f06, np.asarray([0.5]), -1)
