"""Property-based invariants over randomly generated maps and inputs."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from circledyn import (
    CircleMapSpec,
    Word,
    compose_homeos,
    drop_last,
    eval_lift,
    global_inverse_lift,
    identity_homeo,
    interval_of_word,
    inverse_branch,
    left_shift,
    level_endpoints,
    lift_values,
    linear_map,
    mesh,
    piecewise_linear,
    qs_ratio,
    sine_homeo,
    smooth_sine_map,
    validate,
    word_of_point,
)
from _oracles import grid_monotone_failure, sine_homeo_lift


@st.composite
def pl_maps(draw, max_degree=4):
    """Full-branch piecewise-linear maps with comfortably separated cuts."""
    degree = draw(st.integers(2, max_degree))
    gaps = draw(
        st.lists(
            st.floats(0.1, 1.0, allow_nan=False, allow_infinity=False),
            min_size=degree,
            max_size=degree,
        )
    )
    total = sum(gaps)
    cuts = np.cumsum(gaps)[:-1] / total
    return piecewise_linear(cuts)


def _roundtrip_bound(spec, y: float, n: int) -> float:
    """Bound on ``|F^n(x) - y|`` for ``x = F^-n(y)``, every step computed, of a PL map.

    With u the unit roundoff, F is L-Lipschitz for its largest slope
    ``L = 1/min(width)``, so an error e in an orbit point reaches ``F^j`` as
    at most ``L^j*e``.  F^-1 sends ``[-M, M]`` into ``[-M/d - 1, M/d + 1]``,
    so for ``|y| <= M = max(|y|, 2)`` every orbit point lies within
    ``V = M + 1`` of 0, with room for the errors.

    * One computed inverse step errs by at most ``u*(2V + 4)``: the branch
      split's fraction and the gap (u each, at most 1 in size), the anchor
      plus the cut (u*V), and the product and the sum (u*(V + 1)).  Inverse
      branches contract, so x is within ``n*u*(2V + 4)`` of the exact
      ``F^-n(y)``, and F^n carries that to ``L^n`` times it.
    * One computed forward step errs by at most ``u*(L + d + 3 + V)``: the
      reduction ``x - floor(x)`` loses up to u in absolute terms, far more
      than x's own ulp when x is just below an integer, and the branch slope
      makes that L*u; the subtraction of the cut, the width and the
      quotient add u each, the branch offset u*d and the final sum u*V.
      Step k's error reaches the end as ``L^(n-1-k)`` times it, which sums
      to at most ``L^n/(L - 1)`` times it.
    """
    u = np.finfo(float).eps / 2
    slope = 1.0 / float(np.min(np.diff((0.0, *spec.cuts, 1.0))))
    reach = max(abs(y), 2.0) + 1.0
    return slope**n * u * (n * (2 * reach + 4) + (slope + spec.degree + 3 + reach) / (slope - 1))


@st.composite
def words_for(draw, degree, max_level=6):
    level = draw(st.integers(1, max_level))
    return Word(tuple(draw(st.integers(0, degree - 1)) for _ in range(level)))


@st.composite
def homeos(draw, depth=1):
    """Identity, sine and compose homeomorphisms, compositions nested ``depth`` deep."""
    kind = draw(st.sampled_from(["identity", "sine_homeo", "compose"][: 3 if depth else 2]))
    if kind == "identity":
        return identity_homeo()
    if kind == "sine_homeo":
        return sine_homeo(draw(st.floats(-0.999, 0.999)))
    return compose_homeos(draw(st.lists(homeos(depth - 1), min_size=1, max_size=3)))


@st.composite
def any_maps(draw, depth=1):
    """Maps of every kind, conjugated maps nested ``depth`` deep (built unvalidated)."""
    kind = draw(st.sampled_from(["linear", "pl", "smooth_sine", "conjugated"][: 4 if depth else 3]))
    if kind == "linear":
        return linear_map(draw(st.integers(2, 5)))
    if kind == "pl":
        return draw(pl_maps())
    if kind == "smooth_sine":
        degree = draw(st.integers(2, 5))
        return smooth_sine_map(degree, degree * draw(st.floats(-0.999, 0.999)))
    base = draw(any_maps(depth - 1))
    return CircleMapSpec(kind="conjugated", degree=base.degree, base=base, homeo=draw(homeos()))


unit_points = st.floats(0.0, 1.0, exclude_max=True, allow_nan=False)


def near_bound_to(digits: float):
    """1 - 10**u for u in [-digits, 0], with a random sign: amplitude
    fractions from 0 to within 10**-digits of the validity bound."""
    return st.builds(
        lambda sign, u: sign * (1.0 - 10.0**u), st.sampled_from([-1.0, 1.0]), st.floats(-digits, 0.0)
    )


near_bound = near_bound_to(7)


@st.composite
def boundary_maps(draw, depth=1):
    """Maps of every kind and degree 2-4 up to validation's bounds (built
    unvalidated): piecewise-linear branch widths 10**u for u in [-9, 0]
    before normalising, ``|epsilon|`` up to ``d*(1 - 1e-15)``, and conjugated
    maps over 1-3 sine parts with ``|c|`` up to ``1 - 1e-8``."""
    d = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["linear", "pl", "smooth_sine", "conjugated"][: 4 if depth else 3]))
    if kind == "linear":
        return linear_map(d)
    if kind == "pl":
        widths = draw(st.lists(st.floats(-9.0, 0.0).map(lambda u: 10.0**u), min_size=d, max_size=d))
        return piecewise_linear(np.cumsum(widths)[:-1] / sum(widths))
    if kind == "smooth_sine":
        return smooth_sine_map(d, d * draw(near_bound_to(15)))
    base = draw(boundary_maps(depth - 1))
    homeo = compose_homeos(draw(st.lists(near_bound_to(8).map(sine_homeo), min_size=1, max_size=3)))
    return CircleMapSpec(kind="conjugated", degree=base.degree, base=base, homeo=homeo)


@st.composite
def flat_conjugated_maps(draw):
    """Conjugated maps over the ranges that fix the slope floor of validation:
    degree 2-3; a linear, piecewise-linear (gaps in [0.05, 1]) or smooth
    base with ``epsilon = d * near_bound``; 1-3 sine parts with ``c =
    near_bound`` (built unvalidated)."""
    d = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(["linear", "pl", "smooth_sine"]))
    if kind == "linear":
        base = linear_map(d)
    elif kind == "pl":
        gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=d, max_size=d))
        base = piecewise_linear(np.cumsum(gaps)[:-1] / sum(gaps))
    else:
        base = smooth_sine_map(d, d * draw(near_bound))
    homeo = compose_homeos(draw(st.lists(near_bound.map(sine_homeo), min_size=1, max_size=3)))
    return CircleMapSpec(kind="conjugated", degree=d, base=base, homeo=homeo)


class TestLiftProperties:
    @settings(max_examples=100, deadline=None)
    @given(any_maps())
    def test_unit_ends_exact(self, spec):
        # x = 1 reduces to u = 0, and every unit lift maps 0 to 0 exactly,
        # so validation needs no F(0) or F(1) check
        assert lift_values(spec, 0.0) == 0.0
        assert lift_values(spec, 1.0) == spec.degree

    @settings(max_examples=50, deadline=None)
    @given(pl_maps(), st.floats(-3.0, 3.0, allow_nan=False))
    def test_periodicity(self, spec, x):
        d = spec.degree
        assert abs(eval_lift(spec, x + 1.0) - eval_lift(spec, x) - d) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(pl_maps(), st.data())
    def test_branch_inversion_roundtrip(self, spec, data):
        branch = data.draw(st.integers(0, spec.degree - 1))
        y = data.draw(st.floats(0.0, 1.0, allow_nan=False))
        x = inverse_branch(spec, branch, y)
        cuts = (0.0,) + spec.cuts + (1.0,)
        assert cuts[branch] <= x <= cuts[branch + 1]
        assert abs(eval_lift(spec, x) - (y + branch)) <= 1e-11

    @settings(max_examples=30, deadline=None)
    @given(pl_maps(), st.data())
    def test_inverse_branch_monotone_in_y(self, spec, data):
        branch = data.draw(st.integers(0, spec.degree - 1))
        ys = sorted(
            data.draw(
                st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=2, max_size=8)
            )
        )
        xs = [inverse_branch(spec, branch, y) for y in ys]
        assert all(b >= a for a, b in zip(xs, xs[1:]))

    @settings(max_examples=30, deadline=None)
    @given(pl_maps(), st.floats(-1.5, 2.5, allow_nan=False), st.integers(1, 8))
    # forward orbits through x = -9.7e-9 and x = -4.1e-9 that missed a fixed 1e-9
    @example(piecewise_linear((0.4740740740740741, 0.9481481481481482)), -0.5, 6)
    @example(piecewise_linear((0.32, 0.64, 0.96)), -1.0, 6)
    def test_global_inverse_roundtrip(self, spec, y, n):
        x = global_inverse_lift(spec, y, n)
        forward = x
        for _ in range(n):
            forward = eval_lift(spec, forward)
        assert abs(forward - y) <= _roundtrip_bound(spec, y, n)


class TestWordProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 9), min_size=0, max_size=12))
    def test_text_roundtrip(self, symbols):
        word = Word(tuple(symbols))
        assert Word.from_text(word.to_text()) == word

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=10), st.integers(0, 3))
    def test_shift_algebra(self, symbols, extra):
        word = Word(tuple(symbols))
        assert drop_last(word.extended(extra)) == word
        assert left_shift(Word((extra,) + word.symbols)) == word
        assert left_shift(word).level == word.level - 1


class TestPartitionProperties:
    @settings(max_examples=25, deadline=None)
    @given(pl_maps(), st.data())
    def test_refinement_nesting(self, spec, data):
        word = data.draw(words_for(spec.degree))
        child = interval_of_word(spec, word)
        parent = interval_of_word(spec, drop_last(word))
        assert parent.left <= child.left <= child.right <= parent.right

    @settings(max_examples=25, deadline=None)
    @given(pl_maps(), st.data())
    def test_children_tile_parent(self, spec, data):
        word = data.draw(words_for(spec.degree, max_level=4))
        parent = interval_of_word(spec, word)
        children = [interval_of_word(spec, word.extended(s)) for s in range(spec.degree)]
        assert children[0].left == parent.left
        assert children[-1].right == pytest.approx(parent.right, abs=1e-12)
        for a, b in zip(children, children[1:]):
            assert a.right == pytest.approx(b.left, abs=1e-12)
        total = sum(c.length for c in children)
        assert total == pytest.approx(parent.length, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(pl_maps(), st.data())
    def test_dynamics_shifts_word(self, spec, data):
        word = data.draw(words_for(spec.degree))
        cyl = interval_of_word(spec, word)
        image_left = eval_lift(spec, cyl.left) - word.symbols[0]
        shifted = interval_of_word(spec, left_shift(word))
        assert image_left == pytest.approx(shifted.left, abs=1e-11)

    @settings(max_examples=20, deadline=None)
    @given(pl_maps(), unit_points, st.integers(1, 8))
    def test_itinerary_membership(self, spec, x, n):
        word = word_of_point(spec, x, n)
        cyl = interval_of_word(spec, word)
        assert cyl.left <= x <= cyl.right

    @settings(max_examples=15, deadline=None)
    @given(pl_maps(), st.integers(1, 5))
    def test_level_endpoints_tile(self, spec, n):
        ends = level_endpoints(spec, n)
        assert ends[0] == 0.0 and ends[-1] == 1.0
        assert np.all(np.diff(ends) > 0)
        assert abs(float(np.sum(np.diff(ends))) - 1.0) <= spec.degree**n * 1e-12

    @settings(max_examples=15, deadline=None)
    @given(pl_maps(), st.integers(1, 6))
    def test_mesh_decays_geometrically(self, spec, n):
        tau = max(np.diff(np.concatenate([[0.0], spec.cuts, [1.0]])))
        assert mesh(spec, n) <= tau**n + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(boundary_maps())
    def test_valid_maps_mesh_strictly_decreases(self, spec):
        # a valid lift is strictly increasing, so every level-(n+1) cylinder
        # splits its parent into d pieces of positive length: the mesh falls
        # at every level, which is all a conjugacy asks of g beyond validity
        assume(validate(spec).ok)
        meshes = [mesh(spec, n) for n in range(1, 7)]
        assert all(b < a for a, b in zip(meshes, meshes[1:])), meshes


class TestValidationProperties:
    @settings(max_examples=200, deadline=None)
    @given(flat_conjugated_maps())
    def test_accepted_conjugated_maps_pass_grid_check(self, spec):
        # the slope floor is at least as strict as sampling the computed lift
        if validate(spec).ok:
            assert grid_monotone_failure(spec) is None


class TestDistortionProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(-0.9, 0.9, allow_nan=False),
        unit_points,
        st.floats(1e-4, 0.5, allow_nan=False),
    )
    def test_swapped_ratio_is_reciprocal(self, c, x, t):
        h = sine_homeo(c)
        vals = [sine_homeo_lift(c, v) for v in (x + t, x, x - t)]
        ratio = qs_ratio(h, x, t)
        swapped = (vals[1] - vals[2]) / (vals[0] - vals[1])
        assert ratio * swapped == pytest.approx(1.0, rel=1e-12)
