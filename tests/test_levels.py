"""The level kernel against the branch-by-branch reference loop and mpmath.

``iter_levels`` solves each partition endpoint once: a word ending in symbol 0
shares its parent's left end, so for root-solved kinds every step copies the
parents and solves only the other children.  Every level must equal the old
loop (kept in ``_oracles``) bit for bit, and a level-n walk of a root-solved
map may solve at most d^n endpoints, where the old loop solved
d(d^n - 1)/(d - 1).
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circledyn import (
    CellCapExceeded,
    Word,
    bounded_geometry_constant,
    iter_levels,
    linear_map,
    make_conjugated,
    piecewise_linear,
    sine_homeo,
    smooth_sine_map,
)
from circledyn import defaults, symbolic_partition
from circledyn.analysis import tail_sum
from circledyn.circle_maps import chain_error_bound, compose_homeos
from circledyn.symbolic_partition import level_left_endpoints
from _oracles import MP_DIGITS, mp_level_left_endpoints, reference_levels

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


class TestAgainstReferenceLoop:
    @settings(max_examples=60, deadline=None)
    @given(specs_with_level(), st.sampled_from([TOL, 1e-10]))
    def test_every_level_bit_identical(self, spec_level, tol):
        spec, n = spec_level
        got = list(iter_levels(spec, n, tol=tol))
        want = reference_levels(spec, n, tol)
        assert len(got) == n
        for k, (a, b) in enumerate(zip(got, want), 1):
            assert np.array_equal(a, b), (spec, k)
            assert _same_bits(a, b), (spec, k)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("family", ["linear", "random_pl", "narrow_pl"])
    def test_closed_form_levels_bit_identical(self, d, family):
        # closed forms write each branch into its slice of the level; the
        # values must be those of the concatenated per-branch calls
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
        n = int(math.log(2**12, d) + 1e-9)
        got = list(iter_levels(spec, n))
        want = reference_levels(spec, n, TOL)
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
        assert counts["calls"] == n + d - 1

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
        bound = chain_error_bound(spec, TOL, n)[n]
        with mpmath.workdps(MP_DIGITS):
            errors = [abs(mpmath.mpf(float(a)) - b) for a, b in zip(got, want)]
        assert len(errors) == 2**n
        assert max(errors) <= bound
