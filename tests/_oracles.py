"""Independent oracle implementations used to freeze expected test values.

Everything here is deliberately written from scratch against the defining
formulas (plain bisection, direct branch formulas, brute-force enumeration,
60-digit bisection and Newton solves in mpmath) and never calls into the
package, so package results can be checked against a second, structurally
different computation path.  The reference loops, the grid check and the verbatim
earlier sine-family kernel at the end are the exceptions.
"""

from __future__ import annotations

import itertools
import math

TWO_PI = 2.0 * math.pi


def bisect_root(fn, lo: float, hi: float, target: float, iters: int = 200) -> float:
    """Plain scalar bisection for an increasing fn on [lo, hi]."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def pl_lift(cuts: list[float], x: float) -> float:
    """Piecewise-linear full-branch lift, straight from the branch formula."""
    k = math.floor(x)
    u = x - k
    d = len(cuts) + 1
    ext = [0.0] + list(cuts) + [1.0]
    i = 0
    while i < d - 1 and u >= ext[i + 1]:
        i += 1
    return i + (u - ext[i]) / (ext[i + 1] - ext[i]) + k * d


def smooth_lift(degree: int, eps: float, x: float) -> float:
    return degree * x + eps * math.sin(TWO_PI * x) / TWO_PI


def sine_homeo_lift(c: float, x: float) -> float:
    return x + c * math.sin(TWO_PI * x) / TWO_PI


def sine_homeo_inverse(c: float, y: float) -> float:
    k = math.floor(y)
    return k + bisect_root(lambda u: sine_homeo_lift(c, u), 0.0, 1.0, y - k)


def conjugated_inverse_branch(c: float, branch: int, y: float) -> float:
    """Inverse branch of H^{-1} o (2x) o H with H the sine homeo of amplitude c."""
    return sine_homeo_inverse(c, (sine_homeo_lift(c, y) + branch) / 2.0)


# ---------------------------------------------------------------------------
# 60-digit mpmath oracles
# ---------------------------------------------------------------------------

MP_DIGITS = 60
_MP_NEWTON_STEPS = 40


def _mp_newton(fn, dfn, target, x):
    """Newton's method for an increasing fn; asserts a residual near MP_DIGITS."""
    import mpmath

    for _ in range(_MP_NEWTON_STEPS):
        step = (fn(x) - target) / dfn(x)
        x -= step
        if abs(step) < mpmath.mpf(10) ** (-MP_DIGITS):
            break
    assert abs(fn(x) - target) < mpmath.mpf(10) ** (5 - MP_DIGITS)
    return x


def mp_sine_family_root(D: int, a: float, target: float, iters: int = 210):
    """Root of ``D*x + a*sin(2 pi x)/(2 pi) = target`` on [0, 1] by MP_DIGITS-digit bisection.

    Bisection needs only monotonicity, so it also serves the near-degenerate
    maps (``|a|`` close to ``D``) where Newton's method is slow to settle.
    """
    import mpmath

    with mpmath.workdps(MP_DIGITS):
        two_pi = 2 * mpmath.pi
        p, t = mpmath.mpf(a), mpmath.mpf(target)
        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        for _ in range(iters):
            mid = (lo + hi) / 2
            if D * mid + p * mpmath.sin(two_pi * mid) / two_pi < t:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def mp_sine_family_newton_root(D: int, a: float, target: float, start: float):
    """The root of :func:`mp_sine_family_root` by MP_DIGITS-digit Newton from
    ``start``, which must lie well inside Newton's basin (within about
    ``(D - |a|)/(2*pi*|a|)`` of the root).

    The family is increasing, so the residual check of :func:`_mp_newton`
    pins the unique root as bisection does, at a few evaluations instead of
    210.
    """
    import mpmath

    with mpmath.workdps(MP_DIGITS):
        two_pi = 2 * mpmath.pi
        p = mpmath.mpf(a)
        return _mp_newton(
            lambda u: D * u + p * mpmath.sin(two_pi * u) / two_pi,
            lambda u: D + p * mpmath.cos(two_pi * u),
            mpmath.mpf(target),
            mpmath.mpf(start),
        )


def mp_sine_family_level_root(D: int, a: float, target):
    """The root of :func:`mp_sine_family_root`, bisected by it only until the
    midpoint lies well inside Newton's basin, then finished by
    :func:`mp_sine_family_newton_root`.

    Bisection alone takes 210 sines per root, about 9 ms at 60 digits, which
    a level oracle pays thousands of times; this takes a few dozen.  The
    residual check of the Newton finish pins the root as bisection does.
    """
    basin = (D - abs(a)) / (2 * math.pi * abs(a)) if a else 1.0
    iters = min(210, max(1, math.ceil(-math.log2(basin)) + 2))
    return mp_sine_family_newton_root(D, a, target, mp_sine_family_root(D, a, target, iters))


def mp_level_left_endpoints(kind: str, degree: int, param: float, n: int) -> list:
    """Level-n left endpoints in word order at MP_DIGITS digits.

    ``kind`` is ``"smooth_sine"`` (lift ``d*x + param*sin(2 pi x)/(2 pi)``)
    or ``"conjugated_linear"`` (``H^-1 o (d*x) o H`` with H the sine homeo of
    amplitude ``param``).  Each level applies every inverse branch to every
    endpoint of the level above.  Every root is bracketed by bisection
    (:func:`mp_sine_family_level_root`), so near-degenerate maps, whose
    Newton steps from the target overshoot, are solved too.
    """
    import mpmath

    with mpmath.workdps(MP_DIGITS):
        two_pi = 2 * mpmath.pi
        p = mpmath.mpf(param)
        if kind == "smooth_sine":
            def branch(s, y):
                return mp_sine_family_level_root(degree, param, s + y)
        elif kind == "conjugated_linear":
            def branch(s, y):
                hy = y + p * mpmath.sin(two_pi * y) / two_pi
                return mp_sine_family_level_root(1, param, (hy + s) / degree)
        else:
            raise ValueError(kind)
        lefts = [mpmath.mpf(0)]
        for _ in range(n):
            lefts = [branch(s, y) for s in range(degree) for y in lefts]
    return lefts


def mp_conjugated_pl_left_endpoints(cuts: list[float], c: float, n: int) -> list:
    """Level-n left endpoints in word order at MP_DIGITS digits of
    ``H^-1 o G o H``, G the piecewise-linear map with ``cuts`` and H the sine
    homeo of amplitude ``c``: each branch is ``H^-1(c_s + (c_{s+1} - c_s)*H(y))``."""
    import mpmath

    with mpmath.workdps(MP_DIGITS):
        two_pi = 2 * mpmath.pi
        p = mpmath.mpf(c)
        ext = [mpmath.mpf(0)] + [mpmath.mpf(x) for x in cuts] + [mpmath.mpf(1)]

        def branch(s, y):
            hy = y + p * mpmath.sin(two_pi * y) / two_pi
            return mp_sine_family_level_root(1, c, ext[s] + (ext[s + 1] - ext[s]) * hy)

        lefts = [mpmath.mpf(0)]
        for _ in range(n):
            lefts = [branch(s, y) for s in range(len(ext) - 1) for y in lefts]
    return lefts


def exact_cylinder(spec, word: tuple[int, ...]) -> tuple:
    """Exact ``fractions.Fraction`` ends of a linear or piecewise-linear
    cylinder: branch s maps y to ``(s + y)/d``, or to ``c_s + y*(c_{s+1} - c_s)``
    with the float cuts converted exactly, last symbol first."""
    from fractions import Fraction

    if spec.kind == "linear":
        def branch(s, y):
            return (s + y) / spec.degree
    else:
        ext = [Fraction(0)] + [Fraction(x) for x in spec.cuts] + [Fraction(1)]

        def branch(s, y):
            return ext[s] + y * (ext[s + 1] - ext[s])

    a, b = Fraction(0), Fraction(1)
    for s in reversed(word):
        a, b = branch(s, a), branch(s, b)
    return a, b


def pl_cylinder(cuts: list[float], word: tuple[int, ...]) -> tuple[float, float]:
    """Cylinder endpoints by composing exact branch formulas right-to-left."""
    ext = [0.0] + list(cuts) + [1.0]
    a, b = 0.0, 1.0
    for s in reversed(word):
        a = ext[s] + a * (ext[s + 1] - ext[s])
        b = ext[s] + b * (ext[s + 1] - ext[s])
    return a, b


def pl_word_by_scan(cuts: list[float], x: float, n: int) -> tuple[int, ...]:
    """Word of x found by scanning all level-n cylinders (right cylinder wins ties)."""
    d = len(cuts) + 1
    best = None
    for word in itertools.product(range(d), repeat=n):
        a, b = pl_cylinder(cuts, word)
        if a <= x <= b:
            best = word  # later (righter) cylinders overwrite at shared endpoints
    assert best is not None
    return best


def pl_exact_word(cuts: list[float], x: float, n: int):
    """The exact level-n word of the float x under the piecewise-linear map
    with these float cuts (ties go right), and the exact distance
    (a ``Fraction``) from x to the nearer end of its level-n cylinder.

    Every cylinder end of such a map is dyadic, so x and the ends are held
    as integers over one power of two, which each level raises by the cuts'
    denominator: exact, and far cheaper than ``Fraction`` arithmetic."""
    from fractions import Fraction

    ext = [Fraction(c) for c in (0.0, *cuts, 1.0)]
    shift = max(c.denominator for c in ext).bit_length() - 1
    nums = [int(c * 2**shift) for c in ext]
    X, q = Fraction(x).as_integer_ratio()
    a, b, scale = 0, q, q.bit_length() - 1
    word = []
    for _ in range(n):
        X, a, b, scale = X << shift, a << shift, b << shift, scale + shift
        width = (b - a) >> shift
        ends = [a + width * c for c in nums]
        s = sum(X >= e for e in ends[1:-1])
        word.append(s)
        a, b = ends[s], ends[s + 1]
    return tuple(word), Fraction(min(X - a, b - X), 1 << scale)


def pl_tail_sum_bruteforce(cuts: list[float], word: tuple[int, ...], k: int) -> float:
    """Sum of |I(w1...wk)| over all block tuples avoiding ``word``, by enumeration."""
    d = len(cuts) + 1
    n = len(word)
    blocks = [w for w in itertools.product(range(d), repeat=n) if w != tuple(word)]
    total = 0.0
    for combo in itertools.product(blocks, repeat=k):
        flat = tuple(s for block in combo for s in block)
        a, b = pl_cylinder(cuts, flat)
        total += b - a
    return total


# ---------------------------------------------------------------------------
# Reference refinement and level loops
# ---------------------------------------------------------------------------
# The package's refinement used to rebuild the whole backward chain of
# inverse branches at every depth, O(K^2) inverse solves per point, and its
# level enumeration applied every branch to every parent, solving each
# endpoint again at every deeper level.  These loops are those computations,
# kept as the references the package's kernels must reproduce; unlike the
# rest of this file they call the package's inverse branches, since
# bit-identical results are the point of the comparison.

def reference_levels(spec, n: int) -> list:
    """Left endpoints of levels 1..n, each level the concatenation of the d
    inverse branches applied to all of the level above."""
    import numpy as np
    from circledyn.circle_maps import inverse_branch_values

    lefts = np.zeros(1)
    levels = []
    for _ in range(n):
        lefts = np.concatenate(
            [inverse_branch_values(spec, s, lefts) for s in range(spec.degree)]
        )
        levels.append(lefts)
    return levels


def reference_itinerary(spec, xs, n: int):
    """Level-n symbol matrix by a full backward chain per depth and cut."""
    import numpy as np
    from circledyn.circle_maps import branch_points, inverse_branch_values

    xs = np.asarray(xs, dtype=float)
    d = spec.degree
    cuts = np.asarray(branch_points(spec), dtype=float)
    symbols = np.zeros((xs.size, n), dtype=np.int64)
    for k in range(n):
        sel = np.zeros(xs.size, dtype=np.int64)
        for s in range(1, d):
            division = np.full(xs.size, cuts[s])
            for j in range(k - 1, -1, -1):
                division = inverse_branch_values(spec, symbols[:, j], division)
            sel += division <= xs
        symbols[:, k] = sel
    return symbols


def reference_enclosures(f, g, xs, tol: float, depth_cap: int):
    """(lo, hi, depth, tol_met) by refining all points in lockstep, one full
    backward chain per depth for every division point and g-endpoint."""
    import numpy as np
    from circledyn.circle_maps import branch_points, inverse_branch_values

    xs = np.asarray(xs, dtype=float)
    m = xs.size
    d = f.degree
    f_cuts = np.asarray(branch_points(f), dtype=float)
    g_cuts = np.asarray(branch_points(g), dtype=float)
    lo_f, hi_f = np.zeros(m), np.ones(m)
    lo_g, hi_g = np.zeros(m), np.ones(m)
    depth = np.zeros(m, dtype=np.int64)
    symbols = np.zeros((m, depth_cap), dtype=np.int64)
    at_one = xs == 1.0
    lo_g[at_one] = hi_g[at_one] = 1.0
    at_zero = xs == 0.0
    hi_g[at_zero] = 0.0
    done = at_one | at_zero | ((hi_g - lo_g) <= tol)
    for k in range(depth_cap):
        if done.all():
            break
        act = np.where(~done)[0]
        x_act = xs[act]
        sub = symbols[act, :k]

        def chain(spec, start):
            v = start
            for j in range(k - 1, -1, -1):
                v = inverse_branch_values(spec, sub[:, j], v)
            return v

        divisions = np.empty((d + 1, act.size))
        divisions[0] = lo_f[act]
        divisions[d] = hi_f[act]
        for s in range(1, d):
            divisions[s] = chain(f, np.full(act.size, f_cuts[s]))
        sel = np.zeros(act.size, dtype=np.int64)
        for s in range(1, d):
            sel += divisions[s] <= x_act
        symbols[act, k] = sel
        cols = np.arange(act.size)
        new_lo_f, new_hi_f = divisions[sel, cols], divisions[sel + 1, cols]
        new_lo_g, new_hi_g = chain(g, g_cuts[sel]), chain(g, g_cuts[sel + 1])
        lo_f[act], hi_f[act] = new_lo_f, new_hi_f
        lo_g[act], hi_g[act] = new_lo_g, new_hi_g
        depth[act] = k + 1
        done[act[(new_hi_g - new_lo_g) <= tol]] = True
    return lo_g, hi_g, depth, (hi_g - lo_g) <= tol


# Before the scalar chain, a cylinder was one vector call per symbol on both
# ends.  This is that computation, as the reference for the scalar
# closed-form chain.

def reference_cylinder(spec, symbols) -> tuple[float, float]:
    """Ends of the cylinder of ``symbols``: one inverse-branch call per symbol
    on the array ``[0, 1]``, last symbol first."""
    import numpy as np
    from circledyn.circle_maps import inverse_branch_values

    ab = np.array([0.0, 1.0])
    for s in reversed(symbols):
        ab = inverse_branch_values(spec, s, ab)
    return float(ab[0]), float(ab[1])


# Before certified brackets were finished from the targets alone, every
# sine-family solve evaluated f at both ends of every bracket, checked the
# range and the exact end hits on those values, and ran the solver passes;
# uniform-quasisymmetry ratios ran three separate scalar inverse chains, one
# solve per value and step; the measure profile made one inverse-branch call
# per branch and interval end.  These are those computations, as references
# the batched paths must reproduce bit for bit (the sine-family solve where
# its certified bracket is at most tol wide: the wider ones are now finished
# by certified bisection, not by the general solver ``_solve_block``).

def reference_sine_family_solve(D: int, a: float, target, tol: float):
    """Roots of ``D*x + a*sin(2*pi*x)/(2*pi) = target`` on [0, 1]: the
    certified bracket, then f at both of its ends and the passes of the
    general solver ``_solve_block`` (below)."""
    import numpy as np
    from circledyn import circle_maps
    from circledyn.errors import SolverError

    def f(u):
        return D * u + a * np.sin(TWO_PI * u) / TWO_PI

    target = np.asarray(target, dtype=float).reshape(-1)
    out = np.empty(target.size)
    block_size = circle_maps._SOLVER_BLOCK
    for start in range(0, target.size, block_size):
        t = target[start : start + block_size]
        if not np.all(np.isfinite(t)):
            raise SolverError("non-finite solver target")
        lo, hi = circle_maps._sine_family_bracket(D, a, t, tol)
        f_lo, f_hi = f(lo), f(hi)
        if np.any(t < f_lo - 1e-9) or np.any(t > f_hi + 1e-9):
            raise SolverError("target outside monotone bracket (lift not monotone?)")
        mid = _solve_block(f, lo, hi, t, tol)
        out[start : start + block_size] = np.where(f_lo == t, lo, np.where(f_hi == t, hi, mid))
    return out


def reference_chain_error_bound(spec, tol: float, n: int):
    """``chain_error_bound`` as it was with ``tol/2`` for every root solve,
    whatever the slope floor, and ``tol/2`` for an ``H^{-1}`` that solves
    nothing; the per-root bound must equal it bit for bit wherever every
    solve has ``(5/4)*pad/(D - |a|) <= tol/2``."""
    import numpy as np
    from circledyn.circle_maps import _UNIT_ROUNDOFF, _chain_error_model, homeo_slope_bounds, is_closed_form

    def solves(homeo):
        return 1 if homeo.kind == "sine_homeo" else sum(solves(part) for part in homeo.parts)

    def step(s):
        if is_closed_form(s):
            return 4.0 * _UNIT_ROUNDOFF
        if s.kind == "smooth_sine":
            return 0.5 * tol + 4.0 * _UNIT_ROUNDOFF
        h_lo = homeo_slope_bounds(s.homeo)[0]
        return (0.5 * tol * max(1, solves(s.homeo)) + step(s.base)) / h_lo + 4.0 * _UNIT_ROUNDOFF

    _, rho, lam = _chain_error_model(spec)
    with np.errstate(over="ignore"):
        reach = rho * lam ** np.arange(n)
    return step(spec) * np.concatenate(([0.0], np.cumsum(reach)))


def reference_inverse_lift(spec, y: float, n: int) -> float:
    """``F^{-n}(y)`` by n scalar steps, each solving for its one value."""
    import numpy as np
    from circledyn.circle_maps import branch_points, inverse_branch_values

    d = spec.degree
    v = float(y)
    for _ in range(n):
        if spec.kind == "linear":
            v = v / d
            continue
        m = math.floor(v / d)
        t = v - m * d
        if t < 0.0:
            m -= 1
            t = v - m * d
        elif t >= d:
            m += 1
            t = v - m * d
        branch = min(int(t), d - 1)
        anchor = m * d + branch
        frac = max(v - anchor, 0.0)
        cofrac = max((anchor + 1) - v, 0.0)
        left, right = branch_points(spec)[branch : branch + 2]
        if spec.kind == "piecewise_linear_full_branch":
            gap = right - left
            v = (m + right) - cofrac * gap if cofrac <= frac else (m + left) + frac * gap
        else:
            v = m + float(inverse_branch_values(spec, branch, np.float64(min(frac, 1.0))))
    return v


def reference_uqs_ratio(spec, x: float, t: float, n: int) -> float:
    """The n-fold inverse distortion ratio from three separate chains."""
    plus, mid, minus = (reference_inverse_lift(spec, y, n) for y in (x + t, x, x - t))
    return (plus - mid) / (mid - minus)


def reference_measure_profile(spec, intervals):
    """Measure deviations with one inverse-branch call per branch and end."""
    import numpy as np
    from circledyn.circle_maps import inverse_branch_values

    a = np.asarray([iv[0] for iv in intervals], dtype=float)
    b = np.asarray([iv[1] for iv in intervals], dtype=float)
    total = np.zeros_like(a)
    for s in range(spec.degree):
        total += inverse_branch_values(spec, s, b)
        total -= inverse_branch_values(spec, s, a)
    return np.abs(total - (b - a))


# Tail sums and the bounded-geometry constant used to hold every block
# level's lengths until the walk ended, and built each level's lengths from a
# copy with 1 appended and its parent/child quotients from a repeated copy of
# the parents.  These are those computations, the references the streaming
# walks must reproduce bit for bit.

def reference_tail_sum(spec, word, k_max: int):
    """``tail_sum``'s enumeration branch: all block levels kept, the avoiding
    words masked by ``arange % d**n`` after the walk."""
    import numpy as np
    from circledyn.analysis import TailSumReport, TailSumRow
    from circledyn.symbolic_partition import index_of_word, iter_levels

    d, n = spec.degree, word.level
    widx = index_of_word(word, d)
    prev = parent = np.ones(1)
    block_lengths = []
    bg_worst = ratio_floor = 1.0
    for level, lefts in enumerate(iter_levels(spec, n * k_max), 1):
        lengths = np.diff(np.append(lefts, 1.0))
        bg_worst = max(bg_worst, float(np.max(np.repeat(prev, d) / lengths)))
        prev = lengths
        if level % n == 0:
            ratio_floor = min(ratio_floor, float(np.min(lengths / np.repeat(parent, d**n))))
            parent = lengths
            block_lengths.append(lengths)
    bg_floor = bg_worst**-n
    rows = []
    mask = np.ones(1, dtype=bool)
    for k in range(1, k_max + 1):
        lengths = block_lengths[k - 1]
        last_block = np.arange(lengths.size, dtype=np.int64) % (d**n)
        mask = np.repeat(mask, d**n) & (last_block != widx)
        rows.append(
            TailSumRow(
                k=k,
                excluded_sum=float(np.sum(lengths[mask])),
                bound_empirical=(1.0 - ratio_floor) ** k,
                bound_bg_constant=(1.0 - bg_floor) ** k,
                interval_count=int(np.count_nonzero(mask)),
            )
        )
    return TailSumReport(
        word=word,
        block_level=n,
        ratio_floor=ratio_floor,
        bg_ratio_floor=bg_floor,
        method="enumeration",
        rows=tuple(rows),
    )


def reference_bounded_geometry_constant(spec, n_max: int) -> float:
    """Largest parent/child length ratio over levels 1..n_max, each level's
    quotients taken against the repeated parents."""
    import numpy as np
    from circledyn.symbolic_partition import iter_levels

    worst = 1.0
    prev = np.asarray([1.0])
    for lefts in iter_levels(spec, n_max):
        lengths = np.diff(np.append(lefts, 1.0))
        worst = max(worst, float(np.max(np.repeat(prev, spec.degree) / lengths)))
        prev = lengths
    return worst


# Validation once sampled the lift as well: strict monotonicity on a grid of
# 2048 intervals plus all breakpoints.  That check is kept here as the
# reference that the formula check (the slope floor of a conjugated map) must
# be at least as strict as; it calls the package's lift and inverse
# homeomorphism, since it judges the lift the package computes.

MONOTONE_GRID = 2048


def structural_cuts(spec):
    """Breakpoints worth adding to the validation grid (known cuts only)."""
    import numpy as np
    from circledyn.circle_maps import _homeo_inverse_unit

    if spec.kind == "piecewise_linear_full_branch":
        return np.asarray(spec.cuts, dtype=float)
    if spec.kind == "conjugated" and spec.base is not None and spec.homeo is not None:
        inner = structural_cuts(spec.base)
        if inner.size:
            return _homeo_inverse_unit(spec.homeo, inner)
    return np.asarray([], dtype=float)


def grid_monotone_failure(spec, grid: int = MONOTONE_GRID):
    """The grid check's ``non_monotone`` violation of a structurally valid
    spec, or None when its computed lift increases strictly on the grid."""
    import numpy as np
    from circledyn import defaults
    from circledyn.circle_maps import Violation, lift_values

    # strict monotonicity on a dense grid plus all breakpoints; F(0) = 0
    # and F(1) = d hold exactly for every kind, as lift_values reduces
    # x = 1 to u = 0 and every unit lift maps 0 to 0
    xs = np.linspace(0.0, 1.0, grid + 1)
    cuts = structural_cuts(spec)
    if cuts.size:
        # an interior grid point closer to a breakpoint than MIN_CUT_GAP
        # gives way to it: the lift step across so small a gap can round
        # to zero and read as a monotonicity failure
        j = np.searchsorted(cuts, xs)
        near = np.minimum(
            np.abs(xs - cuts[np.maximum(j - 1, 0)]),
            np.abs(cuts[np.minimum(j, cuts.size - 1)] - xs),
        ) < defaults.MIN_CUT_GAP
        near[[0, -1]] = False
        xs = np.unique(np.concatenate([xs[~near], cuts]))
    bad = np.flatnonzero(np.diff(lift_values(spec, xs)) <= 0)
    if bad.size:
        at = float(xs[bad[0]])
        return Violation(
            "non_monotone",
            f"lift not strictly increasing on the validation grid "
            f"(first failure between x={at:.6g} and x={float(xs[bad[0] + 1]):.6g})",
            location=at,
        )
    return None


# ---------------------------------------------------------------------------
# The sine-family kernel before its per-block guards
# ---------------------------------------------------------------------------
# ``_sine_family_bracket`` and ``_solve_sine_family`` as they were before
# each solver block got one range check, one radius guard, one width guard
# and in-place arithmetic, copied verbatim, so that the lean kernel can be
# held to them bit for bit where a bracket is at most tol wide.  Their
# helpers are the package's own, which that change left as they were, but
# for the general solver ``_solve_block`` (with ``_narrow`` and
# ``_MAX_SOLVER_STEPS``) that finished the wider brackets then, copied
# verbatim too: the package now finishes those by certified bisection.

from functools import partial

import numpy as np

from circledyn import defaults
from circledyn.circle_maps import (
    _NEWTON_STEPS,
    _SEED_NODES,
    _SOLVER_BLOCK,
    _TWO_PI,
    _UNIT_ROUNDOFF,
    _sine_family,
    _sine_family_inverse_table,
)
from circledyn.errors import SolverError

_MAX_SOLVER_STEPS = 200


def _narrow(x, fx, t, a, b, fa, fb):
    """Replace whichever bracket end ``x`` lies on the same side of the root as."""
    below = fx < t
    return (
        np.where(below, x, a),
        np.where(below, b, x),
        np.where(below, fx, fa),
        np.where(below, fb, fx),
    )


def _solve_block(fn, lo, hi, target, tol: float) -> np.ndarray:
    """Solve ``fn(x) = target`` for an increasing ``fn``, elementwise on 1-D arrays.

    Each bracket ``[lo, hi]`` must hold its root.  ``fn`` is evaluated at
    both ends of every bracket wider than ``tol``, and each result is the
    midpoint of a bracket at most ``tol`` wide, so it lies within ``tol/2``
    of the root.

    Every pass makes two probes per unconverged element.  The first is a
    false-position step; the second "straddles" the root from the first
    probe, stepping ``2*|f(x) - target|/slope + tol/4`` toward it, so that
    both ends of the bracket close in rather than one end sticking.  Both
    probes stay at least ``tol/4`` inside the bracket.  When a pass fails to
    halve an element's bracket, that element's next pass makes two bisection
    steps instead and so quarters it.  A pass therefore either halves the
    bracket or is followed by one that quarters it, which bounds the work at
    about twice the evaluations of plain bisection.  An element is frozen as
    soon as its own bracket is at most ``tol`` wide; later passes evaluate
    ``fn`` only on the elements left.
    """
    out = 0.5 * (lo + hi)
    idx = np.flatnonzero(hi - lo > tol)
    # invariant fn(a) < t <= fn(b), with the same ``<`` as plain bisection; at
    # an end hit fn(a) == t every probe moves b, so the bracket closes on a
    a, b, t = lo[idx], hi[idx], target[idx]
    fa, fb = fn(a), fn(b)
    bisect = np.zeros(idx.size, dtype=bool)
    margin = 0.25 * tol
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_SOLVER_STEPS):
            if idx.size == 0:
                return out
            width = b - a
            slope = (fb - fa) / width
            fast = ~bisect & (slope > 0)
            secant = np.clip(a + (t - fa) / slope, a + margin, b - margin)
            x = np.where(fast, secant, 0.5 * (a + b))
            fx = fn(x)
            a, b, fa, fb = _narrow(x, fx, t, a, b, fa, fb)
            step = 2.0 * np.abs(fx - t) / slope + margin
            straddle = np.clip(np.where(fx < t, x + step, x - step), a + margin, b - margin)
            y = np.where(fast & (b - a > tol), straddle, 0.5 * (a + b))
            a, b, fa, fb = _narrow(y, fn(y), t, a, b, fa, fb)
            bisect = b - a > 0.5 * width
            keep = b - a > tol
            done = ~keep
            out[idx[done]] = 0.5 * (a[done] + b[done])
            idx, a, b, fa, fb, t, bisect = (
                arr[keep] for arr in (idx, a, b, fa, fb, t, bisect)
            )
    raise SolverError("root solver failed to converge")



def _sine_family_bracket(
    D: int, a: float, target: np.ndarray, tol: float = defaults.SOLVER_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Certified brackets in [0, 1] for ``f(x) = D*x + a*sin(2*pi*x)/(2*pi) = target``.

    The cached inverse table of :func:`_sine_family_inverse_table` (a linear
    interpolation between two nodes, no search) gives a guess x0, and one
    sine its computed residual r0.  One Newton step x1, clipped to [0, 1],
    is certified without evaluating f again by Kantorovich's a-priori bound:
    with u the unit roundoff, the slope floor ``m = D - |a| > 0`` and
    ``M = 2*pi*|a| >= |f''|``, the root x* lies within this r1 of x1:

        ``r1 = (ds*e0 + (M/2)*e0**2 + pad)/(m - ds) + u*|r0|/(m - ds) + u``

    * ``pad = 16*u*(D + |a|)`` is four times the rounding of a computed
      residual (at most ``4*u*(D + |a|)``), so x0 is within
      ``e0 = (|r0| + pad)/m`` of x*, and the rest keeps the computed f on
      the right side of the target at the bracket ends (below);
    * ``ds = u*(D + 24*|a|)`` bounds the error of the computed slope s: the
      angle is within ``4*pi*u`` of ``2*pi*x0``, cos adds at most 4 ulps
      (8u), and the product and the sum one rounding each;
    * Taylor at x0 gives ``s*(x0 - r0/s - x*) = (s - f'(x0))*(x0 - x*) +
      f''(xi)*(x0 - x*)**2/2 + (f(x0) - t - r0)``, and ``s >= m - ds``: the
      first term;
    * the computed quotient ``r0/s`` is off by at most ``u*|r0|/(m - ds)``,
      and the computed difference, if within 1 of ``x* in [0, 1]``, lies in
      [-1, 2] and is off by at most u; were it not, r1 > 1 and the bracket
      is [0, 1].  Clipping only moves x1 toward x*.

    ``|r0| <= m*e0`` folds the quotient term into the linear one, and every
    coefficient is scaled by ``1 + 32*u``, more than the relative rounding of
    the dozen operations that form r1, so r1 is rounded up.  Elements whose
    r1 still exceeds ``tol/2`` (near the flat spot of a near-degenerate map)
    are certified at x1 by ``(|f(x1) - target| + pad)/m`` instead and step
    again, each step certified that way, up to ``_NEWTON_STEPS`` in all.
    The guess affects speed only: the clipped bracket ``[x - r, x + r]``
    holds the root whatever x is.  With the padding the computed f is below
    the target at an unclipped left end and above it at an unclipped right
    end, so the ends need no evaluation.  Each bracket depends on its own
    target alone, which must be finite and within the range slack of [0, D]
    (:func:`_solve_sine_family` checks them).
    """
    u = _UNIT_ROUNDOFF
    pad = 16.0 * u * (D + abs(a))
    floor = D - abs(a)
    ds = u * (D + 24.0 * abs(a))
    scale = (1.0 + 32.0 * u) / (floor - ds) if floor > ds else math.inf
    c2, c1, c0 = math.pi * abs(a) * scale, (ds + u * floor) * scale, (pad + u * (floor - ds)) * scale
    table = _sine_family_inverse_table(D, a)
    pos = target * (_SEED_NODES / D)
    # minimum/maximum rather than clip: the arrays are often tiny
    node = np.minimum(np.maximum(pos, 0.0), _SEED_NODES - 1).astype(np.intp)
    left = table[node]
    x = np.minimum(np.maximum(left + (pos - node) * (table[node + 1] - left), 0.0), 1.0)
    residual = _sine_family(D, a, x) - target
    e0 = (np.abs(residual) + pad) / floor
    x = np.minimum(np.maximum(x - residual / (D + a * np.cos(_TWO_PI * x)), 0.0), 1.0)
    radius = (c2 * e0 + c1) * e0 + c0
    for step in range(_NEWTON_STEPS):
        # near-degenerate maps: certify by the residual, then step again
        todo = np.flatnonzero(radius > 0.5 * tol)
        if todo.size == 0:
            break
        xs, ts = x[todo], target[todo]
        if step:
            xs = np.minimum(np.maximum(xs - residual[todo] / (D + a * np.cos(_TWO_PI * xs)), 0.0), 1.0)
        rs = _sine_family(D, a, xs) - ts
        x[todo], residual[todo], radius[todo] = xs, rs, (np.abs(rs) + pad) / floor
    return np.maximum(x - radius, 0.0), np.minimum(x + radius, 1.0)


def _solve_sine_family(D: int, a: float, target, tol: float) -> np.ndarray:
    """Roots of ``_sine_family(D, a, x) = target`` on [0, 1], each within ``tol/2``.

    ``smooth_sine`` (D = degree, a = epsilon) and ``sine_homeo`` (D = 1,
    a = c) are this family, and every root solve of the package is this one.
    A ``tol`` that is not a finite number > 0 raises :class:`ValueError`
    before any work.  Each block of ``_SOLVER_BLOCK`` targets gets its
    brackets from :func:`_sine_family_bracket` (one sine and one cosine per
    typical root), so temporaries stay block-sized.  Non-finite targets,
    then targets outside [0, D] by more than 1e-9, raise
    :class:`SolverError`.  A bracket at most ``tol`` wide gives its midpoint
    with no evaluation of the family: it has ``f(0) = 0`` and ``f(1) = D``
    exactly (``|a*sin(2*pi)/(2*pi)|`` is below half an ulp of D), and the
    computed f straddles the target at unclipped ends, so the range check
    reads the targets alone and the only exact end hits are ``t == 0`` (the
    left end) and ``t == D`` (the right end).  Returning those ends as they
    are keeps the endpoints that inverse-branch chains share bit for bit.
    The other brackets, near the flat spot of a near-degenerate map, are
    finished by :func:`_solve_block`.  Results equal bracket-then-solve on
    every target bit for bit.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be a finite number > 0, got {tol!r}")
    target = np.asarray(target, dtype=float)
    out = np.empty(target.shape)
    flat_target, flat_out = target.reshape(-1), out.reshape(-1)
    family = partial(_sine_family, D, a)
    for start in range(0, target.size, _SOLVER_BLOCK):
        t = flat_target[start : start + _SOLVER_BLOCK]
        if not np.all(np.isfinite(t)):
            raise SolverError("non-finite solver target")
        if np.any(t < -1e-9) or np.any(t > D + 1e-9):
            raise SolverError("target outside monotone bracket (lift not monotone?)")
        lo, hi = _sine_family_bracket(D, a, t, tol)
        root = np.where(t == 0.0, lo, np.where(t == D, hi, 0.5 * (lo + hi)))
        wide = np.flatnonzero((hi - lo > tol) & (t != 0.0) & (t != D))
        if wide.size:
            root[wide] = _solve_block(family, lo[wide], hi[wide], t[wide], tol)
        flat_out[start : start + _SOLVER_BLOCK] = root
    return out
