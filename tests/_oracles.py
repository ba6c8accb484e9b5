"""Independent oracle implementations used to freeze expected test values.

Everything here is deliberately written from scratch against the defining
formulas (plain bisection, direct branch formulas, brute-force enumeration,
60-digit Newton solves in mpmath) and never calls into the package, so
package results can be checked against a second, structurally different
computation path.  The reference loops at the end are the one exception.
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


def _mp_sine_homeo_inverse(c, y):
    import mpmath

    two_pi = 2 * mpmath.pi
    return _mp_newton(
        lambda u: u + c * mpmath.sin(two_pi * u) / two_pi,
        lambda u: 1 + c * mpmath.cos(two_pi * u),
        y,
        y,
    )


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


def mp_level_left_endpoints(kind: str, degree: int, param: float, n: int) -> list:
    """Level-n left endpoints in word order at MP_DIGITS digits.

    ``kind`` is ``"smooth_sine"`` (lift ``d*x + param*sin(2 pi x)/(2 pi)``)
    or ``"conjugated_linear"`` (``H^-1 o (d*x) o H`` with H the sine homeo of
    amplitude ``param``).  Each level applies every inverse branch to every
    endpoint of the level above.
    """
    import mpmath

    with mpmath.workdps(MP_DIGITS):
        two_pi = 2 * mpmath.pi
        p = mpmath.mpf(param)
        if kind == "smooth_sine":
            def branch(s, y):
                return _mp_newton(
                    lambda x: degree * x + p * mpmath.sin(two_pi * x) / two_pi,
                    lambda x: degree + p * mpmath.cos(two_pi * x),
                    s + y,
                    (s + y) / degree,
                )
        elif kind == "conjugated_linear":
            def branch(s, y):
                hy = y + p * mpmath.sin(two_pi * y) / two_pi
                return _mp_sine_homeo_inverse(p, (hy + s) / degree)
        else:
            raise ValueError(kind)
        lefts = [mpmath.mpf(0)]
        for _ in range(n):
            lefts = [branch(s, y) for s in range(degree) for y in lefts]
    return lefts


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

def reference_levels(spec, n: int, tol: float) -> list:
    """Left endpoints of levels 1..n, each level the concatenation of the d
    inverse branches applied to all of the level above."""
    import numpy as np
    from circledyn.circle_maps import inverse_branch_values

    lefts = np.zeros(1)
    levels = []
    for _ in range(n):
        lefts = np.concatenate(
            [inverse_branch_values(spec, s, lefts, tol=tol) for s in range(spec.degree)]
        )
        levels.append(lefts)
    return levels


def reference_itinerary(spec, xs, n: int, tol: float):
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
                division = inverse_branch_values(spec, symbols[:, j], division, tol=tol)
            sel += division <= xs
        symbols[:, k] = sel
    return symbols


def reference_enclosures(f, g, xs, tol: float, depth_cap: int, solver_tol: float, snap: float):
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
                v = inverse_branch_values(spec, sub[:, j], v, tol=solver_tol)
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
        exact = (np.abs(x_act - new_lo_f) <= snap) & ((new_hi_f - new_lo_f) > 1e3 * snap)
        hit = act[exact]
        lo_g[hit] = hi_g[hit] = new_lo_g[exact]
        done[act[exact | ((new_hi_g - new_lo_g) <= tol)]] = True
    return lo_g, hi_g, depth, (hi_g - lo_g) <= tol


# Before the scalar chain, a cylinder was one vector call per symbol on both
# ends, and its endpoint radius sampled the lift's slopes at 257 points on
# every call.  These are those computations, as references for the scalar
# closed-form chain and the per-spec cached radius factor.

def reference_cylinder(spec, symbols, tol: float) -> tuple[float, float]:
    """Ends of the cylinder of ``symbols``: one inverse-branch call per symbol
    on the array ``[0, 1]``, last symbol first."""
    import numpy as np
    from circledyn.circle_maps import inverse_branch_values

    ab = np.array([0.0, 1.0])
    for s in reversed(symbols):
        ab = inverse_branch_values(spec, s, ab, tol=tol)
    return float(ab[0]), float(ab[1])


def reference_endpoint_radius(spec, level: int, tol: float) -> float:
    """Endpoint radius estimate, with the slope samples taken afresh."""
    import numpy as np
    from circledyn.circle_maps import is_closed_form, lift_values

    per_solve = 1e-15 if is_closed_form(spec) else tol
    min_slope = float(np.min(np.diff(lift_values(spec, np.linspace(0.0, 1.0, 257))))) * 256
    expansion = max(1.0, 1.0 / min_slope) if min_slope > 0 else float("inf")
    return level * per_solve * expansion


# Before certified brackets were finished from the targets alone, every
# sine-family solve evaluated f at both ends of every bracket, checked the
# range and the exact end hits on those values, and ran the solver passes;
# uniform-quasisymmetry ratios ran three separate scalar inverse chains, one
# solve per value and step; the measure profile made one inverse-branch call
# per branch and interval end.  These are those computations, as references
# the batched paths must reproduce bit for bit.

def reference_sine_family_solve(D: int, a: float, target, tol: float):
    """Roots of ``D*x + a*sin(2*pi*x)/(2*pi) = target`` on [0, 1]: the
    certified bracket, then f at both of its ends and the solver passes."""
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
        mid = circle_maps._solve_block(f, lo, hi, t, tol)
        out[start : start + block_size] = np.where(f_lo == t, lo, np.where(f_hi == t, hi, mid))
    return out


def reference_inverse_lift(spec, y: float, n: int, tol: float) -> float:
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
            v = m + float(inverse_branch_values(spec, branch, np.float64(min(frac, 1.0)), tol=tol))
    return v


def reference_uqs_ratio(spec, x: float, t: float, n: int, tol: float) -> float:
    """The n-fold inverse distortion ratio from three separate chains."""
    plus, mid, minus = (reference_inverse_lift(spec, y, n, tol) for y in (x + t, x, x - t))
    return (plus - mid) / (mid - minus)


def reference_measure_profile(spec, intervals, tol: float):
    """Measure deviations with one inverse-branch call per branch and end."""
    import numpy as np
    from circledyn.circle_maps import inverse_branch_values

    a = np.asarray([iv[0] for iv in intervals], dtype=float)
    b = np.asarray([iv[1] for iv in intervals], dtype=float)
    total = np.zeros_like(a)
    for s in range(spec.degree):
        total += inverse_branch_values(spec, s, b, tol=tol)
        total -= inverse_branch_values(spec, s, a, tol=tol)
    return np.abs(total - (b - a))
