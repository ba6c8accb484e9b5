"""Independent oracle implementations used to freeze expected test values.

Everything here is deliberately written from scratch against the defining
formulas (plain bisection, direct branch formulas, brute-force enumeration)
and never calls into the package, so package results can be checked against
a second, structurally different computation path.
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
# Reference refinement loops
# ---------------------------------------------------------------------------
# The package's refinement used to rebuild the whole backward chain of
# inverse branches at every depth, O(K^2) inverse solves per point.  These
# loops are that computation, kept as the reference the O(K) kernel must
# reproduce; unlike the rest of this file they call the package's inverse
# branches, since bit-identical results are the point of the comparison.

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
