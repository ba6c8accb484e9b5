"""Independent references for the benchmark's output checks.

Nothing here imports circledyn.  Maps are rebuilt from the fields of their
specs and the defining formulas, twice over:

* in mpmath at 60 digits, for scalar spot checks (lift values, inverse
  branches, words, cylinders, inverse iterates);
* in float64 numpy with a safeguarded Newton solver, for bulk checks (measure
  profiles, smooth level enumerations, tail sums, forward orbits).

The program solves by bisection, so a Newton reference is a second,
structurally different computation path.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# imported by the first mpmath reference call, so that a run's set-up does not
# pay for it
mpmath = None

TWO_PI = 2.0 * math.pi
MP_DPS = 60
# a symbol may differ from the exact itinerary only when x lies this close to
# the cylinder boundary that separates the two choices
TIE = 1e-12


# ---------------------------------------------------------------------------
# float64 reference maps
# ---------------------------------------------------------------------------

def breakpoints(spec) -> np.ndarray:
    """Branch endpoints 0 = c_0 < ... < c_d = 1 of a linear or PL spec."""
    if spec.kind == "linear":
        return np.arange(spec.degree + 1, dtype=float) / spec.degree
    return np.concatenate(([0.0], np.asarray(spec.cuts, float), [1.0]))


def is_affine(spec) -> bool:
    return spec.kind in ("linear", "piecewise_linear_full_branch")


def _newton(fn, dfn, target, lo, hi, iters: int = 80) -> np.ndarray:
    """Solve fn(x) = target for increasing fn, keeping a shrinking bracket."""
    target = np.asarray(target, float)
    lo = np.broadcast_to(np.asarray(lo, float), target.shape).copy()
    hi = np.broadcast_to(np.asarray(hi, float), target.shape).copy()
    x = 0.5 * (lo + hi)
    for _ in range(iters):
        r = fn(x) - target
        lo = np.where(r < 0, x, lo)
        hi = np.where(r > 0, x, hi)
        step = x - r / dfn(x)
        nxt = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
        nxt = np.where(r == 0, x, nxt)
        if np.array_equal(nxt, x):
            break
        x = nxt
    return x


def homeo(h, x) -> np.ndarray:
    x = np.asarray(x, float)
    if h.kind == "identity":
        return x.copy()
    if h.kind == "sine_homeo":
        return x + h.c * np.sin(TWO_PI * x) / TWO_PI
    out = x
    for part in reversed(h.parts):
        out = homeo(part, out)
    return out


def homeo_slope(h, x) -> np.ndarray:
    x = np.asarray(x, float)
    if h.kind == "identity":
        return np.ones_like(x)
    if h.kind == "sine_homeo":
        return 1.0 + h.c * np.cos(TWO_PI * x)
    slope = np.ones_like(x)
    for part in reversed(h.parts):
        slope = slope * homeo_slope(part, x)
        x = homeo(part, x)
    return slope


def homeo_inverse(h, y) -> np.ndarray:
    y = np.asarray(y, float)
    k = np.floor(y)
    return k + _newton(lambda u: homeo(h, u), lambda u: homeo_slope(h, u), y - k, 0.0, 1.0)


def lift(spec, x) -> np.ndarray:
    """F(x) for any real x."""
    x = np.asarray(x, float)
    k = np.floor(x)
    u = x - k
    d = spec.degree
    if spec.kind == "linear":
        return d * x
    if spec.kind == "piecewise_linear_full_branch":
        bp = breakpoints(spec)
        i = np.clip(np.searchsorted(bp, u, side="right") - 1, 0, d - 1)
        return k * d + i + (u - bp[i]) / (bp[i + 1] - bp[i])
    if spec.kind == "smooth_sine":
        return d * x + spec.epsilon * np.sin(TWO_PI * x) / TWO_PI
    return homeo_inverse(spec.homeo, lift(spec.base, homeo(spec.homeo, x)))


def slope(spec, x) -> np.ndarray:
    x = np.asarray(x, float)
    if spec.kind == "linear":
        return np.full_like(x, float(spec.degree))
    if spec.kind == "piecewise_linear_full_branch":
        bp = breakpoints(spec)
        u = x - np.floor(x)
        i = np.clip(np.searchsorted(bp, u, side="right") - 1, 0, spec.degree - 1)
        return 1.0 / (bp[i + 1] - bp[i])
    if spec.kind == "smooth_sine":
        return spec.degree + spec.epsilon * np.cos(TWO_PI * x)
    hx = homeo(spec.homeo, x)
    return slope(spec.base, hx) * homeo_slope(spec.homeo, x) / homeo_slope(
        spec.homeo, lift(spec, x)
    )


def inverse_branch(spec, b, y) -> np.ndarray:
    """The x in [0, 1] with F(x) = b + y, for y in [0, 1]."""
    y = np.asarray(y, float)
    b = np.broadcast_to(np.asarray(b), y.shape)
    if is_affine(spec):
        bp = breakpoints(spec)
        return bp[b] + y * (bp[b + 1] - bp[b])
    if spec.kind == "smooth_sine":
        return _newton(lambda u: lift(spec, u), lambda u: slope(spec, u), b + y, 0.0, 1.0)
    hy = np.clip(homeo(spec.homeo, y), 0.0, 1.0)
    return np.clip(homeo_inverse(spec.homeo, inverse_branch(spec.base, b, hy)), 0.0, 1.0)


def level_lefts(spec, n: int) -> np.ndarray:
    """Left endpoints of the level-n cylinders in word order."""
    lefts = np.zeros(1)
    for _ in range(n):
        lefts = np.concatenate([inverse_branch(spec, s, lefts) for s in range(spec.degree)])
    return lefts


def level_lengths(spec, n: int) -> np.ndarray:
    """Level-n cylinder lengths: a Kronecker product of branch widths for
    affine maps, differences of Newton-solved endpoints otherwise."""
    if is_affine(spec):
        widths = np.diff(breakpoints(spec))
        out = np.ones(1)
        for _ in range(n):
            out = np.kron(out, widths)
        return out
    return np.diff(np.append(level_lefts(spec, n), 1.0))


def forward_residual(spec, ends: np.ndarray, n: int) -> float:
    """max over level-n endpoints e of the distance from F^n(e) to an integer."""
    v = np.asarray(ends, float)
    for _ in range(n):
        v = lift(spec, v)
    return float(np.max(np.abs(v - np.round(v))))


def contraction(spec) -> float:
    """Largest inverse-branch slope of the map, or of the base of a conjugated
    map: level-k cylinders are at most ``lipschitz_prefactor * contraction**k``
    wide."""
    if is_affine(spec):
        return float(np.max(np.diff(breakpoints(spec))))
    if spec.kind == "smooth_sine":
        return 1.0 / (spec.degree - abs(spec.epsilon))
    return contraction(spec.base)


def lipschitz_prefactor(spec) -> float:
    """Lipschitz constant of H^{-1} for a conjugated spec, 1 otherwise."""
    if spec.kind != "conjugated":
        return 1.0

    def inv_lip(h) -> float:
        if h.kind == "sine_homeo":
            return 1.0 / (1.0 - abs(h.c))
        if h.kind == "compose":
            return math.prod(inv_lip(p) for p in h.parts)
        return 1.0

    return inv_lip(spec.homeo)


# ---------------------------------------------------------------------------
# mpmath reference maps (scalar)
# ---------------------------------------------------------------------------

def _at_dps(fn):
    """Run an mpmath reference at MP_DPS digits without touching the caller's
    global precision.  The first call imports mpmath."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        global mpmath
        import mpmath

        with mpmath.workdps(MP_DPS):
            return fn(*args, **kwargs)

    return wrapper


def _mp_solve(fn, dfn, target, lo, hi):
    lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
    x = (lo + hi) / 2
    eps = mpmath.mpf(10) ** (-(MP_DPS - 8))
    for _ in range(200):
        r = fn(x) - target
        if r == 0:
            return x
        if r < 0:
            lo = x
        else:
            hi = x
        step = x - r / dfn(x)
        nxt = step if lo < step < hi else (lo + hi) / 2
        if abs(nxt - x) < eps:
            return nxt
        x = nxt
    return x


def mp_homeo(h, x):
    if h.kind == "identity":
        return x
    if h.kind == "sine_homeo":
        return x + mpmath.mpf(h.c) * mpmath.sin(2 * mpmath.pi * x) / (2 * mpmath.pi)
    for part in reversed(h.parts):
        x = mp_homeo(part, x)
    return x


def mp_homeo_slope(h, x):
    if h.kind == "identity":
        return mpmath.mpf(1)
    if h.kind == "sine_homeo":
        return 1 + mpmath.mpf(h.c) * mpmath.cos(2 * mpmath.pi * x)
    s = mpmath.mpf(1)
    for part in reversed(h.parts):
        s *= mp_homeo_slope(part, x)
        x = mp_homeo(part, x)
    return s


def mp_homeo_inverse(h, y):
    k = mpmath.floor(y)
    return k + _mp_solve(
        lambda u: mp_homeo(h, u), lambda u: mp_homeo_slope(h, u), y - k, 0, 1
    )


def _mp_breakpoints(spec):
    return [mpmath.mpf(float(c)) for c in breakpoints(spec)]


@_at_dps
def mp_lift(spec, x):
    x = mpmath.mpf(x)
    d = spec.degree
    if spec.kind == "linear":
        return d * x
    if spec.kind == "piecewise_linear_full_branch":
        k = mpmath.floor(x)
        u = x - k
        bp = _mp_breakpoints(spec)
        i = 0
        while i < d - 1 and u >= bp[i + 1]:
            i += 1
        return k * d + i + (u - bp[i]) / (bp[i + 1] - bp[i])
    if spec.kind == "smooth_sine":
        return d * x + mpmath.mpf(spec.epsilon) * mpmath.sin(2 * mpmath.pi * x) / (2 * mpmath.pi)
    return mp_homeo_inverse(spec.homeo, mp_lift(spec.base, mp_homeo(spec.homeo, x)))


def mp_slope(spec, x):
    x = mpmath.mpf(x)
    if spec.kind == "linear":
        return mpmath.mpf(spec.degree)
    if spec.kind == "piecewise_linear_full_branch":
        u = x - mpmath.floor(x)
        bp = _mp_breakpoints(spec)
        i = 0
        while i < spec.degree - 1 and u >= bp[i + 1]:
            i += 1
        return 1 / (bp[i + 1] - bp[i])
    if spec.kind == "smooth_sine":
        return spec.degree + mpmath.mpf(spec.epsilon) * mpmath.cos(2 * mpmath.pi * x)
    hx = mp_homeo(spec.homeo, x)
    return (
        mp_slope(spec.base, hx)
        * mp_homeo_slope(spec.homeo, x)
        / mp_homeo_slope(spec.homeo, mp_lift(spec, x))
    )


@_at_dps
def mp_inverse_branch(spec, b: int, y):
    y = mpmath.mpf(y)
    if is_affine(spec):
        bp = _mp_breakpoints(spec)
        return bp[b] + y * (bp[b + 1] - bp[b])
    if spec.kind == "smooth_sine":
        return _mp_solve(lambda u: mp_lift(spec, u), lambda u: mp_slope(spec, u), b + y, 0, 1)
    return mp_homeo_inverse(spec.homeo, mp_inverse_branch(spec.base, b, mp_homeo(spec.homeo, y)))


@_at_dps
def mp_cylinder(spec, word) -> tuple:
    a, b = mpmath.mpf(0), mpmath.mpf(1)
    for s in reversed(list(word)):
        a, b = mp_inverse_branch(spec, s, a), mp_inverse_branch(spec, s, b)
    return a, b


@_at_dps
def mp_word(spec, x: float, n: int) -> tuple[list[int], list[float]]:
    """Exact itinerary of x (ties go right) and, per level, the distance in x
    from x to the nearest boundary of the cylinder chosen at that level."""
    u = mpmath.mpf(x)
    deriv = mpmath.mpf(1)
    symbols, margins = [], []
    for _ in range(n):
        fu = mp_lift(spec, u)
        s = min(int(mpmath.floor(fu)), spec.degree - 1)
        frac = fu - s
        # distance of F(u) to the branch ends, pulled back through F^{k+1}
        deriv *= mp_slope(spec, u)
        margins.append(float(min(frac, 1 - frac) / deriv))
        symbols.append(s)
        u = frac
    return symbols, margins


@_at_dps
def mp_global_inverse(spec, y: float, n: int):
    v = mpmath.mpf(y)
    d = spec.degree
    for _ in range(n):
        k = int(mpmath.floor(v))
        b = k % d
        m = (k - b) // d
        v = m + mp_inverse_branch(spec, b, v - k)
    return v


def word_matches(program: list[int], exact: list[int], margins: list[float]) -> bool:
    """Equal itineraries, or equal up to a level where x sits on a boundary."""
    for k, (p, e) in enumerate(zip(program, exact)):
        if p != e:
            return margins[k] <= TIE
    return len(program) == len(exact)

