"""Degree-d circle endomorphisms and circle homeomorphisms, represented by lifts.

A circle endomorphism of degree d >= 2 is stored as a declarative
:class:`CircleMapSpec` and evaluated through its lift ``F``, a strictly
increasing map of the real line with ``F(0) = 0`` and ``F(x+1) = F(x) + d``.
Supported kinds:

* ``linear``: ``F(x) = d*x``.
* ``piecewise_linear_full_branch``: branch i maps ``[c_i, c_{i+1}]`` onto
  ``[i, i+1]`` linearly, with interior cut points ``0 < c_1 < ... < c_{d-1} < 1``
  (degree is ``len(cuts) + 1``).
* ``smooth_sine``: ``F(x) = d*x + epsilon*sin(2*pi*x)/(2*pi)``, ``|epsilon| < d``.
* ``conjugated``: ``F = H^{-1} o G o H`` for a base map ``G`` and a circle
  homeomorphism lift ``H``.

Circle homeomorphisms (:class:`CircleHomeoSpec`) are lifts ``H`` with
``H(0) = 0`` and ``H(x+1) = H(x) + 1``: the identity, the sine family
``H(x) = x + c*sin(2*pi*x)/(2*pi)`` with ``|c| < 1``, and compositions.

A spec with an unknown kind is rejected when it is built
(:class:`InvalidMapError`), so each per-kind ladder ends in its last kind and
no other module reads ``kind``.  Adding a kind touches: the spec's fields,
its constructor and its entry in ``_MAP_SCHEMA`` / ``_HOMEO_SCHEMA`` (the
JSON schema, whose keys are ``MAP_KINDS`` / ``HOMEO_KINDS``); one arm in each
formula ladder (``describe``, lift, slope bounds, inverse branch, inverse
step, step error, validation); :func:`is_closed_form` and
:func:`closed_form_inverse` when its inverse branches are affine; and
:func:`lift_slope_values` when it is root-solved and not conjugated (its
word model is then the forward orbit).

Closed forms are used for the linear and piecewise-linear kinds; every other
inverse is a bracketed root solve to an absolute tolerance (default
``SOLVER_TOL``).  The root-solved lifts ``smooth_sine`` and ``sine_homeo``
are one family, ``x -> D*x + a*sin(2*pi*x)/(2*pi)``, and
:func:`_solve_sine_family` is the one root solver.  Each target gets its
own starting bracket: a cached per-``(D, a)`` table of the inverse gives a
guess, the slope floor ``D - |a|`` certifies a radius around it that holds
the root whatever the guess (compute fast, then verify), and only elements
whose radius is still above ``tol/2`` take Newton steps, usually one.  The
bracket is then usually ``tol`` wide and its midpoint is the result, with no
further evaluation of the lift: the family has ``f(0) = 0`` and ``f(1) = D``
exactly, so the targets alone decide the range check and the exact end hits.
Only the few brackets still wider than ``tol`` (near the flat spot of a
near-degenerate map) take solver passes, which keep a bracket
``f(lo) < target <= f(hi)`` around each root and narrow it with a
false-position step followed by a probe that straddles the root, falling
back to bisection whenever a pass fails to halve the bracket, so they never
need more than about twice the evaluations of plain bisection.  Each
element stops as soon as its own bracket is ``tol`` wide and returns the
midpoint, within ``tol/2`` of the root; large inputs are solved in
fixed-size blocks.  Specs are immutable and every evaluation is a pure
function of (spec, inputs), so all operations are safe to call concurrently.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Iterable, Iterator

import numpy as np

from . import defaults
from .errors import DepthCapExceeded, InvalidMapError, SolverError, SpecFormatError

_TWO_PI = 2.0 * math.pi
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_MAX_SOLVER_STEPS = 200
_SOLVER_BLOCK = 2**15
_NEWTON_STEPS = 4
_SEED_NODES = 2**12


# ---------------------------------------------------------------------------
# Spec types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CircleHomeoSpec:
    """Declarative description of a circle homeomorphism lift."""

    kind: str = "identity"
    c: float = 0.0
    parts: tuple["CircleHomeoSpec", ...] = ()

    def __post_init__(self):
        if self.kind not in HOMEO_KINDS:
            raise InvalidMapError(f"unknown homeomorphism kind {self.kind!r}")

    def describe(self) -> str:
        if self.kind == "identity":
            return "identity"
        if self.kind == "sine_homeo":
            return f"sine_homeo(c={self.c:g})"
        return "compose(" + ", ".join(p.describe() for p in self.parts) + ")"


@dataclass(frozen=True)
class CircleMapSpec:
    """Declarative description of a degree-d circle endomorphism."""

    kind: str
    degree: int = 2
    cuts: tuple[float, ...] = ()
    epsilon: float = 0.0
    base: "CircleMapSpec | None" = None
    homeo: CircleHomeoSpec | None = None

    def __post_init__(self):
        if self.kind not in MAP_KINDS:
            raise InvalidMapError(f"unknown map kind {self.kind!r}")

    def describe(self) -> str:
        if self.kind == "linear":
            return f"linear(d={self.degree})"
        if self.kind == "piecewise_linear_full_branch":
            return "piecewise_linear(cuts=[" + ", ".join(f"{c:g}" for c in self.cuts) + "])"
        if self.kind == "smooth_sine":
            return f"smooth_sine(d={self.degree}, epsilon={self.epsilon:g})"
        base = self.base.describe() if self.base is not None else "?"
        homeo = self.homeo.describe() if self.homeo is not None else "?"
        return f"conjugated(base={base}, homeo={homeo})"


@dataclass(frozen=True)
class Violation:
    """One validation failure, with an approximate location when meaningful."""

    code: str
    message: str
    location: float | None = None


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`; ``ok`` is False iff ``violations`` is nonempty."""

    subject: str
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return f"{self.subject}: ok"
        lines = [f"{self.subject}: {len(self.violations)} violation(s)"]
        for v in self.violations:
            where = "" if v.location is None else f" at x={v.location:.6g}"
            lines.append(f"  [{v.code}] {v.message}{where}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def linear_map(degree: int) -> CircleMapSpec:
    """The linear endomorphism ``F(x) = degree * x``."""
    return CircleMapSpec(kind="linear", degree=int(degree))


def piecewise_linear(cuts: Iterable[float]) -> CircleMapSpec:
    """Full-branch piecewise-linear map with the given interior cut points.

    The degree is ``len(cuts) + 1``; branch i maps ``[c_i, c_{i+1}]`` onto
    ``[i, i+1]`` linearly.
    """
    cut_tuple = tuple(float(c) for c in cuts)
    return CircleMapSpec(kind="piecewise_linear_full_branch", degree=len(cut_tuple) + 1, cuts=cut_tuple)


def smooth_sine_map(degree: int, epsilon: float) -> CircleMapSpec:
    """The sine-perturbed lift ``F(x) = d*x + epsilon*sin(2*pi*x)/(2*pi)``."""
    return CircleMapSpec(kind="smooth_sine", degree=int(degree), epsilon=float(epsilon))


def identity_homeo() -> CircleHomeoSpec:
    return CircleHomeoSpec(kind="identity")


def sine_homeo(c: float) -> CircleHomeoSpec:
    """The homeomorphism lift ``H(x) = x + c*sin(2*pi*x)/(2*pi)``, ``|c| < 1``."""
    return CircleHomeoSpec(kind="sine_homeo", c=float(c))


def compose_homeos(parts: Iterable[CircleHomeoSpec]) -> CircleHomeoSpec:
    """Composition ``H = parts[0] o parts[1] o ...`` (rightmost applied first)."""
    return CircleHomeoSpec(kind="compose", parts=tuple(parts))


def make_conjugated(base: CircleMapSpec, homeo: CircleHomeoSpec) -> CircleMapSpec:
    """Spec whose lift is ``H^{-1} o G o H``; same degree as the base, fixes 0.

    Raises:
        InvalidMapError: if the base map or the homeomorphism fails validation.
    """
    ensure_valid(base)
    ensure_valid_homeo(homeo)
    return _conjugated(base, homeo)


def _conjugated(base: CircleMapSpec, homeo: CircleHomeoSpec) -> CircleMapSpec:
    """The conjugated spec, unchecked: :func:`validate` reports a bad base or homeo."""
    return CircleMapSpec(kind="conjugated", degree=base.degree, base=base, homeo=homeo)


def is_closed_form(spec: CircleMapSpec) -> bool:
    """Whether the inverse branches are closed forms (affine per branch), not root solves."""
    return spec.kind in ("linear", "piecewise_linear_full_branch")


def conjugation(spec: CircleMapSpec) -> tuple[CircleMapSpec, CircleHomeoSpec] | None:
    """``(G, H)`` of a conjugated map ``F = H^{-1} o G o H``; None for any other kind."""
    if spec.kind != "conjugated":
        return None
    return spec.base, spec.homeo


# ---------------------------------------------------------------------------
# JSON ingestion
# ---------------------------------------------------------------------------

def _want_number(obj, path: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise SpecFormatError(f"{path}: not a number (got {type(obj).__name__})")
    try:
        value = float(obj)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise SpecFormatError(f"{path}: not a finite number (got {value!r})")
    return value


def _want_int(obj, path: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise SpecFormatError(f"{path}: not an integer (got {obj!r})")
    return obj


def _want_list(parse):
    """Parser of a nonempty JSON list whose entries ``parse`` reads."""
    def parse_list(obj, path: str) -> list:
        if not isinstance(obj, list) or not obj:
            raise SpecFormatError(f"{path}: expected a nonempty list")
        return [parse(item, f"{path}[{i}]") for i, item in enumerate(obj)]
    return parse_list


def _read_spec(schema: dict, noun: str, data: object, path: str):
    """Build a spec from parsed JSON through its schema table (see ``_MAP_SCHEMA``)."""
    if not isinstance(data, dict):
        raise SpecFormatError(f"{path}: expected an object")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in schema:
        raise SpecFormatError(f"{path}.kind: unknown {noun} kind {kind!r}")
    build, fields = schema[kind]
    extra = sorted(set(data) - {"kind", *fields})
    if extra:
        raise SpecFormatError(f"{path}: unknown field(s) {', '.join(extra)}")
    for name in fields:
        if name not in data:
            raise SpecFormatError(f"{path}.{name}: missing")
    return build(**{name: parse(data[name], f"{path}.{name}") for name, parse in fields.items()})


def map_spec_from_dict(data: object, path: str = "$") -> CircleMapSpec:
    """Build a :class:`CircleMapSpec` from parsed JSON, with field diagnostics."""
    return _read_spec(_MAP_SCHEMA, "map", data, path)


def homeo_spec_from_dict(data: object, path: str = "homeo") -> CircleHomeoSpec:
    return _read_spec(_HOMEO_SCHEMA, "homeomorphism", data, path)


# kind -> (constructor, {JSON field: parser}): the one schema behind the JSON
# reader and writer; a piecewise-linear degree is implied by its cuts
_MAP_SCHEMA = {
    "piecewise_linear_full_branch": (piecewise_linear, {"cuts": _want_list(_want_number)}),
    "linear": (linear_map, {"degree": _want_int}),
    "smooth_sine": (smooth_sine_map, {"degree": _want_int, "epsilon": _want_number}),
    "conjugated": (_conjugated, {"base": map_spec_from_dict, "homeo": homeo_spec_from_dict}),
}
_HOMEO_SCHEMA = {
    "identity": (identity_homeo, {}),
    "sine_homeo": (sine_homeo, {"c": _want_number}),
    "compose": (compose_homeos, {"parts": _want_list(homeo_spec_from_dict)}),
}
MAP_KINDS = tuple(_MAP_SCHEMA)
HOMEO_KINDS = tuple(_HOMEO_SCHEMA)


def _load_json(text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None


def map_spec_from_json(text: str) -> CircleMapSpec:
    return map_spec_from_dict(_load_json(text))


def homeo_spec_from_json(text: str) -> CircleHomeoSpec:
    return homeo_spec_from_dict(_load_json(text), path="$")


def spec_to_dict(value):
    """JSON form of a map or homeomorphism spec, written through its schema entry."""
    if isinstance(value, tuple):
        return [spec_to_dict(item) for item in value]
    if not isinstance(value, (CircleMapSpec, CircleHomeoSpec)):
        return value
    schema = _MAP_SCHEMA if isinstance(value, CircleMapSpec) else _HOMEO_SCHEMA
    return {"kind": value.kind, **{name: spec_to_dict(getattr(value, name)) for name in schema[value.kind][1]}}


map_spec_to_dict = homeo_spec_to_dict = spec_to_dict


# ---------------------------------------------------------------------------
# Homeomorphism lift evaluation
# ---------------------------------------------------------------------------

def homeo_lift_values(spec: CircleHomeoSpec, x) -> np.ndarray:
    """Vectorized lift ``H(x)`` of a circle homeomorphism, any real ``x``."""
    x = np.asarray(x, dtype=float)
    if spec.kind == "identity":
        return x.copy()
    if spec.kind == "sine_homeo":
        return _sine_family(1, spec.c, x)
    out = x
    for part in reversed(spec.parts):
        out = homeo_lift_values(part, out)
    return out


def _homeo_inverse_unit(spec: CircleHomeoSpec, y: np.ndarray, tol: float) -> np.ndarray:
    """Inverse of ``H`` restricted to [0,1] -> [0,1] (``y`` must lie in [0,1])."""
    if spec.kind == "identity":
        return np.asarray(y, dtype=float).copy()
    if spec.kind == "sine_homeo":
        return _solve_sine_family(1, spec.c, y, tol)
    out = np.asarray(y, dtype=float)
    for part in spec.parts:
        out = _homeo_inverse_unit(part, out, tol)
    return out


def homeo_inverse_values(
    spec: CircleHomeoSpec, y, tol: float = defaults.SOLVER_TOL
) -> np.ndarray:
    """Vectorized ``H^{-1}(y)``, solved on the bracket ``[floor(y), floor(y)+1]``."""
    y = np.asarray(y, dtype=float)
    k = np.floor(y)
    return k + _homeo_inverse_unit(spec, np.clip(y - k, 0.0, 1.0), tol)


def homeo_eval(spec: CircleHomeoSpec, x: float) -> float:
    return float(homeo_lift_values(spec, np.float64(x)))


# ---------------------------------------------------------------------------
# Root solver
# ---------------------------------------------------------------------------

def _sine_family(D: int, a: float, x):
    """The root-solved family ``D*x + a*sin(2*pi*x)/(2*pi)``, elementwise."""
    return D * x + a * np.sin(_TWO_PI * x) / _TWO_PI


@lru_cache(maxsize=16)
def _sine_family_inverse_table(D: int, a: float) -> np.ndarray:
    """Approximate roots of ``D*x + a*sin(2*pi*x)/(2*pi) = t`` at the
    ``_SEED_NODES + 1`` targets ``t = j*D/_SEED_NODES`` (read-only).

    One ``np.interp`` of forward samples on a uniform x grid, no root solve.
    """
    xs = np.linspace(0.0, 1.0, _SEED_NODES + 1)
    table = np.interp(np.linspace(0.0, D, _SEED_NODES + 1), _sine_family(D, a, xs), xs)
    table.setflags(write=False)
    return table


def _sine_family_bracket(
    D: int, a: float, target: np.ndarray, tol: float = defaults.SOLVER_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Certified brackets in [0, 1] for ``D*x + a*sin(2*pi*x)/(2*pi) = target``.

    A lookup in the cached inverse table of :func:`_sine_family_inverse_table`
    (a linear interpolation between two nodes, no search) gives a guess x.
    The slope is at least ``D - |a| > 0`` everywhere, so the root lies within
    ``(|f(x) - target| + pad)/(D - |a|)`` of x, where ``pad`` covers the
    rounding of f at x, at the bracket ends and in the radius itself (a few
    ulps of ``D + |a|`` each).  Elements whose radius still exceeds ``tol/2``
    take a Newton step, clipped to [0, 1], and are certified again, up to
    ``_NEWTON_STEPS`` times: one step settles a typical map, and only the
    roots near the flat spot of a near-degenerate map take more.  The guess
    affects speed only: the bracket holds whatever x is.  With the same
    padding the computed f is below the target at an unclipped left end and
    above it at an unclipped right end, so the ends need no evaluation.  A
    typical root costs one sine to certify the guess and one cosine and one
    sine for its Newton step.  Each bracket depends on its own target alone.
    The targets must be finite and within the range slack of [0, D]
    (:func:`_solve_sine_family` checks them).
    """
    pad = 16.0 * _UNIT_ROUNDOFF * (D + abs(a))
    floor = D - abs(a)
    table = _sine_family_inverse_table(D, a)
    pos = target * (_SEED_NODES / D)
    # minimum/maximum rather than clip: the arrays are often tiny
    node = np.minimum(np.maximum(pos, 0.0), _SEED_NODES - 1).astype(np.intp)
    left = table[node]
    x = np.minimum(np.maximum(left + (pos - node) * (table[node + 1] - left), 0.0), 1.0)
    residual = _sine_family(D, a, x) - target
    radius = (np.abs(residual) + pad) / floor
    for _ in range(_NEWTON_STEPS):
        todo = np.flatnonzero(radius > 0.5 * tol)
        if todo.size == 0:
            break
        # the common first step takes every element: no gather or scatter
        part = todo.size < x.size
        xs, ts, rs = (x[todo], target[todo], residual[todo]) if part else (x, target, residual)
        xs = np.minimum(np.maximum(xs - rs / (D + a * np.cos(_TWO_PI * xs)), 0.0), 1.0)
        rs = _sine_family(D, a, xs) - ts
        rad = (np.abs(rs) + pad) / floor
        if part:
            x[todo], residual[todo], radius[todo] = xs, rs, rad
        else:
            x, residual, radius = xs, rs, rad
    return np.maximum(x - radius, 0.0), np.minimum(x + radius, 1.0)


def _solve_sine_family(D: int, a: float, target, tol: float) -> np.ndarray:
    """Roots of ``_sine_family(D, a, x) = target`` on [0, 1], each within ``tol/2``.

    ``smooth_sine`` (D = degree, a = epsilon) and ``sine_homeo`` (D = 1,
    a = c) are this family, and every root solve of the package is this one.
    Each block of ``_SOLVER_BLOCK`` targets gets its brackets from
    :func:`_sine_family_bracket`, so temporaries stay block-sized.
    Non-finite targets, then targets outside [0, D] by more than 1e-9, raise
    :class:`SolverError`.  A bracket at most ``tol`` wide gives its midpoint
    with no evaluation of the family: it has ``f(0) = 0`` and ``f(1) = D``
    exactly (``|a*sin(2*pi)/(2*pi)|`` is below half an ulp of D), and the
    computed f straddles the target at unclipped ends, so the range check
    reads the targets alone and the only exact end hits are ``t == 0`` (the
    left end) and ``t == D`` (the right end).  Returning those ends as they
    are keeps the endpoints that inverse-branch chains share bit for bit.
    The other brackets still wider than ``tol``, near the flat spot of a
    near-degenerate map, are finished by :func:`_solve_block`.  Results
    equal bracket-then-solve on every target bit for bit.
    """
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


# ---------------------------------------------------------------------------
# Endomorphism lift evaluation
# ---------------------------------------------------------------------------

@lru_cache(maxsize=512)
def _pl_ext(cuts: tuple[float, ...]) -> np.ndarray:
    """``[0, c_1, ..., c_{d-1}, 1]`` of a piecewise-linear map, built once (read-only)."""
    ext = np.concatenate(([0.0], np.asarray(cuts, dtype=float), [1.0]))
    ext.setflags(write=False)
    return ext


def _unit_lift(spec: CircleMapSpec, u: np.ndarray, tol: float) -> np.ndarray:
    """Lift values for ``u`` in [0,1); returns values in [0, degree)."""
    if spec.kind == "linear":
        return spec.degree * u
    if spec.kind == "piecewise_linear_full_branch":
        ext = _pl_ext(spec.cuts)
        idx = np.searchsorted(ext[1:-1], u, side="right")
        left = ext[idx]
        right = ext[idx + 1]
        return idx + (u - left) / (right - left)
    if spec.kind == "smooth_sine":
        return _sine_family(spec.degree, spec.epsilon, u)
    hv = homeo_lift_values(spec.homeo, u)
    gv = lift_values(spec.base, hv, tol=tol)
    return homeo_inverse_values(spec.homeo, gv, tol=tol)


def lift_values(spec: CircleMapSpec, x, tol: float = defaults.SOLVER_TOL) -> np.ndarray:
    """Vectorized lift ``F(x)`` for any real ``x`` (periodic extension is exact)."""
    x = np.asarray(x, dtype=float)
    k = np.floor(x)
    u = x - k
    return _unit_lift(spec, u, tol) + k * spec.degree


def homeo_slope_bounds(spec: CircleHomeoSpec) -> tuple[float, float]:
    """Bounds ``(min H', max H')`` of a homeomorphism lift."""
    if spec.kind == "sine_homeo":
        return 1.0 - abs(spec.c), 1.0 + abs(spec.c)
    lo = hi = 1.0
    for part in spec.parts:
        a, b = homeo_slope_bounds(part)
        lo, hi = lo * a, hi * b
    return lo, hi


def homeo_rounding(spec: CircleHomeoSpec) -> float:
    """Bound on the rounding error of a computed ``H(x)``, ``x`` in [0, 1].

    One ``sine_homeo`` evaluation is off by less than 4 ulps of 1; this
    allows 8 per ``sine_homeo`` part, each carried to the result by at most
    ``max H'`` (every part's slope bound is at least 1).
    """
    return 8.0 * _UNIT_ROUNDOFF * _homeo_solves(spec) * homeo_slope_bounds(spec)[1]


def lift_slope_values(spec: CircleMapSpec, x: np.ndarray) -> np.ndarray:
    """Derivative ``F'(x)`` of a ``smooth_sine`` map.

    Only the forward-orbit word model needs slopes, and it runs for the one
    root-solved kind that is not conjugated: a conjugated map's word model
    runs its base map's model instead.
    """
    return spec.degree + spec.epsilon * np.cos(_TWO_PI * x)


def slope_bounds(spec: CircleMapSpec) -> tuple[float, float]:
    """Bounds ``(min F', max F')`` of a valid map, from its formula."""
    if spec.kind == "linear":
        return float(spec.degree), float(spec.degree)
    if spec.kind == "piecewise_linear_full_branch":
        widths = np.diff(_pl_ext(spec.cuts))
        return 1.0 / float(np.max(widths)), 1.0 / float(np.min(widths))
    if spec.kind == "smooth_sine":
        return spec.degree - abs(spec.epsilon), spec.degree + abs(spec.epsilon)
    g_lo, g_hi = slope_bounds(spec.base)
    h_lo, h_hi = homeo_slope_bounds(spec.homeo)
    return g_lo * h_lo / h_hi, g_hi * h_hi / h_lo


def _chain_lipschitz(spec: CircleMapSpec) -> tuple[float, float]:
    """``(rho, lam)`` with every depth-j backward chain ``rho*lam**j``-Lipschitz."""
    if spec.kind != "conjugated":
        return 1.0, 1.0 / slope_bounds(spec)[0]
    rho, lam = _chain_lipschitz(spec.base)
    h_lo, h_hi = homeo_slope_bounds(spec.homeo)
    return rho * h_hi / h_lo, lam


def _homeo_solves(spec: CircleHomeoSpec) -> int:
    """Root solves in one ``H^{-1}``: one per ``sine_homeo`` at any depth."""
    if spec.kind == "sine_homeo":
        return 1
    return sum(_homeo_solves(part) for part in spec.parts)


def _step_error(spec: CircleMapSpec, tol: float) -> float:
    """Error of one computed inverse branch: 4 ulps of 1 for a lerp, ``tol/2``
    per root solve, carried through the inverse homeomorphism of a
    conjugated map."""
    if is_closed_form(spec):
        return 4.0 * _UNIT_ROUNDOFF
    if spec.kind == "smooth_sine":
        return 0.5 * tol + 4.0 * _UNIT_ROUNDOFF
    h_lo = homeo_slope_bounds(spec.homeo)[0]
    solves = max(1, _homeo_solves(spec.homeo))
    return (0.5 * tol * solves + _step_error(spec.base, tol)) / h_lo + 4.0 * _UNIT_ROUNDOFF


def chain_error_bound(spec: CircleMapSpec, tol: float, depth_cap: int) -> np.ndarray:
    """``out[k]`` bounds the error of a value computed by a depth-k backward chain.

    Each step adds one inverse-branch error, which the outer steps carry to
    the result with their Lipschitz bound.  The bound is rigorous for the
    closed-form kinds; for root-solved kinds it rests on the solver's
    ``tol/2`` and on the slope bounds of :func:`slope_bounds`.
    """
    rho, lam = _chain_lipschitz(spec)
    with np.errstate(over="ignore"):  # lam > 1 for weakly expanding maps
        reach = rho * lam ** np.arange(depth_cap)
    return _step_error(spec, tol) * np.concatenate(([0.0], np.cumsum(reach)))


def eval_lift(spec: CircleMapSpec, x: float, tol: float = defaults.SOLVER_TOL) -> float:
    """Evaluate the lift ``F`` at a single point.

    Raises:
        InvalidMapError: if the spec fails validation.
    """
    ensure_valid(spec)
    return float(lift_values(spec, np.float64(x), tol=tol))


def inverse_branch_values(
    spec: CircleMapSpec, branch, y, tol: float = defaults.SOLVER_TOL, out: np.ndarray | None = None
) -> np.ndarray:
    """Vectorized inverse branch: the x in branch ``b`` with ``F(x) = y + b``.

    ``branch`` is an integer array (or scalar) that broadcasts against ``y``,
    whose values lie in [0,1]; the result has the broadcast shape.  Closed
    forms are used for the linear and piecewise-linear kinds; the other kinds
    use the bracketed root solver on the unit interval.  Given ``out``, an
    array of the broadcast shape that does not overlap ``y``, the values are
    stored there and ``out`` is returned; closed forms compute them in place.
    """
    y = np.asarray(y, dtype=float)
    branch = np.asarray(branch, dtype=np.int64)
    if is_closed_form(spec):
        return closed_form_inverse(spec, _pl_ext(spec.cuts), branch, y, out=out)
    if spec.kind == "smooth_sine":
        x = _solve_sine_family(spec.degree, spec.epsilon, branch + y, tol)
    else:
        hv = homeo_lift_values(spec.homeo, y)
        xb = inverse_branch_values(spec.base, branch, np.clip(hv, 0.0, 1.0), tol=tol)
        x = _homeo_inverse_unit(spec.homeo, xb, tol)
    if out is None:
        return x
    out[...] = x
    return out


def closed_form_inverse(spec: CircleMapSpec, ends, branch, y, out: np.ndarray | None = None):
    """Inverse branch ``branch`` of a linear or piecewise-linear map at ``y``.

    Takes ndarrays or Python floats alike: ``ends`` is the branch endpoint
    table ``[0, c_1, ..., c_{d-1}, 1]`` indexed by ``branch`` (the linear map
    ignores it).  Either way the same IEEE operations run in the same order,
    so a chain on floats equals the same chain on arrays bit for bit.  An
    ndarray ``out`` of the broadcast shape, not overlapping ``y``, receives
    the values of those same operations in place of new arrays.
    """
    if spec.kind == "linear":
        if out is None:
            return (branch + y) / spec.degree
        return np.divide(np.add(branch, y, out=out), spec.degree, out=out)
    # lerp form is exact at y = 0 and y = 1
    if out is None:
        return (1.0 - y) * ends[branch] + y * ends[branch + 1]
    np.multiply(np.subtract(1.0, y, out=out), ends[branch], out=out)
    return np.add(out, y * ends[branch + 1], out=out)


def closed_form_cylinder(spec: CircleMapSpec, symbols: tuple[int, ...]) -> tuple[float, float]:
    """Ends of the cylinder of ``symbols`` for a linear or piecewise-linear map.

    The backward chain (last symbol first) runs on two Python floats, one
    :func:`closed_form_inverse` step per symbol and end, so it equals the
    :func:`inverse_branch_values` chain on ``[0, 1]`` bit for bit.
    """
    # a PL map's branch_points tuple, built directly: cheaper than its cache lookup
    ends = (0.0, *spec.cuts, 1.0)
    left, right = 0.0, 1.0
    for s in reversed(symbols):
        left = closed_form_inverse(spec, ends, s, left)
        right = closed_form_inverse(spec, ends, s, right)
    return left, right


def inverse_branch(
    spec: CircleMapSpec, branch: int, y: float, tol: float = defaults.SOLVER_TOL
) -> float:
    """The unique x in ``[c_branch, c_{branch+1}]`` with ``F(x) = y + branch``.

    A point equal to a cut belongs to both adjacent branches; the explicit
    ``branch`` index resolves the tie, never the point.

    Raises:
        InvalidMapError: spec fails validation.
        ValueError: branch index out of range or y outside [0,1].
        SolverError: the lift could not be bracketed (non-monotone data).
    """
    ensure_valid(spec)
    if not 0 <= branch < spec.degree:
        raise ValueError(f"branch {branch} out of range for degree {spec.degree}")
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"y={y!r} outside [0,1]")
    return float(inverse_branch_values(spec, branch, np.float64(y), tol=tol))


def _inverse_steps(spec: CircleMapSpec, values: list[float], tol: float) -> list[float]:
    """One inverse step of the lift, ``F^{-1}(v)``, for each real ``v`` in ``values``.

    The branch offset is taken from whichever integer endpoint ``v`` is nearer
    to (fraction from the left, co-fraction from the right), which keeps full
    relative precision when the inverse orbit approaches an integer fixed
    point; a naive ``v - floor(v/d)*d`` would cancel catastrophically there.
    This bookkeeping runs on Python scalars, value by value; a root-solved
    kind then makes one solver call for all the values.
    """
    d = spec.degree
    if spec.kind == "linear":
        return [v / d for v in values]
    splits = [_branch_split(v, d) for v in values]
    if spec.kind == "piecewise_linear_full_branch":
        cuts = branch_points(spec)
        out = []
        for m, branch, frac, cofrac in splits:
            left, right = cuts[branch], cuts[branch + 1]
            gap = right - left
            out.append((m + right) - cofrac * gap if cofrac <= frac else (m + left) + frac * gap)
        return out
    # solved kinds: accuracy is bounded by the solver tolerance anyway
    branches = np.array([branch for _, branch, _, _ in splits], dtype=np.int64)
    ys = np.array([min(frac, 1.0) for _, _, frac, _ in splits])
    xs = inverse_branch_values(spec, branches, ys, tol=tol)
    return [m + x for (m, _, _, _), x in zip(splits, xs.tolist())]


def _branch_split(v: float, d: int) -> tuple[int, int, float, float]:
    """``(m, branch, frac, cofrac)`` of ``v = m*d + branch + frac``, with
    ``cofrac = 1 - frac`` computed from the right integer endpoint."""
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
    return m, branch, max(v - anchor, 0.0), max((anchor + 1) - v, 0.0)


def inverse_orbit(
    spec: CircleMapSpec,
    ys: Iterable[float],
    n: int,
    tol: float = defaults.SOLVER_TOL,
    depth_cap: int = defaults.DEPTH_CAP,
) -> Iterator[list[float]]:
    """``[F^{-k}(y) for y in ys]`` for k = 1..n: the orbits of several points, stepped together.

    Every step solves once for all the points (see :func:`_inverse_steps`),
    and each orbit equals :func:`global_inverse_lift` of its point bit for
    bit.  The arguments are checked as :func:`global_inverse_lift` checks
    them, point by point in order, before the first step.

    Raises:
        ValueError: a ``y`` is not finite, or ``n < 1``.
        DepthCapExceeded: if ``n`` exceeds ``depth_cap``.
    """
    ensure_valid(spec)
    values = []
    for y in ys:
        value = float(y)
        if not math.isfinite(value):
            raise ValueError(f"y must be finite, got {value!r}")
        if n < 1:
            raise ValueError("n must be >= 1")
        if n > depth_cap:
            raise DepthCapExceeded(f"inverse depth {n} exceeds cap {depth_cap}")
        values.append(value)
    for _ in range(n):
        values = _inverse_steps(spec, values, tol)
        yield values


def global_inverse_lift(
    spec: CircleMapSpec,
    y: float,
    n: int,
    tol: float = defaults.SOLVER_TOL,
    depth_cap: int = defaults.DEPTH_CAP,
) -> float:
    """n-fold inverse ``F^{-n}(y)`` of the lift as a real-line homeomorphism.

    Each step writes ``y = m*d + (branch + frac)`` and solves on the branch,
    so the periodic extension is handled exactly by integer bookkeeping.

    Raises:
        ValueError: ``y`` is not finite, or ``n < 1``.
        DepthCapExceeded: if ``n`` exceeds ``depth_cap``.
    """
    *_, last = inverse_orbit(spec, (y,), n, tol=tol, depth_cap=depth_cap)
    return last[0]


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_homeo(spec: CircleHomeoSpec) -> ValidationReport:
    """Check that the homeomorphism lift is strictly increasing and fixes 0."""
    violations: list[Violation] = []
    _collect_homeo_violations(spec, violations, path="homeo")
    return ValidationReport(subject=spec.describe(), violations=tuple(violations))


def _collect_homeo_violations(spec: CircleHomeoSpec, out: list[Violation], path: str) -> None:
    if spec.kind == "identity":
        return
    if spec.kind == "sine_homeo":
        if not math.isfinite(spec.c):
            out.append(Violation("non_finite", f"{path}: c={spec.c!r} is not a finite number"))
        elif not abs(spec.c) < 1.0:
            out.append(
                Violation(
                    "non_monotone",
                    f"{path}: |c|={abs(spec.c):g} >= 1 makes the lift non-monotone "
                    "(H' = 1 + c*cos(2*pi*x) changes sign)",
                    location=0.5 if spec.c > 0 else 0.0,
                )
            )
        return
    if not spec.parts:
        out.append(Violation("empty_composition", f"{path}: empty composition"))
    for i, part in enumerate(spec.parts):
        _collect_homeo_violations(part, out, f"{path}.parts[{i}]")


@lru_cache(maxsize=512)
def _cached_validation(spec: CircleMapSpec, grid: int) -> ValidationReport:
    violations: list[Violation] = []

    def structural(s: CircleMapSpec, path: str) -> bool:
        """Collect structural violations; returns False when numeric checks are unsafe."""
        ok = True
        if not isinstance(s.degree, int) or not 2 <= s.degree <= defaults.DEGREE_CAP:
            violations.append(
                Violation("bad_degree", f"{path}: degree must be an integer in [2, {defaults.DEGREE_CAP}], got {s.degree!r}")
            )
            ok = False
        if s.kind == "piecewise_linear_full_branch":
            cuts = s.cuts
            if len(cuts) + 1 != s.degree:
                violations.append(
                    Violation("bad_degree", f"{path}: degree must equal len(cuts)+1")
                )
                ok = False
            if not all(math.isfinite(c) for c in cuts):
                violations.append(
                    Violation("non_finite", f"{path}: cuts must be finite numbers")
                )
                return False
            ext = (0.0,) + tuple(cuts) + (1.0,)
            for i in range(len(ext) - 1):
                gap = ext[i + 1] - ext[i]
                if gap <= 0:
                    violations.append(
                        Violation(
                            "cuts_not_increasing",
                            f"{path}: cuts must be strictly increasing inside (0,1)",
                            location=ext[i],
                        )
                    )
                    ok = False
                    break
                if gap < defaults.MIN_CUT_GAP:
                    violations.append(
                        Violation(
                            "branch_too_small",
                            f"{path}: branch width {gap:.3g} below minimum {defaults.MIN_CUT_GAP:g}",
                            location=ext[i],
                        )
                    )
                    ok = False
        elif s.kind == "smooth_sine":
            if not math.isfinite(s.epsilon):
                violations.append(
                    Violation("non_finite", f"{path}: epsilon={s.epsilon!r} is not a finite number")
                )
                ok = False
            elif not abs(s.epsilon) < s.degree:
                violations.append(
                    Violation(
                        "non_monotone",
                        f"{path}: non-monotone lift, min F' = d - |epsilon| = "
                        f"{s.degree - abs(s.epsilon):g} <= 0 (F' changes sign)",
                        location=0.5 if s.epsilon > 0 else 0.0,
                    )
                )
                ok = False
        elif s.kind == "conjugated":
            if s.base is None or s.homeo is None:
                violations.append(
                    Violation("missing_field", f"{path}: conjugated needs base and homeo")
                )
                return False
            ok = structural(s.base, f"{path}.base") and ok
            if s.base is not None and s.degree != s.base.degree:
                violations.append(
                    Violation("bad_degree", f"{path}: degree must match the base map")
                )
                ok = False
            before = len(violations)
            _collect_homeo_violations(s.homeo, violations, f"{path}.homeo")
            ok = ok and len(violations) == before
        return ok

    if structural(spec, "map"):
        # strict monotonicity on a dense grid plus all breakpoints; F(0) = 0
        # and F(1) = d hold exactly for every kind, as lift_values reduces
        # x = 1 to u = 0 and every unit lift maps 0 to 0
        xs = np.linspace(0.0, 1.0, grid + 1)
        cuts = _structural_cuts(spec)
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
            violations.append(
                Violation(
                    "non_monotone",
                    f"lift not strictly increasing on the validation grid "
                    f"(first failure between x={at:.6g} and x={float(xs[bad[0] + 1]):.6g})",
                    location=at,
                )
            )
    return ValidationReport(subject=spec.describe(), violations=tuple(violations))


def _structural_cuts(spec: CircleMapSpec) -> np.ndarray:
    """Breakpoints worth adding to the validation grid (known cuts only)."""
    if spec.kind == "piecewise_linear_full_branch":
        return np.asarray(spec.cuts, dtype=float)
    if spec.kind == "conjugated" and spec.base is not None and spec.homeo is not None:
        inner = _structural_cuts(spec.base)
        if inner.size:
            return _homeo_inverse_unit(spec.homeo, inner, defaults.SOLVER_TOL)
    return np.asarray([], dtype=float)


def validate(spec: CircleMapSpec, grid: int = defaults.MONOTONE_GRID) -> ValidationReport:
    """Validate a map spec; the report lists violations with locations."""
    if not isinstance(spec, CircleMapSpec):
        raise TypeError(f"expected CircleMapSpec, got {type(spec).__name__}")
    return _cached_validation(spec, grid)


def ensure_valid(spec: CircleMapSpec) -> None:
    """Raise :class:`InvalidMapError` unless the spec validates cleanly."""
    _raise_unless_ok(validate(spec))


def ensure_valid_homeo(spec: CircleHomeoSpec) -> None:
    _raise_unless_ok(validate_homeo(spec))


def _raise_unless_ok(report: ValidationReport) -> None:
    if not report.ok:
        raise InvalidMapError(f"{report.subject}: " + "; ".join(v.message for v in report.violations))


@lru_cache(maxsize=512)
def branch_points(spec: CircleMapSpec) -> tuple[float, ...]:
    """The d+1 branch endpoints ``0 = c_0 < c_1 < ... < c_d = 1`` of a valid map."""
    ensure_valid(spec)
    d = spec.degree
    if spec.kind == "piecewise_linear_full_branch":
        return (0.0,) + tuple(spec.cuts) + (1.0,)
    if spec.kind == "linear":
        return tuple(i / d for i in range(d)) + (1.0,)
    interior = inverse_branch_values(spec, np.arange(1, d), np.zeros(d - 1))
    return (0.0,) + tuple(float(c) for c in interior) + (1.0,)
