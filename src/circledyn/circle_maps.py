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
formula ladder (``describe``, lift, slope bounds, inverse branch, the array
inverse step of :func:`inverse_orbit`, chain-error model, validation;
:func:`branch_points` has none, as it reads every kind's inverse branches at
0); :func:`is_closed_form` and :func:`closed_form_inverse` when its inverse
branches are affine; and :func:`lift_slope_values` when it is root-solved
and not conjugated (its word model is then the forward orbit).

:func:`validate` checks a spec by formula and evaluates no lift.  Each
kind's checks give a valid lift the slope floor
``F' >= slope_bounds(spec)[0] > 0``; a conjugated map whose floor is below
``MIN_CUT_GAP`` is refused as well, since its computed lift can go flat.

Closed forms are used for the linear and piecewise-linear kinds; every other
inverse is a bracketed root solve to the absolute tolerance
``defaults.SOLVER_TOL``, read where a solve or an error bound needs it; no
public function takes a solver tolerance.  The root-solved lifts
``smooth_sine`` and ``sine_homeo`` are one family,
``x -> D*x + a*sin(2*pi*x)/(2*pi)``, and :func:`_solve_sine_family` is the
one root solver.  A cached per-``(D, a)`` table of the inverse guesses each
root, and one Newton step from the guess comes with an a-priori radius that
holds the root (compute fast, then verify), so a typical root costs one sine
and one cosine.  A bracket at most ``tol`` wide gives its midpoint, within
``tol/2`` of the root, with no further evaluation of the lift.  Only the few brackets still wider (near
the flat spot of a near-degenerate map) are finished by certified
bisection; :func:`_root_error` is the one per-root bound, which
:func:`chain_error_bound` builds on.  Large inputs are solved in blocks,
in place, each with one range check and a guard before the extra Newton
steps, the end hits and the bisection.  Specs are immutable and every
evaluation is a pure function of (spec, inputs), so all operations are
safe to call concurrently.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from . import defaults
from .errors import DepthCapExceeded, InvalidMapError, SolverError, SpecFormatError

_TWO_PI = 2.0 * math.pi
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_SOLVER_BLOCK = 2**15
_NEWTON_STEPS = 4
_SEED_NODES = 2**12


# ---------------------------------------------------------------------------
# Spec types
# ---------------------------------------------------------------------------

def _number(value: float) -> str:
    """``value`` in ``:g`` form when that reads back as the same float, else its repr."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


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
            return f"sine_homeo(c={_number(self.c)})"
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
            return "piecewise_linear(cuts=[" + ", ".join(_number(c) for c in self.cuts) + "])"
        if self.kind == "smooth_sine":
            return f"smooth_sine(d={self.degree}, epsilon={_number(self.epsilon)})"
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
        InvalidMapError: if the conjugated spec fails :func:`validate`: a bad
            base map (``map.base``), a bad homeomorphism (``map.homeo``), or a
            slope floor below ``MIN_CUT_GAP``.
    """
    spec = _conjugated(base, homeo)
    ensure_valid(spec)
    return spec


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
    """Vectorized lift ``H(x)`` of a circle homeomorphism, any real ``x``: its leaves, last first."""
    out = np.asarray(x, dtype=float)
    leaves = _homeo_leaves(spec)
    for c in reversed(leaves):
        out = _sine_family(1, c, out)
    return out if leaves else out.copy()


def _homeo_inverse_unit(spec: CircleHomeoSpec, y: np.ndarray) -> np.ndarray:
    """Inverse of ``H`` restricted to [0,1] -> [0,1] (``y`` must lie in [0,1]): one solve per leaf, first first."""
    out = np.array(y, dtype=float)
    for c in _homeo_leaves(spec):
        out = _solve_sine_family(1, c, out, defaults.SOLVER_TOL)
    return out


def homeo_inverse_values(spec: CircleHomeoSpec, y) -> np.ndarray:
    """Vectorized ``H^{-1}(y)``, solved on the bracket ``[floor(y), floor(y)+1]``."""
    y = np.asarray(y, dtype=float)
    k = np.floor(y)
    # a finite y - floor(y) is exact, in [0, 1] and never -0.0
    return k + _homeo_inverse_unit(spec, y - k)


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


@lru_cache(maxsize=16)
def _sine_family_constants(D: int, a: float) -> tuple[float, float, float, float, float]:
    """``(pad, m, c2, c1, c0)`` of :func:`_sine_family_bracket`, derived there."""
    u = _UNIT_ROUNDOFF
    pad = 16.0 * u * (D + abs(a))
    floor = D - abs(a)
    ds = u * (D + 24.0 * abs(a))
    scale = (1.0 + 32.0 * u) / (floor - ds) if floor > ds else math.inf
    return pad, floor, math.pi * abs(a) * scale, (ds + u * floor) * scale, (pad + u * (floor - ds)) * scale


def _root_error(D: int, a: float, tol: float) -> float:
    """Error bound ``max(tol/2, (5/4)*pad/m)`` of a solved root, before its midpoint's rounding."""
    pad, floor = _sine_family_constants(D, a)[:2]
    return max(0.5 * tol, 1.25 * pad / floor)


def _sine_family_bracket(D: int, a: float, target: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
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
    again, each step certified that way, up to ``_NEWTON_STEPS`` in all, if
    the largest r1 calls for it.  The rest runs in place, each value by the
    formulas' operations in their order.  The guess affects speed only: the
    clipped bracket ``[x - r, x + r]`` holds the root whatever x is.  With
    the padding the computed f is below the target at an unclipped left end
    and above it at an unclipped right end, so the ends need no evaluation.
    Each bracket depends on its own target alone, which must be finite and
    within the range slack of [0, D] (:func:`_solve_sine_family` checks).
    """
    pad, floor, c2, c1, c0 = _sine_family_constants(D, a)
    table = _sine_family_inverse_table(D, a)
    pos = target * (_SEED_NODES / D)
    node = np.minimum(pos.astype(np.intp), _SEED_NODES - 1)  # truncation takes pos in (-1, 0) to 0
    left, x = table[node], table[node + 1]
    x = np.add(np.multiply(np.subtract(x, left, out=x), np.subtract(pos, node, out=pos), out=x), left, out=x)
    np.minimum(np.maximum(x, 0.0, out=x), 1.0, out=x)  # clip(left + (pos - node)*(table[node + 1] - left))
    angle = np.multiply(x, _TWO_PI, out=pos)  # for the sine and the cosine alike
    residual = np.multiply(x, D)
    residual += np.divide(np.multiply(np.sin(angle, out=left), a, out=left), _TWO_PI, out=left)
    residual -= target  # _sine_family(D, a, x) - target
    e0 = np.divide(np.add(np.abs(residual, out=left), pad, out=left), floor, out=left)  # (|r0| + pad)/floor
    slope = np.add(np.multiply(np.cos(angle, out=angle), a, out=angle), D, out=angle)  # D + a*cos(2*pi*x)
    np.minimum(np.maximum(np.subtract(x, np.divide(residual, slope, out=slope), out=x), 0.0, out=x), 1.0, out=x)
    radius = np.multiply(np.add(np.multiply(e0, c2, out=slope), c1, out=slope), e0, out=slope)
    radius += c0  # (c2*e0 + c1)*e0 + c0
    # near-degenerate maps: certify by the residual, then step again
    for step in range(_NEWTON_STEPS if radius.max(initial=0.0) > 0.5 * tol else 0):  # initial: empty targets
        todo = np.flatnonzero(radius > 0.5 * tol)
        if todo.size == 0:
            break
        xs, ts = x[todo], target[todo]
        if step:
            xs = np.minimum(np.maximum(xs - residual[todo] / (D + a * np.cos(_TWO_PI * xs)), 0.0), 1.0)
        rs = _sine_family(D, a, xs) - ts
        x[todo], residual[todo], radius[todo] = xs, rs, (np.abs(rs) + pad) / floor
    lo = np.maximum(np.subtract(x, radius, out=e0), 0.0, out=e0)
    return lo, np.minimum(np.add(x, radius, out=x), 1.0, out=x)


def _solve_sine_family(D: int, a: float, target, tol: float) -> np.ndarray:
    """Roots of ``_sine_family(D, a, x) = target`` on [0, 1], each within
    :func:`_root_error` plus the rounding u of a midpoint.

    ``smooth_sine`` (D = degree, a = epsilon) and ``sine_homeo`` (D = 1,
    a = c) are this family, and every root solve of the package is this one.
    A ``tol`` that is not a finite number > 0 raises :class:`ValueError`
    before any work.  Each block of ``_SOLVER_BLOCK`` targets gets its
    brackets from :func:`_sine_family_bracket` (one sine and one cosine per
    typical root), so temporaries stay block-sized.  Non-finite targets,
    then targets outside [0, D] by more than 1e-9, raise :class:`SolverError`
    block by block; one ``min`` and one ``max`` pass a block (a NaN fails
    them).  A bracket at most ``tol`` wide gives its midpoint with no
    evaluation of the family: it has ``f(0) = 0`` and ``f(1) = D`` exactly
    (``|a*sin(2*pi)/(2*pi)|`` is below half an ulp of D), and the computed f
    straddles the target at unclipped ends, so the range check reads the
    targets alone and the only exact end hits, sought where ``min <= 0`` or
    ``max >= D``, are ``t == 0`` (the left end) and ``t == D`` (the right
    end).  Returning those ends keeps the endpoints that inverse-branch
    chains share bit for bit.  A block whose widest bracket exceeds ``tol``
    (near the flat spot of a near-degenerate map, where the certificate
    stays above ``pad/m``, pad and ``m = D - |a|`` as in the bracket)
    bisects the wider ones at their midpoints.  A computed residual r is off
    by at most ``q = pad/4``, so ``|r| > q`` moves the end on its side to the
    midpoint, and the bracket is cut to ``midpoint +- (|r| + pad)/m`` (pad's
    spare 3q covers the rounding).  An element stops with the midpoint of
    its bracket at width ``<= tol``, at ``|r| <= q`` (the bracket then lies
    within ``(5/4)*pad/m`` of the midpoint) or with no float strictly
    inside; every other pass about halves it, so there is no cap and no
    failure path.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be a finite number > 0, got {tol!r}")
    target = np.asarray(target, dtype=float)
    out = np.empty(target.shape)
    flat_target, flat_out = target.reshape(-1), out.reshape(-1)
    for start in range(0, target.size, _SOLVER_BLOCK):
        t = flat_target[start : start + _SOLVER_BLOCK]
        low, high = t.min(), t.max()
        if not (low >= -1e-9 and high <= D + 1e-9):  # false for a NaN too
            if not np.all(np.isfinite(t)):
                raise SolverError("non-finite solver target")
            raise SolverError("target outside monotone bracket (lift not monotone?)")
        lo, hi = _sine_family_bracket(D, a, t, tol)
        root = flat_out[start : start + _SOLVER_BLOCK]
        np.multiply(np.add(lo, hi, out=root), 0.5, out=root)
        if low <= 0.0 or high >= D:
            root[...] = np.where(t == 0.0, lo, np.where(t == D, hi, root))
        if (hi - lo).max() > tol:
            pad, floor = _sine_family_constants(D, a)[:2]
            todo = np.flatnonzero((hi - lo > tol) & (t != 0.0) & (t != D))
            lo, hi, t, mid = lo[todo], hi[todo], t[todo], root[todo]
            while todo.size:
                r = _sine_family(D, a, mid) - t
                reach = (np.abs(r) + pad) / floor
                lo = np.where(r < -0.25 * pad, mid, np.maximum(lo, mid - reach))
                hi = np.where(r > 0.25 * pad, mid, np.minimum(hi, mid + reach))
                mid = 0.5 * (lo + hi)
                done = (hi - lo <= tol) | (np.abs(r) <= 0.25 * pad) | (mid <= lo) | (mid >= hi)
                root[todo[done]] = mid[done]
                todo, lo, hi, t, mid = (v[~done] for v in (todo, lo, hi, t, mid))
    return out


# ---------------------------------------------------------------------------
# Endomorphism lift evaluation
# ---------------------------------------------------------------------------

@lru_cache(maxsize=512)
def _pl_table(cuts: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """``(ext, widths)`` of a piecewise-linear map, built once (read-only): the branch
    endpoints ``[0, c_1, ..., c_{d-1}, 1]`` and their differences."""
    ext = np.concatenate(([0.0], np.asarray(cuts, dtype=float), [1.0]))
    widths = np.diff(ext)
    ext.setflags(write=False)
    widths.setflags(write=False)
    return ext, widths


def _unit_lift(spec: CircleMapSpec, u: np.ndarray) -> np.ndarray:
    """Lift values for ``u`` in [0,1); returns values in [0, degree)."""
    if spec.kind == "linear":
        return spec.degree * u
    if spec.kind == "piecewise_linear_full_branch":
        ext, widths = _pl_table(spec.cuts)
        idx = np.searchsorted(ext[1:-1], u, side="right")
        return idx + (u - ext[idx]) / widths[idx]
    if spec.kind == "smooth_sine":
        return _sine_family(spec.degree, spec.epsilon, u)
    hv = homeo_lift_values(spec.homeo, u)
    return homeo_inverse_values(spec.homeo, lift_values(spec.base, hv))


def lift_values(spec: CircleMapSpec, x) -> np.ndarray:
    """Vectorized lift ``F(x)`` for any real ``x`` (periodic extension is exact)."""
    x = np.asarray(x, dtype=float)
    k = np.floor(x)
    u = x - k
    return _unit_lift(spec, u) + k * spec.degree


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
    return 8.0 * _UNIT_ROUNDOFF * len(_homeo_leaves(spec)) * homeo_slope_bounds(spec)[1]


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
        widths = _pl_table(spec.cuts)[1].tolist()  # d floats: Python's max and min beat numpy's
        return 1.0 / max(widths), 1.0 / min(widths)
    if spec.kind == "smooth_sine":
        return spec.degree - abs(spec.epsilon), spec.degree + abs(spec.epsilon)
    g_lo, g_hi = slope_bounds(spec.base)
    h_lo, h_hi = homeo_slope_bounds(spec.homeo)
    return g_lo * h_lo / h_hi, g_hi * h_hi / h_lo


def _homeo_leaves(spec: CircleHomeoSpec) -> list[float]:
    """The ``c`` of every ``sine_homeo`` at any depth, in composition order: ``H`` applies the last first."""
    if spec.kind == "sine_homeo":
        return [spec.c]
    return [c for part in spec.parts for c in _homeo_leaves(part)]


def _chain_error_model(spec: CircleMapSpec) -> tuple[float, float, float]:
    """``(step, rho, lam)``: one computed inverse branch errs by at most ``step`` (4 ulps of 1 for a lerp,
    :func:`_root_error` per root solve, carried through a conjugated map's ``H^{-1}``, ``SOLVER_TOL/2`` if
    that solves nothing), and every depth-j backward chain is ``rho*lam**j``-Lipschitz."""
    tol = defaults.SOLVER_TOL
    if spec.kind != "conjugated":
        solve = 0.0 if is_closed_form(spec) else _root_error(spec.degree, spec.epsilon, tol)
        return solve + 4.0 * _UNIT_ROUNDOFF, 1.0, 1.0 / slope_bounds(spec)[0]
    step, rho, lam = _chain_error_model(spec.base)
    h_lo, h_hi = homeo_slope_bounds(spec.homeo)
    solves = [_root_error(1, c, tol) for c in _homeo_leaves(spec.homeo)] or [0.5 * tol]
    return (math.fsum(solves) + step) / h_lo + 4.0 * _UNIT_ROUNDOFF, rho * h_hi / h_lo, lam


class _DepthTable:
    """``build(n)[k]`` for any depth k, from a prefix-stable ``build`` (n + 1 entries): the table
    starts 64 deep and is rebuilt at least twice as deep past k, with no cap."""

    def __init__(self, build):
        self.build, self.table = build, build(64)

    def __getitem__(self, k: int) -> float:
        if k >= self.table.size:
            self.table = self.build(max(k, 2 * (self.table.size - 1)))
        return self.table[k]


@lru_cache(maxsize=128)  # about 1.2 KiB a table of 64 depths; repro all reads about 100
def _chain_error_table(spec: CircleMapSpec, tol: float) -> _DepthTable:  # tol: the model's SOLVER_TOL
    step, rho, lam = _chain_error_model(spec)

    def build(n: int) -> np.ndarray:
        with np.errstate(over="ignore"):  # lam > 1 for weakly expanding maps
            reach = rho * lam ** np.arange(n)
        # np.cumsum's dispatch costs more than the sum itself at these depths
        table = step * np.concatenate(([0.0], np.add.accumulate(reach)))
        table.setflags(write=False)
        return table

    return _DepthTable(build)


def _chain_errors(spec: CircleMapSpec) -> _DepthTable:
    """The :func:`chain_error_bound` table (``[k]`` is entry k): one per spec and ``SOLVER_TOL``, shared."""
    return _chain_error_table(spec, defaults.SOLVER_TOL)


def chain_error_bound(spec: CircleMapSpec, n: int) -> np.ndarray:
    """``out[k]``, k = 0..n, bounds the error of a value computed by a depth-k backward chain.

    Each step adds one inverse-branch error, which the outer steps carry to
    the result with their Lipschitz bound (:func:`_chain_error_model`).  The
    bound is rigorous for the closed-form kinds; for root-solved kinds it
    rests on :func:`_root_error` and :func:`slope_bounds`.  ``out[k]`` does
    not depend on ``n``: ``out`` is a read-only view of :func:`_chain_errors`."""
    table = _chain_errors(spec)
    table[n]  # grows the table to depth n
    return table.table[: n + 1]


def eval_lift(spec: CircleMapSpec, x: float) -> float:
    """Evaluate the lift ``F`` at a single point.

    Raises:
        InvalidMapError: if the spec fails validation.
    """
    ensure_valid(spec)
    return float(lift_values(spec, np.float64(x)))


def inverse_branch_values(spec: CircleMapSpec, branch, y, out: np.ndarray | None = None) -> np.ndarray:
    """Vectorized inverse branch: the x in branch ``b`` with ``F(x) = y + b``.

    ``branch`` is an integer array (or scalar) that broadcasts against ``y``,
    whose values lie in [0,1]; the result has the broadcast shape.  Closed
    forms are used for the linear and piecewise-linear kinds; the other kinds
    use the bracketed root solver on the unit interval.  Given ``out``, an
    array of the broadcast shape that is ``y`` itself or does not overlap
    it, the values are stored there and ``out`` is returned; closed forms
    compute them in place (:func:`closed_form_inverse`).
    """
    y = np.asarray(y, dtype=float)
    branch = np.asarray(branch, dtype=np.int64)
    if is_closed_form(spec):
        return closed_form_inverse(spec, _pl_table(spec.cuts)[0], branch, y, out=out)
    if spec.kind == "smooth_sine":
        x = _solve_sine_family(spec.degree, spec.epsilon, branch + y, defaults.SOLVER_TOL)
    else:
        hv = homeo_lift_values(spec.homeo, y)
        xb = inverse_branch_values(spec.base, branch, np.minimum(np.maximum(hv, 0.0), 1.0))
        x = _homeo_inverse_unit(spec.homeo, xb)
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
    ndarray ``out`` of the broadcast shape, ``y`` itself or not overlapping
    it, gets ``(1-y)*e[b]`` and then the sum with ``y*e[b+1]``, made in one
    scratch array before ``out`` is written when ``y`` has its shape: both
    products round on their own and the sum commutes, so this is the
    ``out=None`` value bit for bit.  Broadcast branches share one ``1 - y``.
    """
    if spec.kind == "linear":
        if out is None:
            return (branch + y) / spec.degree
        return np.divide(np.add(branch, y, out=out), spec.degree, out=out)
    # lerp form is exact at y = 0 and y = 1
    if out is None:
        return (1.0 - y) * ends[branch] + y * ends[branch + 1]
    if out.shape != y.shape:  # branches broadcast over y: its 1 - y is freed before the scratch is made
        return np.add(np.multiply(1.0 - y, ends[branch], out=out), y * ends[1:][branch], out=out)
    scratch = y * ends[1:][branch]  # a chain step, maybe in place: y is read before out is written
    return np.add(np.multiply(np.subtract(1.0, y, out=out), ends[branch], out=out), scratch, out=out)


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


def inverse_branch(spec: CircleMapSpec, branch: int, y: float) -> float:
    """The unique x in ``[c_branch, c_{branch+1}]`` with ``F(x) = y + branch``.

    A point equal to a cut belongs to both adjacent branches; the explicit
    ``branch`` index resolves the tie, never the point.

    Raises:
        InvalidMapError: spec fails validation.
        ValueError: branch index out of range or y outside [0,1].
        SolverError: a root-solve target is not finite or outside its range.
    """
    ensure_valid(spec)
    if not 0 <= branch < spec.degree:
        raise ValueError(f"branch {branch} out of range for degree {spec.degree}")
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"y={y!r} outside [0,1]")
    return float(inverse_branch_values(spec, branch, np.float64(y)))


def _inverse_steps(spec: CircleMapSpec, v: np.ndarray) -> np.ndarray:
    """``F^{-1}(v)`` for each real ``v`` of an array, in one array step.

    Each ``v = m*d + branch + frac`` takes its branch offset from the nearer
    integer endpoint (``frac`` from the left, ``cofrac = 1 - frac`` from the
    right), which keeps full relative precision near an integer fixed point,
    where ``v - floor(v/d)*d`` would cancel.  ``m = hi + lo`` with ``hi*d``
    exact, so ``m*d + c`` rounds once, as exact integers would; past ``2**53``
    a ``t < 0`` can survive the ``m - 1`` correction, and takes branch 0."""
    d = spec.degree
    if spec.kind == "linear":
        return v / d
    m = np.floor(v / d)
    hi = np.rint(m * 2.0**-26) * 2.0**26
    hd, lo = hi * d, m - hi
    t = v - (hd + lo * d)
    lo -= t < 0.0
    lo += t >= d
    ld = lo * d
    t = v - (hd + ld)
    branch = np.minimum(np.maximum(t, 0.0), d - 1).astype(np.int64)
    ld += branch
    frac = np.maximum(v - (hd + ld), 0.0)
    cofrac = np.maximum((hd + (ld + 1.0)) - v, 0.0)
    m = hi + lo
    if spec.kind == "piecewise_linear_full_branch":
        ends = _pl_table(spec.cuts)[0]
        left, right = ends[branch], ends[branch + 1]
        gap = right - left
        return np.where(cofrac <= frac, (m + right) - cofrac * gap, (m + left) + frac * gap)
    # solved kinds: accuracy is bounded by the solver tolerance anyway
    return m + inverse_branch_values(spec, branch, np.minimum(frac, 1.0))


def inverse_orbit(
    spec: CircleMapSpec,
    ys: Iterable[float],
    n: int,
    depth_cap: int = defaults.DEPTH_CAP,
) -> Iterator[list[float]]:
    """``[F^{-k}(y) for y in ys]`` for k = 1..n: the orbits of several points, stepped together.

    Every step is one array step for all the points (:func:`_inverse_steps`),
    and each orbit equals :func:`global_inverse_lift` of its point bit for
    bit.  The points are checked in order, then ``n``, before the first
    step, with or without points.

    Raises:
        ValueError: a ``y`` is not finite or ``|y| > 1e300``, or ``n < 1``.
        DepthCapExceeded: if ``n`` exceeds ``depth_cap``.
    """
    ensure_valid(spec)
    values = []
    for y in ys:
        value = float(y)
        if not math.isfinite(value):
            raise ValueError(f"y must be finite, got {value!r}")
        if abs(value) > 1e300:  # m*d could overflow
            raise ValueError(f"y must be at most 1e300 in magnitude, got {value!r}")
        values.append(value)
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > depth_cap:
        raise DepthCapExceeded(f"inverse depth {n} exceeds cap {depth_cap}")
    values = np.asarray(values, dtype=float)
    for _ in range(n):
        values = _inverse_steps(spec, values)
        yield values.tolist()


def global_inverse_lift(
    spec: CircleMapSpec,
    y: float,
    n: int,
    depth_cap: int = defaults.DEPTH_CAP,
) -> float:
    """n-fold inverse ``F^{-n}(y)`` of the lift as a real-line homeomorphism.

    Each step writes ``y = m*d + (branch + frac)`` and solves on the branch,
    so the periodic extension is handled exactly by integer bookkeeping.

    Raises:
        ValueError: ``y`` is not finite or ``|y| > 1e300``, or ``n < 1``.
        DepthCapExceeded: if ``n`` exceeds ``depth_cap``.
    """
    *_, last = inverse_orbit(spec, (y,), n, depth_cap=depth_cap)
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
def _cached_validation(spec: CircleMapSpec) -> ValidationReport:
    violations: list[Violation] = []
    minimum = defaults.MIN_CUT_GAP

    def flag(code: str, message: str, location: float | None = None) -> None:
        violations.append(Violation(code, message, location))

    def structural(s: CircleMapSpec, path: str) -> None:
        if not isinstance(s.degree, int) or not 2 <= s.degree <= defaults.DEGREE_CAP:
            flag("bad_degree", f"{path}: degree must be an integer in [2, {defaults.DEGREE_CAP}], got {s.degree!r}")
        if s.kind == "piecewise_linear_full_branch":
            if len(s.cuts) + 1 != s.degree:
                flag("bad_degree", f"{path}: degree must equal len(cuts)+1")
            if not all(math.isfinite(c) for c in s.cuts):
                flag("non_finite", f"{path}: cuts must be finite numbers")
                return
            ext = (0.0,) + tuple(s.cuts) + (1.0,)
            for left, right in zip(ext, ext[1:]):
                gap = right - left
                if gap <= 0:
                    flag("cuts_not_increasing", f"{path}: cuts must be strictly increasing inside (0,1)", left)
                    break
                if gap < minimum:
                    flag("branch_too_small", f"{path}: branch width {gap:.3g} below minimum {minimum:g}", left)
        elif s.kind == "smooth_sine":
            if not math.isfinite(s.epsilon):
                flag("non_finite", f"{path}: epsilon={s.epsilon!r} is not a finite number")
            elif not abs(s.epsilon) < s.degree:
                flag(
                    "non_monotone",
                    f"{path}: non-monotone lift, min F' = d - |epsilon| = "
                    f"{s.degree - abs(s.epsilon):g} <= 0 (F' changes sign)",
                    0.5 if s.epsilon > 0 else 0.0,
                )
        elif s.kind == "conjugated":
            if s.base is None or s.homeo is None:
                flag("missing_field", f"{path}: conjugated needs base and homeo")
                return
            structural(s.base, f"{path}.base")
            if s.degree != s.base.degree:
                flag("bad_degree", f"{path}: degree must match the base map")
            _collect_homeo_violations(s.homeo, violations, f"{path}.homeo")

    structural(spec, "map")
    if spec.kind == "conjugated" and not violations:
        # the structural checks give F' >= floor > 0 in exact arithmetic; so
        # small a floor lets the computed lift go flat between nearby floats
        floor = slope_bounds(spec)[0]
        if floor < minimum:
            flag("non_monotone", f"map: slope floor {floor:.3g} of the conjugated lift below minimum {minimum:g}")
    return ValidationReport(subject=spec.describe(), violations=tuple(violations))


def validate(spec: CircleMapSpec) -> ValidationReport:
    """Validate a map spec by formula; the report lists violations with locations.

    No lift is evaluated (see the module docstring).  A conjugated map whose
    parts pass is still refused, as ``non_monotone``, when its slope floor
    ``slope_bounds(spec)[0]`` is below ``MIN_CUT_GAP``.
    """
    if not isinstance(spec, CircleMapSpec):
        raise TypeError(f"expected CircleMapSpec, got {type(spec).__name__}")
    return _cached_validation(spec)


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
    # every kind's interior end c_b is its inverse branch b at 0: a lerp
    # returns c_b and the linear step b/d exactly
    d = spec.degree
    return (0.0, *inverse_branch_values(spec, np.arange(1, d), np.zeros(d - 1)).tolist(), 1.0)
