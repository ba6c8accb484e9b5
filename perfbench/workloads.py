"""The benchmark's four workloads: seeded specs, fixed op lists, output checks.

Every op is a closed-loop call: the harness issues one public-API call (or one
in-process ``cli.main`` command), waits for it, and only then issues the next.
Specs and inputs come from the seed alone; the program sees nothing else.

Why these four:

* ``pl_batch``: linear and piecewise-linear maps.  Inverse branches are closed
  forms, so the level recursion and the refinement kernel do all the work and
  the root solver never runs.  A solver change must read "no change" here.
* ``smooth_batch``: ``smooth_sine`` and ``conjugated`` maps.  Every inverse
  branch is a bisection, nested one inside another for ``conjugated``.
* ``interactive``: single-point queries and CLI commands, each on a freshly
  generated spec, so validation, the mesh probe and the caches run cold.
* ``acceptance``: ``circledyn repro all`` in process; the only workload that
  drives the ``repro`` layer.  Its inputs are fixed, so it ignores the seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Callable

import numpy as np

from circledyn import analysis as an
from circledyn import circle_maps as cm
from circledyn import cli
from circledyn import conjugacy as cj
from circledyn import defaults
from circledyn import repro
from circledyn import symbolic_partition as sp

import oracle

# Stated tolerances of the two batch workloads' conjugacy enclosures.
PL_TOL = 1e-10
SMOOTH_TOL = 1e-8
# A g-map is admitted only if its widest cylinder at the depth cap is below
# REACH_MARGIN * tol, so an unmet tol within the cap is a program failure.
REACH_MARGIN = 1e-2
# Accuracy expected of the program, from its arithmetic: closed-form chains of
# at most 60 affine steps lose a few ulps each; bisection stops on a bracket of
# SOLVER_TOL, and chains of contracting solves keep that error below 1e-11.
AFFINE_ABS = 1e-13
SOLVED_ABS = 1e-11
# Deep-level ratios of cylinder lengths divide numbers down to ~1e-8, so their
# relative accuracy is the absolute endpoint accuracy over that length.
RATIO_REL = 1e-6
FORWARD_ABS = 1e-9
# A point this close to an f-endpoint may take the endpoint's g-image as a
# zero-width enclosure (the program's ENDPOINT_SNAP when this benchmark was
# defined; a wider snap would return values further than tol from h(x)).
SNAP = 1e-12


@dataclass
class Op:
    """One closed-loop call with its output check and its unit of work."""

    family: str
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    work: Callable[[object], int] = lambda out: 1
    count: int = 1  # operations the call stands for (acceptance: criteria)
    warm: Callable[[], object] | None = None  # small call that fills caches


def digest(out) -> str:
    """SHA-256 of an op output's exact bits: array bytes, dtypes, shapes and
    the reprs of scalars, through dataclasses, tuples and lists."""
    h = hashlib.sha256()

    def feed(x) -> None:
        if isinstance(x, np.ndarray) and x.dtype != object:
            h.update(f"array {x.dtype.str} {x.shape};".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif is_dataclass(x):
            h.update(f"{type(x).__qualname__};".encode())
            for f in fields(x):
                feed(getattr(x, f.name))
        elif isinstance(x, (tuple, list, np.ndarray)):
            h.update(f"{type(x).__name__} {len(x)};".encode())
            for item in x:
                feed(item)
        else:
            h.update(f"{repr(x)};".encode())

    feed(out)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Seeded spec generation within each kind's validity margins
# ---------------------------------------------------------------------------

# The parameters that set a map's contraction, and with it the refinement
# depth and the cost of every op, vary in narrow bands: a seed changes the
# geometry of the maps, not the amount of work, so runs at different seeds
# stay comparable.
#
# Lower end of the uniform branch weights per degree: the widest branch is at
# most 1/(1 + (d-1)*lo), which keeps w**48 far below PL_TOL for every degree.
PL_WEIGHT_LO = {2: 0.9, 3: 0.7, 4: 0.7}
# |epsilon| bands for smooth_sine: d - |eps| >= 1.7 keeps (1/(d-|eps|))**48
# far below SMOOTH_TOL.
EPS_RANGE = {2: (0.25, 0.3), 3: (0.8, 0.9)}
# |c| bands of sine homeomorphisms, alone and as the parts of a composition
SINE_C = (0.35, 0.4)
COMPOSE_C = (0.2, 0.25)


def pl_dict(rng, d: int) -> dict:
    u = rng.uniform(PL_WEIGHT_LO[d], 1.0, d)
    cuts = np.cumsum(u / u.sum())[:-1]
    return {"kind": "piecewise_linear_full_branch", "cuts": [float(c) for c in cuts]}


def smooth_dict(rng, d: int) -> dict:
    lo, hi = EPS_RANGE[d]
    eps = float(rng.uniform(lo, hi) * rng.choice([-1.0, 1.0]))
    return {"kind": "smooth_sine", "degree": d, "epsilon": eps}


def sine_dict(rng, lo: float, hi: float) -> dict:
    return {"kind": "sine_homeo", "c": float(rng.uniform(lo, hi) * rng.choice([-1.0, 1.0]))}


def homeo_dict(rng, kind: str = "sine") -> dict:
    if kind == "sine":
        return sine_dict(rng, *SINE_C)
    return {"kind": "compose", "parts": [sine_dict(rng, *COMPOSE_C), sine_dict(rng, *COMPOSE_C)]}


def conjugated_dict(base: dict, homeo: dict) -> dict:
    return {"kind": "conjugated", "base": base, "homeo": homeo}


def check_margins(spec) -> None:
    """The generator's own guarantee: MIN_CUT_GAP, |eps| < d, |c| < 1."""
    if spec.kind == "piecewise_linear_full_branch":
        if float(np.min(np.diff(oracle.breakpoints(spec)))) < 10 * defaults.MIN_CUT_GAP:
            raise ValueError(f"generated branch below MIN_CUT_GAP: {spec}")
    elif spec.kind == "smooth_sine":
        if not abs(spec.epsilon) < spec.degree - 1.0:
            raise ValueError(f"generated epsilon too close to the degree: {spec}")
    elif spec.kind == "conjugated":
        check_margins(spec.base)
        if not oracle.lipschitz_prefactor(spec) < 8.0:
            raise ValueError(f"generated homeo amplitude too close to 1: {spec}")


def reach_tol(g, tol: float) -> None:
    """Raise unless every g-cylinder is below REACH_MARGIN * tol at the cap."""
    widest = oracle.lipschitz_prefactor(g) * oracle.contraction(g) ** defaults.CONJUGACY_DEPTH_CAP
    if not widest <= REACH_MARGIN * tol:
        raise ValueError(f"tol {tol:g} not reachable within the depth cap for {g.describe()}")


def build(data: dict):
    spec = cm.map_spec_from_dict(data)
    check_margins(spec)
    return spec


def grid(n: int) -> np.ndarray:
    return np.arange(n, dtype=float) / n


# ---------------------------------------------------------------------------
# Output checks against the independent references in oracle.py
# ---------------------------------------------------------------------------

def _err(name: str, value: float, limit: float) -> list[str]:
    return [] if value <= limit else [f"{name} {value:.3e} > {limit:.1e}"]


def check_level(spec, n: int, ends: np.ndarray) -> list[str]:
    d = spec.degree
    if ends.shape != (d**n + 1,):
        return [f"expected {d**n + 1} endpoints, got {ends.shape}"]
    out = []
    if ends[0] != 0.0 or ends[-1] != 1.0:
        out.append("level does not start at 0 and end at 1")
    if not np.all(np.diff(ends) > 0):
        out.append("level endpoints not strictly increasing")
    if oracle.is_affine(spec):
        ref = oracle.level_lengths(spec, n)
        out += _err("max |length - product of widths|", float(np.max(np.abs(np.diff(ends) - ref))), AFFINE_ABS)
    else:
        ref = np.append(oracle.level_lefts(spec, n), 1.0)
        out += _err("max |endpoint - Newton endpoint|", float(np.max(np.abs(ends - ref))), SOLVED_ABS)
        out += _err("max dist(F^n(e), Z)", oracle.forward_residual(spec, ends, n), FORWARD_ABS)
    return out


def check_lengths(spec, n: int, lengths: np.ndarray) -> list[str]:
    limit = AFFINE_ABS if oracle.is_affine(spec) else 2 * SOLVED_ABS
    ref = oracle.level_lengths(spec, n)
    if lengths.shape != ref.shape:
        return [f"expected {ref.size} lengths, got {lengths.shape}"]
    out = _err("max |length - reference length|", float(np.max(np.abs(lengths - ref))), limit)
    return out + _err("|sum of lengths - 1|", abs(float(np.sum(lengths)) - 1.0), limit)


def _rel(name: str, got: float, ref: float, limit: float) -> list[str]:
    return _err(f"{name} rel err", abs(got - ref) / abs(ref), limit)


def check_dilatation(f, g, n: int, coarse: int, rep) -> list[str]:
    ratios = oracle.level_lengths(g, n) / oracle.level_lengths(f, n)
    out = _rel("max_ratio", rep.max_ratio, float(np.max(ratios)), RATIO_REL)
    out += _rel("min_ratio", rep.min_ratio, float(np.min(ratios)), RATIO_REL)
    per_cell = ratios.reshape(f.degree**coarse, -1).max(axis=1)
    got = np.asarray([r for _, r in rep.coarse_max])
    out += _err("coarse_max rel err", float(np.max(np.abs(got - per_cell) / per_cell)), RATIO_REL)
    if oracle.is_affine(f) and oracle.is_affine(g):
        # one symbol maximises the per-branch ratio, so the argmax word repeats it
        r = np.diff(oracle.breakpoints(g)) / np.diff(oracle.breakpoints(f))
        if rep.argmax_word.symbols != (int(np.argmax(r)),) * n:
            out.append(f"argmax word {rep.argmax_word} is not the constant word")
        if rep.argmin_word.symbols != (int(np.argmin(r)),) * n:
            out.append(f"argmin word {rep.argmin_word} is not the constant word")
    return out


def check_bg(spec, n: int, value: float) -> list[str]:
    worst, prev = 1.0, np.ones(1)
    for k in range(1, n + 1):
        lengths = oracle.level_lengths(spec, k)
        worst = max(worst, float(np.max(np.repeat(prev, spec.degree) / lengths)))
        prev = lengths
    return _rel("bounded-geometry constant", value, worst, RATIO_REL)


def check_table(f, g, n: int, table) -> list[str]:
    out = check_level(f, n, table.f_points) + check_level(g, n, table.g_points)
    if f.kind == "conjugated" and g == f.base:
        # h = H for F = H^-1 G H, so h maps f-endpoints to g-endpoints by H
        err = float(np.max(np.abs(table.g_points - oracle.homeo(f.homeo, table.f_points))))
        out += _err("max |g_e - H(f_e)|", err, FORWARD_ABS)
    return out


def check_residual(rep) -> list[str]:
    """h = H is exact for conjugated(G, H) -> G, so the residual of
    h o f = g o h comes from the enclosures alone: at most (1 + max G') tol,
    which is 3 tol for the degree-2 linear G used here."""
    out = [] if rep.tol_met_all else ["tol not met on the residual grid"]
    out += _err("enclosure width", rep.max_enclosure_width, rep.tol)
    return out + _err("residual", rep.max_residual, 4 * rep.tol + 1e-9)


def check_markov(spec, n: int, rep) -> list[str]:
    out = [] if rep.ok else [f"verify_markov failed: {rep}"]
    ref = oracle.forward_residual(spec, np.append(oracle.level_lefts(spec, n), 1.0), n)
    return out + _err("|max_forward_error - reference|", abs(rep.max_forward_error - ref), FORWARD_ABS)


def known_conjugacy(f, g):
    """h as a formula when the pair determines it, else None."""
    if f == g:
        return lambda x: np.asarray(x, float)
    if f.kind == "conjugated" and g == f.base:
        return lambda x: oracle.homeo(f.homeo, x)
    return None


def check_enclosures(f, g, xs, tol: float, out, sample: np.ndarray) -> list[str]:
    lo, hi, depth, met = out
    fails = []
    if not np.all(met):
        fails.append(f"{int(np.count_nonzero(~met))} of {met.size} points missed a reachable tol {tol:g}")
    if np.any(hi < lo) or np.any(hi - lo > tol):
        fails.append("enclosure inverted or wider than tol")
    mid = 0.5 * (lo + hi)
    if np.any(np.diff(mid) < -2 * tol):
        fails.append("enclosure midpoints not monotone in x")
    h = known_conjugacy(f, g)
    if h is not None:
        fails += _err("max |midpoint - h(x)|", float(np.max(np.abs(mid - h(xs)))), tol + 1e-9)
    if oracle.is_affine(f) and oracle.is_affine(g):
        for i in sample:
            fails += check_affine_enclosure(f, g, float(xs[i]), int(depth[i]), lo[i], hi[i])
    return fails


def check_affine_enclosure(f, g, x: float, depth: int, lo: float, hi: float) -> list[str]:
    """The enclosure is the g-cylinder of x's exact f-word at the reported depth,
    or, within SNAP of an f-endpoint, the g-image of that endpoint."""
    if x in (0.0, 1.0):
        return [] if lo == hi == x else [f"h({x}) is not exact"]
    word, _ = oracle.mp_word(f, x, depth)
    lg, rg = oracle.mp_cylinder(g, word)
    if lo != hi:
        if abs(lo - lg) <= AFFINE_ABS and abs(hi - rg) <= AFFINE_ABS:
            return []
        return [f"enclosure of h({x!r}) at depth {depth} is not the g-cylinder of word {word}"]
    lf, rf = oracle.mp_cylinder(f, word)
    if (abs(x - lf) <= SNAP and abs(lo - lg) <= AFFINE_ABS) or (abs(x - rf) <= SNAP and abs(lo - rg) <= AFFINE_ABS):
        return []
    return [f"zero-width enclosure of h({x!r}) is not the image of a nearby f-endpoint"]


def check_itinerary(spec, xs, n: int, symbols, sample) -> list[str]:
    if symbols.shape != (xs.size, n):
        return [f"itinerary shape {symbols.shape}"]
    for i in sample:
        exact, margins = oracle.mp_word(spec, float(xs[i]), n)
        if not oracle.word_matches([int(s) for s in symbols[i]], exact, margins):
            return [f"itinerary of x={float(xs[i])!r} differs from the exact word"]
    return []


def check_measure(spec, intervals, profile) -> list[str]:
    a = np.asarray([iv[0] for iv in intervals])
    b = np.asarray([iv[1] for iv in intervals])
    total = np.zeros_like(a)
    for s in range(spec.degree):
        total += oracle.inverse_branch(spec, s, b) - oracle.inverse_branch(spec, s, a)
    ref = np.abs(total - (b - a))
    limit = AFFINE_ABS if oracle.is_affine(spec) else SOLVED_ABS
    out = _err("max |profile - reference|", float(np.max(np.abs(profile - ref))), limit)
    if oracle.is_affine(spec):
        # full-branch affine maps preserve Lebesgue measure
        out += _err("max deviation of a measure-preserving map", float(np.max(profile)), AFFINE_ABS)
    return out


def check_tail(spec, word, k_max: int, rep) -> list[str]:
    d, n = spec.degree, word.level
    if len(rep.rows) != k_max:
        return [f"{len(rep.rows)} tail rows for k_max {k_max}"]
    out = []
    widx = int(sum(s * d ** (n - 1 - j) for j, s in enumerate(word.symbols)))
    lo, hi = oracle.mp_cylinder(spec, word)
    base = float(hi - lo)
    mask = np.ones(1, dtype=bool)
    for row in rep.rows:
        k = row.k
        if row.interval_count != (d**n - 1) ** k:
            out.append(f"interval_count {row.interval_count} at k={k}")
        if oracle.is_affine(spec):
            ref = (1.0 - base) ** k
        else:
            mask = np.repeat(mask, d**n) & (np.arange(d ** (n * k)) % d**n != widx)
            ref = float(np.sum(oracle.level_lengths(spec, n * k)[mask]))
        out += _err(f"|S_{k} - reference|", abs(row.excluded_sum - ref), SOLVED_ABS)
    return out


def check_uqs(spec, x: float, t: float, n: int, ratio: float) -> list[str]:
    plus, mid, minus = (oracle.mp_global_inverse(spec, y, n) for y in (x + t, x, x - t))
    ref = float((plus - mid) / (mid - minus))
    return _rel("uqs ratio", ratio, ref, RATIO_REL)


def check_symmetry(h, rep) -> list[str]:
    xs = grid(rep.grid)
    out = []
    for row in rep.rows:
        t = row.scale
        mid = oracle.homeo(h, xs)
        r = (oracle.homeo(h, xs + t) - mid) / (mid - oracle.homeo(h, xs - t))
        ref = float(np.max(np.maximum(r - 1.0, 1.0 / r - 1.0)))
        out += _err(f"|deviation - reference| at t={t:g}", abs(row.deviation - ref), 1e-12 + 1e-9 * ref)
    return out


def spot_inverse_checks(specs, rng, per_spec: int = 3) -> list[Op]:
    """mpmath spot checks of single inverse branches."""
    ops = []
    for spec in specs:
        for _ in range(per_spec):
            b = int(rng.integers(spec.degree))
            y = float(rng.uniform())

            def check(x, spec=spec, b=b, y=y):
                ref = float(oracle.mp_inverse_branch(spec, b, y))
                return _err(f"|inverse_branch - mp| for {spec.describe()}", abs(x - ref), 1e-12)

            ops.append(Op("spot", "inverse_branch", lambda spec=spec, b=b, y=y: cm.inverse_branch(spec, b, y), check))
    return ops


# ---------------------------------------------------------------------------
# Batch workloads
# ---------------------------------------------------------------------------

def _cells_bg(spec, n: int) -> int:
    return sum(spec.degree**k for k in range(1, n + 1))


def _tail_kmax(d: int, n: int) -> int:
    k = 1
    while (d**n - 1) ** (k + 1) <= defaults.WORK_CAP:
        k += 1
    return k


def _sample(rng, size: int, count: int) -> np.ndarray:
    return np.sort(rng.choice(size, size=min(count, size), replace=False))


def _met(out) -> int:
    return int(np.count_nonzero(out[3]))


@dataclass
class Batch:
    """A fixed op list over seeded specs, run again and again with warm caches."""

    name: str
    specs: list = field(default_factory=list)
    op_list: list[Op] = field(default_factory=list)
    spot: list[Op] = field(default_factory=list)
    # later passes must repeat the first pass's outputs bit for bit
    check_every_pass = False

    def ops(self, pass_index: int) -> list[Op]:
        return self.op_list

    def warm_up(self) -> None:
        """One call per op family and spec, at small sizes: fills the
        validation, branch-point and mesh-probe caches."""
        for spec in self.specs:
            sp.level_endpoints(spec, 2)
            sp.itinerary_batch(spec, np.asarray([0.3]), 2)
            an.measure_profile(spec, an.dyadic_intervals(2))
        for op in self.op_list:
            if op.warm is not None:
                op.warm()


def _add_cells(ops: list, f, g, n: int, coarse: int) -> None:
    d = f.degree
    ops += [
        Op("cells", "level_endpoints", lambda: sp.level_endpoints(f, n),
           lambda e: check_level(f, n, e), lambda e: d**n),
        Op("cells", "cylinder_lengths", lambda: sp.cylinder_lengths(g, n),
           lambda ln: check_lengths(g, n, ln), lambda ln: d**n),
        Op("cells", "bounded_geometry_constant", lambda: sp.bounded_geometry_constant(f, n - 1),
           lambda v: check_bg(f, n - 1, v), lambda v: _cells_bg(f, n - 1)),
        Op("cells", "dilatation_report", lambda: an.dilatation_report(f, g, n, coarse_level=coarse),
           lambda r: check_dilatation(f, g, n, coarse, r), lambda r: 2 * d**n),
    ]


def _conj_op(f, g, xs, tol: float, sample) -> Op:
    return Op("conj", "conjugacy_enclosures", lambda: cj.conjugacy_enclosures(f, g, xs, tol=tol),
              lambda out: check_enclosures(f, g, xs, tol, out, sample), _met,
              warm=lambda: cj.conjugacy_enclosures(f, g, xs[:1], tol=1e-2))


def _itin_op(spec, xs, n: int, sample) -> Op:
    return Op("itinerary", "itinerary_batch", lambda: sp.itinerary_batch(spec, xs, n),
              lambda s: check_itinerary(spec, xs, n, s, sample), lambda s: xs.size * n)


def _analysis_ops(rng, spec, intervals: int, word, k_max: int, uqs_n: int) -> list[Op]:
    iv = an.dyadic_intervals(intervals)
    x = float(rng.uniform(0.05, 0.95))
    t = float(rng.uniform(0.05, 0.2))
    return [
        Op("analysis", "measure_profile", lambda: an.measure_profile(spec, iv),
           lambda p: check_measure(spec, iv, p)),
        Op("analysis", "tail_sum", lambda: an.tail_sum(spec, word, k_max),
           lambda r: check_tail(spec, word, k_max, r)),
        Op("analysis", "uqs_ratio_endo", lambda: an.uqs_ratio_endo(spec, x, t, uqs_n),
           lambda r: check_uqs(spec, x, t, uqs_n, r)),
    ]


def _symmetry_op(h) -> Op:
    return Op("analysis", "symmetry_modulus", lambda: an.symmetry_modulus(h),
              lambda r: check_symmetry(h, r))


def _qs_op(rng, h) -> Op:
    """One distortion ratio of a homeomorphism (not counted in analysis_ops_per_s)."""
    x, t = float(rng.uniform()), float(rng.uniform(1e-3, 0.2))

    def check(r):
        plus, mid, minus = oracle.homeo(h, np.asarray([x + t, x, x - t]))
        return _rel("qs ratio", r, float((plus - mid) / (mid - minus)), 1e-9)

    return Op("qs", "qs_ratio", lambda: an.qs_ratio(h, x, t), check)


def _cylinders_op(rng, spec, count: int, level: int, sample: int) -> Op:
    """Single cylinders of random deep words, one interval_of_word call each."""
    words = [sp.Word(tuple(int(s) for s in rng.integers(spec.degree, size=level))) for _ in range(count)]
    limit = AFFINE_ABS if oracle.is_affine(spec) else SOLVED_ABS

    def check(cyls):
        out = []
        for w, c in list(zip(words, cyls))[:sample]:
            lo, hi = oracle.mp_cylinder(spec, w)
            out += _err(f"|I_{w} - mp|", max(abs(c.left - float(lo)), abs(c.right - float(hi))), limit)
        return out

    return Op("cylinders", "interval_of_word", lambda: [sp.interval_of_word(spec, w) for w in words], check)


# level of the deep enumerations per degree: 2^18, 3^11 and 4^9 cells
PL_LEVEL = {2: 18, 3: 11, 4: 9}
# inverse depth of the distortion ratios: t * w_min**n stays above 1e-8, so
# the ratio of two float differences keeps RATIO_REL accuracy
PL_UQS_N = {2: 16, 3: 8, 4: 6}
PL_GRID = 1024
PL_ITINERARY_DEPTH = 32


def pl_batch(seed: int) -> Batch:
    rng = np.random.default_rng([seed, 1])
    wl = Batch("pl_batch")
    ops = wl.op_list
    for d in (2, 3, 4):
        f, g = build(pl_dict(rng, d)), build(pl_dict(rng, d))
        lin = cm.linear_map(d)
        for spec in (f, g, lin):
            reach_tol(spec, PL_TOL)
        wl.specs += [f, g, lin]
        n = PL_LEVEL[d]
        _add_cells(ops, f, g, n, coarse=2)
        ops.append(Op("cells", "endpoint_table", lambda lin=lin, g=g, n=n: cj.endpoint_table(lin, g, n - 2),
                      lambda tb, lin=lin, g=g, n=n: check_table(lin, g, n - 2, tb),
                      lambda tb, d=d, n=n: 2 * d ** (n - 2)))
        xs = grid(PL_GRID)
        ops.append(_conj_op(f, g, xs, PL_TOL, _sample(rng, xs.size, 96)))
        ops.append(_conj_op(g, lin, xs, PL_TOL, _sample(rng, xs.size, 32)))
        pts = np.sort(rng.uniform(0.0, 1.0, PL_GRID))
        ops.append(_itin_op(f, pts, PL_ITINERARY_DEPTH, _sample(rng, pts.size, 48)))
        word = sp.Word(tuple(int(s) for s in rng.integers(d, size=2)))
        ops += _analysis_ops(rng, g, 4096, word, _tail_kmax(d, 2), PL_UQS_N[d])
    homeo = cm.sine_homeo(float(rng.uniform(-0.5, 0.5)))
    ops += [_symmetry_op(homeo), _qs_op(rng, homeo), _cylinders_op(rng, wl.specs[0], 64, 40, 8)]
    wl.spot = spot_inverse_checks(wl.specs, rng)
    return wl


# smooth levels stay where F^n expands the 1e-13 solver error to below 1e-9
SMOOTH_LEVEL = {"s2": 10, "s3": 7, "c2": 9, "c3": 5}


def smooth_batch(seed: int) -> Batch:
    rng = np.random.default_rng([seed, 2])
    wl = Batch("smooth_batch")
    s2 = build(smooth_dict(rng, 2))
    s3 = build(smooth_dict(rng, 3))
    lin2 = cm.linear_map(2)
    c2 = build(conjugated_dict({"kind": "linear", "degree": 2}, homeo_dict(rng, "sine")))
    c3 = build(conjugated_dict(pl_dict(rng, 3), homeo_dict(rng, "compose")))
    for spec in (s2, s3, c2, c3):
        reach_tol(spec, SMOOTH_TOL)
    wl.specs = [s2, s3, c2, c3, lin2]
    ops = wl.op_list
    lv = SMOOTH_LEVEL
    ops += [
        Op("cells", "level_endpoints", lambda: sp.level_endpoints(s2, lv["s2"]),
           lambda e: check_level(s2, lv["s2"], e), lambda e: 2 ** lv["s2"]),
        Op("cells", "level_endpoints", lambda: sp.level_endpoints(c2, lv["c2"]),
           lambda e: check_level(c2, lv["c2"], e), lambda e: 2 ** lv["c2"]),
        Op("cells", "endpoint_table", lambda: cj.endpoint_table(c2, lin2, lv["c2"]),
           lambda tb: check_table(c2, lin2, lv["c2"], tb), lambda tb: 2 * 2 ** lv["c2"]),
    ]
    _add_cells(ops, s3, c3, lv["c3"], coarse=1)
    ops.append(Op("cells", "bounded_geometry_constant", lambda: sp.bounded_geometry_constant(s2, lv["s2"] - 1),
                  lambda v: check_bg(s2, lv["s2"] - 1, v), lambda v: _cells_bg(s2, lv["s2"] - 1)))
    xs = grid(256)
    ops.append(_conj_op(c2, lin2, xs, SMOOTH_TOL, np.arange(0)))
    ops.append(Op("conj", "conjugacy_residual", lambda: cj.conjugacy_residual(c2, lin2, 32, tol=SMOOTH_TOL),
                  check_residual, lambda r: 2 * r.grid_size if r.tol_met_all else 0))
    ops.append(Op("cells", "verify_markov", lambda: sp.verify_markov(c2, lv["c2"] - 1),
                  lambda r: check_markov(c2, lv["c2"] - 1, r), lambda r: 2 ** (lv["c2"] - 1)))
    pts = np.sort(rng.uniform(0.0, 1.0, 256))
    ops.append(_itin_op(s2, pts, 20, _sample(rng, pts.size, 12)))
    pts3 = np.sort(rng.uniform(0.0, 1.0, 64))
    ops.append(_itin_op(c3, pts3, 12, _sample(rng, pts3.size, 6)))
    ops += _analysis_ops(rng, s2, 256, sp.Word((int(rng.integers(2)),)), 10, 8)
    ops += _analysis_ops(rng, c2, 256, sp.Word((0, 1)), 5, 6)
    ops += [_symmetry_op(c3.homeo), _qs_op(rng, c3.homeo)]
    wl.spot = spot_inverse_checks(wl.specs, rng)
    return wl


# ---------------------------------------------------------------------------
# Interactive: single-point queries and CLI commands on fresh specs
# ---------------------------------------------------------------------------

def _read_report(path: str, as_json: bool) -> list[list[str]]:
    with open(path) as fh:
        if as_json:
            return [[str(v) for v in row] for row in json.load(fh)["rows"]]
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    return list(csv.reader(lines))[1:]


def _rows_equal(got: list[list[str]], want: list[tuple]) -> list[str]:
    if len(got) != len(want):
        return [f"report has {len(got)} rows, library gives {len(want)}"]
    for r, (g_row, w_row) in enumerate(zip(got, want)):
        if len(g_row) != len(w_row):
            return [f"report row {r} has {len(g_row)} columns, library gives {len(w_row)}"]
        for g_val, w_val in zip(g_row, w_row):
            ok = float(g_val) == w_val if isinstance(w_val, float) else g_val == str(w_val)
            if not ok:
                return [f"report row {r}: {g_val!r} != library {w_val!r}"]
    return []


@dataclass
class Interactive:
    """Each pass issues a fixed schedule of requests on freshly drawn specs."""

    seed: int
    workdir: str
    name: str = "interactive"
    specs: list = field(default_factory=list)
    spot: list[Op] = field(default_factory=list)
    check_every_pass = True

    def warm_up(self) -> None:
        """Nothing: cold caches are what this workload measures."""

    def _spec_file(self, tag: str, data: dict) -> str:
        path = os.path.join(self.workdir, f"{tag}.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        return path

    def _command(self, tag: str, argv: list[str], as_json: bool, expected) -> Op:
        out = os.path.join(self.workdir, f"{tag}.out")
        argv = argv + ["--out", out] + (["--json"] if as_json else [])
        state = {}

        def check(code):
            if code != 0:
                return [f"circledyn {' '.join(argv)} exited {code}"]
            got = _read_report(out, as_json)
            state["rows"] = len(got)
            return _rows_equal(got, expected())

        return Op("report", argv[0] if argv[0] != "analyze" else f"analyze {argv[1]}",
                  lambda: cli.main(argv), check, lambda code: state.get("rows", 0))

    def ops(self, pass_index: int) -> list[Op]:
        """The request schedule is fixed (kind, degree and size per slot); the
        spec parameters and query points are drawn fresh for every request."""
        rng = np.random.default_rng([self.seed, 3, pass_index])
        ops: list[Op] = []

        def fresh(kind: str, d: int, base: str = "linear", homeo: str = "sine") -> dict:
            if kind == "pl":
                return pl_dict(rng, d)
            if kind == "smooth":
                return smooth_dict(rng, d)
            base_dict = {"kind": "linear", "degree": d} if base == "linear" else pl_dict(rng, d)
            return conjugated_dict(base_dict, homeo_dict(rng, homeo))

        def query(name, fn, check):
            ops.append(Op("query", name, fn, check))

        for data in (fresh("smooth", 2), fresh("conjugated", 3, "pl", "compose")):
            spec, x = build(data), float(rng.uniform(-2.0, 2.0))
            query("eval_lift", lambda spec=spec, x=x: cm.eval_lift(spec, x),
                  lambda v, spec=spec, x=x: _err("|F(x) - mp|", abs(v - float(oracle.mp_lift(spec, x))), SOLVED_ABS))
        for data in (fresh("pl", 3), fresh("smooth", 3)):
            spec = build(data)
            b, y = int(rng.integers(spec.degree)), float(rng.uniform())
            query("inverse_branch", lambda spec=spec, b=b, y=y: cm.inverse_branch(spec, b, y),
                  lambda v, spec=spec, b=b, y=y: _err(
                      "|inverse branch - mp|", abs(v - float(oracle.mp_inverse_branch(spec, b, y))), 1e-12))
        for data in (fresh("smooth", 2), fresh("pl", 2)):
            spec, x = build(data), float(rng.uniform())
            query("word_of_point", lambda spec=spec, x=x: sp.word_of_point(spec, x, 15),
                  lambda w, spec=spec, x=x: [] if oracle.word_matches(
                      list(w.symbols), *oracle.mp_word(spec, x, 15)) else [f"word of {x!r} differs from exact"])
        for data, level in ((fresh("conjugated", 2), 10), (fresh("pl", 3), 20)):
            spec = build(data)
            word = sp.Word(tuple(int(s) for s in rng.integers(spec.degree, size=level)))

            def check_cyl(c, spec=spec, word=word):
                lo, hi = oracle.mp_cylinder(spec, word)
                limit = AFFINE_ABS if oracle.is_affine(spec) else SOLVED_ABS
                return _err("|cylinder - mp|", max(abs(c.left - float(lo)), abs(c.right - float(hi))), limit)

            query("interval_of_word", lambda spec=spec, word=word: sp.interval_of_word(spec, word), check_cyl)
        pf, pg, x = build(fresh("pl", 2)), build(fresh("pl", 2)), float(rng.uniform())
        query("conjugacy_eval", lambda: cj.conjugacy_eval(pf, pg, x, tol=PL_TOL),
              lambda e: check_enclosures(pf, pg, np.asarray([x]), PL_TOL, _enclosure_arrays(e), np.arange(1)))
        cf, cx = build(fresh("conjugated", 2)), float(rng.uniform())
        lin = cm.linear_map(2)
        query("conjugacy_eval", lambda: cj.conjugacy_eval(cf, lin, cx, tol=SMOOTH_TOL),
              lambda e: check_enclosures(cf, lin, np.asarray([cx]), SMOOTH_TOL, _enclosure_arrays(e), np.arange(0)))
        for data, n in ((fresh("smooth", 3), 10), (fresh("conjugated", 2, "pl"), 6)):
            spec, y = build(data), float(rng.uniform(-1.0, 3.0))
            query("global_inverse_lift", lambda spec=spec, y=y, n=n: cm.global_inverse_lift(spec, y, n),
                  lambda v, spec=spec, y=y, n=n: _err(
                      "|F^-n(y) - mp|", abs(v - float(oracle.mp_global_inverse(spec, y, n))), SOLVED_ABS))
        ops += self._commands(rng, pass_index, fresh)
        return ops

    def _commands(self, rng, p: int, fresh) -> list[Op]:
        ops = []
        tag = f"p{p}"

        def spec_file(name: str, data: dict):
            return self._spec_file(f"{tag}_{name}", data), cm.map_spec_from_dict(data)

        def command(name: str, argv: list[str], as_json: bool, expected) -> None:
            ops.append(self._command(f"{tag}_{name}", argv, as_json, expected))

        path, spec = spec_file("validate", fresh("conjugated", 3, "pl", "compose"))
        command("validate", ["validate", "--map", path], False,
                lambda spec=spec: [(v.code, v.message, "" if v.location is None else v.location)
                                   for v in cm.validate(spec).violations])
        path, spec = spec_file("partition", fresh("pl", 2))
        command("partition", ["partition", "--map", path, "--level", "9"], False,
                lambda spec=spec: [(c.word.to_text(), c.left, c.right, c.length) for c in sp.enumerate_level(spec, 9)])
        (pf, f), (pg, g) = spec_file("conj_f", fresh("pl", 3)), spec_file("conj_g", fresh("pl", 3))
        xs = grid(64)
        command("conjugacy", ["conjugacy", "--from", pf, "--to", pg, "--grid", "64"], True,
                lambda f=f, g=g: list(zip(xs.tolist(), *[a.tolist() for a in cj.conjugacy_enclosures(f, g, xs)[:3]])))
        (sf, f), (sg, g) = spec_file("table_f", fresh("smooth", 2)), spec_file("table_g", fresh("smooth", 2))
        command("table", ["conjugacy", "--from", sf, "--to", sg, "--level", "6"], False,
                lambda f=f, g=g: _table_rows(f, g, 6))
        path, spec = spec_file("measure", fresh("smooth", 3))
        iv = an.dyadic_intervals(64)
        command("measure", ["analyze", "measure", "--map", path, "--intervals", "dyadic:64"], False,
                lambda spec=spec: [(a, b, float(v)) for (a, b), v in zip(iv, an.measure_profile(spec, iv))])
        path, spec = spec_file("uqs", fresh("pl", 2))
        x, t = float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.05, 0.1))
        command("uqs", ["analyze", "uqs", "--map", path, "--x", repr(x), "--t", repr(t), "--n", "6"], True,
                lambda spec=spec: [(n, x, t, an.uqs_ratio_endo(spec, x, t, n)) for n in range(1, 7)])
        path, spec = spec_file("tailsum", fresh("smooth", 2))
        command("tailsum", ["analyze", "tailsum", "--map", path, "--word", "0", "--kmax", "8"], False,
                lambda spec=spec: [(r.k, r.excluded_sum, r.bound_empirical, r.bound_bg_constant, r.interval_count)
                                   for r in an.tail_sum(spec, sp.Word((0,)), 8).rows])
        (pf, f), (pg, g) = spec_file("phi_f", fresh("pl", 3)), spec_file("phi_g", fresh("pl", 3))
        command("phi", ["analyze", "phi", "--from", pf, "--to", pg, "--level", "5"], False,
                lambda f=f, g=g: _phi_rows(f, g, 5))
        return ops


def _table_rows(f, g, n: int) -> list[tuple]:
    table = cj.endpoint_table(f, g, n)
    words = cj.table_words(table, f.degree)
    return [
        (words[j].to_text() if j < len(words) else "", fp, gp)
        for j, (fp, gp) in enumerate(table.pairs())
    ]


def _phi_rows(f, g, level: int) -> list[tuple]:
    rows = []
    for n in range(1, level + 1):
        r = an.dilatation_report(f, g, n)
        rows.append((n, r.max_ratio, r.argmax_word.to_text(), r.min_ratio, r.argmin_word.to_text()))
    return rows


def _enclosure_arrays(e) -> tuple:
    return (np.asarray([e.lo]), np.asarray([e.hi]), np.asarray([e.depth]), np.asarray([e.tol_met]))


# ---------------------------------------------------------------------------
# Acceptance: the repro suite, in process
# ---------------------------------------------------------------------------

@dataclass
class Acceptance:
    workdir: str
    name: str = "acceptance"
    specs: list = field(default_factory=list)
    spot: list[Op] = field(default_factory=list)
    # criteria 1 and 4 have runtime thresholds, so any pass may fail them
    check_every_pass = True

    def warm_up(self) -> None:
        """Nothing: the suite builds its own maps."""

    def ops(self, pass_index: int) -> list[Op]:
        out = os.path.join(self.workdir, "repro.csv")
        argv = ["repro", "all", "--out", out]

        def check(code) -> list[str]:
            rows = _read_report(out, as_json=False)
            fails = [f"criterion {r[0]} FAIL: {r[2]} (needs {r[3]}) {r[5]}" for r in rows if r[4] != "pass"]
            if len(rows) != len(repro.ALL_CRITERIA):
                fails.append(f"{len(rows)} criteria reported")
            if code != 0 and not fails:
                fails.append(f"repro all exited {code}")
            return fails

        return [Op("acceptance", "repro all", lambda: cli.main(argv), check, count=len(repro.ALL_CRITERIA))]


def make(name: str, seed: int, workdir: str):
    seed %= 2**64  # numpy seed sequences take non-negative integers only
    if name == "pl_batch":
        return pl_batch(seed)
    if name == "smooth_batch":
        return smooth_batch(seed)
    if name == "interactive":
        return Interactive(seed, workdir)
    if name == "acceptance":
        return Acceptance(workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("pl_batch", "smooth_batch", "interactive", "acceptance")
