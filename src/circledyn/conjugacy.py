"""Topological conjugacy between two circle endomorphisms of the same degree.

For full-branch maps ``f`` and ``g`` of degree d, the conjugacy ``h`` with
``h o f = g o h`` and ``h(0) = 0`` maps every f-cylinder onto the g-cylinder
of the same word.  Point values are therefore computed by word matching: refine
the word of x under f until the g-cylinder of that word is at most the
requested tolerance wide, and return that computed g-cylinder as the enclosure.
Convergence relies on g's mesh decay; neither map needs to be uniformly
quasisymmetric.

The f-word comes from the refinement kernel shared with itineraries
(:func:`circledyn.symbolic_partition.refine_words`): a word model proposes
each symbol in O(1) per level, and the backward chain decides only the
comparisons the model's error bound cannot settle.  The stop test is modelled
the same way: an affine g-cylinder's width is the product of its level-1
branch widths, and a root-solved g is measured with the chain only once
``(max g')^-k`` no longer rules the tolerance out.  The enclosure itself is one
backward g-chain at the stop depth.  Refining to depth K thus costs O(K)
inverse-branch calls per batch instead of O(K^2), and for affine maps the
enclosures equal those of a full chain per depth bit for bit.

Every point gets the same treatment: a point on an f-division belongs to the
cylinder on its right (ties go right), so its enclosure is a tol-wide
g-cylinder whose left end is the division's g-image.  The exact images of
the level-n divisions are the endpoint table (:func:`endpoint_table`).
:meth:`ConjugacyMap.enclose` is the one reader of h at real points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import defaults
from .circle_maps import CircleMapSpec, _chain_errors, branch_points, ensure_valid, is_closed_form, lift_values, slope_bounds
from .errors import DegreeMismatchError
from .symbolic_partition import (
    Word,
    chain_values,
    check_points,
    level_endpoints,
    level_words,
    ragged_chain_values,
    refine_words,
)

_ENCLOSURE_BLOCK = 2**15


@dataclass(frozen=True)
class ConjugacyEnclosure:
    """The computed g-cylinder of x's f-word (h maps the f-cylinder onto it), with its depth.

    ``lo`` and ``hi`` are the backward-chain values, not yet widened by
    :func:`chain_error_bound`, so each may miss the exact end by that bound
    (ROADMAP item 1).  ``tol_met`` is False when the depth cap stopped
    refinement before the requested width was reached.
    """

    x: float
    lo: float
    hi: float
    depth: int
    tol_met: bool = True

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True, eq=False)
class EndpointTable:
    """Paired level-n endpoints of two maps, in shared word order."""

    level: int
    f_points: np.ndarray
    g_points: np.ndarray

    def __post_init__(self):
        if self.f_points.shape != self.g_points.shape:
            raise ValueError("endpoint arrays must have equal length")
        for name, pts in (("f", self.f_points), ("g", self.g_points)):
            if not np.all(np.diff(pts) > 0):
                raise ValueError(f"{name}-endpoints not strictly increasing")

    def __len__(self) -> int:
        return len(self.f_points)

    def pairs(self) -> Iterator[tuple[float, float]]:
        return zip(self.f_points.tolist(), self.g_points.tolist())


@dataclass(frozen=True)
class ConjugacyResidual:
    """Sup-norm residual of ``h o f = g o h`` on a grid, with error attribution."""

    max_residual: float
    max_enclosure_width: float
    argmax_x: float
    grid_size: int
    tol: float
    tol_met_all: bool


def _check_pair(f: CircleMapSpec, g: CircleMapSpec) -> None:
    """Validate both maps and match their degrees: the one gate of every two-map entry point."""
    ensure_valid(f)
    ensure_valid(g)
    if f.degree != g.degree:
        raise DegreeMismatchError(f"degree {f.degree} vs {g.degree}")


def _check_refinement(tol: float, depth_cap: int) -> None:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    if depth_cap < 0:
        raise ValueError(f"depth_cap must be >= 0, got {depth_cap}")


class _WidthStop:
    """Stop rule of a conjugacy: the g-cylinder of the word is at most tol wide.

    The rule keeps bounds ``lower <= width <= upper`` on the width that the
    backward chain would measure, and runs the chain only where ``tol`` lies
    between them.  An affine g-cylinder's width is the product of the
    level-1 branch widths along the word, off by at most twice the chain's
    error bound and two relative ulps per level.  No cheap model follows a
    root-solved g-cylinder closely, but ``(max g')^-k`` bounds its width from
    below (with no upper bound), so the chain measures it from the depth
    where that bound reaches ``tol`` on.

    The affine bounds at depth k, ``width*(1 +- s) -+ err`` with exact
    ``1 +- s``, ``s = (k+2)*eps``, are ``width -+ err -+ s*width`` rounded
    otherwise.  The 2k+2 roundings of the model and of the chain's measuring
    subtraction need ``(k+1)*eps*width``; the spare ``eps*width`` and err's
    margin (a step allows 4u, a lerp rounds by 3u: 2u >= 2u*width at k >= 1)
    cover the bound's own roundings in either form, and at depth 0 the chain
    measures the model's width.  So sure decisions, stops and enclosures stay.
    """

    def __init__(self, g: CircleMapSpec, m: int, tol: float):
        self.g = g
        self.tol = tol
        self.cuts = np.asarray(branch_points(g), dtype=float)
        self.err = _chain_errors(g)
        if is_closed_form(g):
            self.factors = np.diff(self.cuts)
            self.slack = (np.finfo(float).eps, np.finfo(float).eps)
        else:
            self.factors = np.full(g.degree, 1.0 / slope_bounds(g)[1])
            self.slack = (0.0, np.inf)
        self.width = np.ones(m)

    def __call__(self, k, rows, sel, words) -> np.ndarray:
        self.width *= self.factors[sel]
        err = 2.0 * self.err[k]
        finished = self.width * (1.0 + self.slack[1] * (k + 2)) + err <= self.tol
        lower = self.width * (1.0 - self.slack[0] * (k + 2)) - err
        unsure = np.flatnonzero((lower <= self.tol) & ~finished)
        if unsure.size:
            ends = chain_values(self.g, words[rows[unsure], :k], self.cuts[[sel[unsure], sel[unsure] + 1]])
            finished[unsure] = ends[1] - ends[0] <= self.tol
        return finished

    def keep(self, mask: np.ndarray) -> None:
        self.width = self.width[mask]


def conjugacy_enclosures(
    f: CircleMapSpec,
    g: CircleMapSpec,
    xs: np.ndarray,
    tol: float = 1e-8,
    depth_cap: int = defaults.CONJUGACY_DEPTH_CAP,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized conjugacy enclosures for points of [0,1].

    Returns arrays ``(lo, hi, depth, tol_met)``.  Each point's f-word is
    refined by the shared kernel (:func:`refine_words`) until its g-cylinder
    is at most ``tol`` wide.  The enclosure is then one backward g-chain at
    the stop depth: ``hi - lo`` is the width the stop rule measured, and the
    values are those the per-depth chains gave before, bit for bit.  A point
    on an f-division gets the cylinder on its right, so ``lo`` is the
    division's g-image; :func:`endpoint_table` gives those images alone.
    Each distinct value of ``xs`` is refined once and its enclosure copied
    to every repeat, so the cost follows the distinct points, and distinct
    points are refined in blocks of ``_ENCLOSURE_BLOCK``, which caps the
    working set.

    Raises:
        ValueError: a point is not a finite number in [0,1], tol is negative
            or not finite, or depth_cap is negative.
    """
    xs = check_points(xs, "conjugacy evaluation points")
    if xs.ndim != 1:
        raise ValueError("xs must be one-dimensional")
    _check_refinement(tol, depth_cap)
    _check_pair(f, g)
    # points are refined independently, so refining each distinct value once
    # and copying it back changes no bit (0.0 and -0.0 are one value here,
    # and both are the fixed point 0)
    xs, repeats = np.unique(xs, return_inverse=True)
    m = xs.size
    lo = np.zeros(m)
    hi = np.ones(m)
    depth = np.zeros(m, dtype=np.int64)
    # exact fixed endpoints of the circle
    at_one = xs == 1.0
    lo[at_one] = 1.0
    at_zero = xs == 0.0
    hi[at_zero] = 0.0
    # with depth_cap > 0 every refined point stops at depth 1 or deeper
    live = np.flatnonzero(~(at_one | at_zero)) if tol < 1.0 and depth_cap > 0 else np.arange(0)
    # points are refined independently, so blocks change no bit; they bound the
    # working set (a word row per point, as wide as the deepest stop)
    for start in range(0, live.size, _ENCLOSURE_BLOCK):
        rows = live[start : start + _ENCLOSURE_BLOCK]
        stop = _WidthStop(g, rows.size, tol)
        words, k = refine_words(f, xs[rows], depth_cap, stop)
        last = words[np.arange(rows.size), k - 1]
        # the g-cylinder of the word: the chain of all but the last symbol,
        # applied to the last symbol's branch ends
        lo[rows], hi[rows] = ragged_chain_values(g, words, k - 1, stop.cuts[[last, last + 1]])
        depth[rows] = k
        del words  # else the next block's matrix is built while this one is held
    tol_met = (hi - lo) <= tol
    return lo[repeats], hi[repeats], depth[repeats], tol_met[repeats]


def conjugacy_eval(
    f: CircleMapSpec,
    g: CircleMapSpec,
    x: float,
    tol: float = 1e-8,
    depth_cap: int = defaults.CONJUGACY_DEPTH_CAP,
) -> ConjugacyEnclosure:
    """Enclosure of h(x) for the conjugacy h with ``h o f = g o h`` (see :class:`ConjugacyEnclosure`).

    The word of x under f is refined until the matching g-cylinder is narrower
    than ``tol``.  If the depth cap is reached first, the best enclosure is
    returned with ``tol_met=False`` rather than failing, so sup-norm callers
    can still use the partial answer.

    Raises:
        DegreeMismatchError: maps of different degree.
        InvalidMapError: either map fails validation.
    """
    lo, hi, depth, tol_met = conjugacy_enclosures(f, g, np.asarray([x], dtype=float), tol=tol, depth_cap=depth_cap)
    return ConjugacyEnclosure(
        x=float(x), lo=float(lo[0]), hi=float(hi[0]),
        depth=int(depth[0]), tol_met=bool(tol_met[0]),
    )


class ConjugacyMap:
    """The conjugacy h from the f-system to the g-system as an evaluable lift.

    :meth:`enclose` is the one reader of h at real points; point values are
    its enclosure midpoints at tolerance ``tol``.  The lift extends by
    ``H(x+1) = H(x) + 1``.
    """

    def __init__(
        self,
        f: CircleMapSpec,
        g: CircleMapSpec,
        tol: float = 1e-10,
        depth_cap: int = defaults.CONJUGACY_DEPTH_CAP,
    ):
        _check_refinement(tol, depth_cap)
        _check_pair(f, g)
        self.f = f
        self.g = g
        self.tol = tol
        self.depth_cap = depth_cap

    def enclose(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(lo, hi, tol_met)`` of :func:`conjugacy_enclosures` at ``x`` mod 1, shaped as ``x``.

        Each distinct ``x - floor(x)`` is refined once, so shifted copies of
        one grid (``x + k``, or a symmetry modulus's shifts) cost what the
        distinct points cost; a point that is not finite is refused first."""
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise ValueError("conjugacy evaluation points must be finite")
        lo, hi, _, met = conjugacy_enclosures(
            self.f, self.g, (x - np.floor(x)).reshape(-1), tol=self.tol, depth_cap=self.depth_cap
        )
        return lo.reshape(x.shape), hi.reshape(x.shape), met.reshape(x.shape)

    def lift_values(self, x) -> np.ndarray:
        """Vectorized lift values: the midpoints of :meth:`enclose` plus ``floor(x)``."""
        x = np.asarray(x, dtype=float)
        lo, hi, _ = self.enclose(x)
        return 0.5 * (lo + hi) + np.floor(x)

    def __call__(self, x: float) -> float:
        return float(self.lift_values(np.float64(x)))

    def describe(self) -> str:
        return f"conjugacy({self.f.describe()} -> {self.g.describe()}, tol={self.tol:g})"


def endpoint_table(
    f: CircleMapSpec,
    g: CircleMapSpec,
    n: int,
    cell_cap: int = defaults.CELL_CAP,
) -> EndpointTable:
    """Pair the ordered level-n endpoints of f with those of g (same word order).

    This is the restriction of h to ``f^{-n}(0)``: h maps the k-th f-endpoint
    to the k-th g-endpoint because both lists are ordered by the same words.

    Raises:
        DegreeMismatchError, CellCapExceeded
    """
    _check_pair(f, g)
    return EndpointTable(
        level=n,
        f_points=level_endpoints(f, n, cell_cap=cell_cap),
        g_points=level_endpoints(g, n, cell_cap=cell_cap),
    )


def table_words(table: EndpointTable, degree: int) -> list[Word]:
    """Words labeling the cylinders between consecutive table entries."""
    return level_words(table.level, degree)


def conjugacy_residual(
    f: CircleMapSpec,
    g: CircleMapSpec,
    grid_size: int,
    tol: float = 1e-8,
    depth_cap: int = defaults.CONJUGACY_DEPTH_CAP,
) -> ConjugacyResidual:
    """Max over the grid of the circle distance between h(f(x)) and g(h(x)).

    h-values are enclosure midpoints; the report carries the worst enclosure
    width so callers can attribute the residual to enclosure error.

    Raises:
        ValueError: grid_size < 1, or an invalid tol.
    """
    if grid_size < 1:
        raise ValueError(f"grid_size must be >= 1, got {grid_size}")
    _check_pair(f, g)
    h = ConjugacyMap(f, g, tol=tol, depth_cap=depth_cap)
    xs = np.arange(grid_size, dtype=float) / grid_size
    # points are refined independently, so one call on the grid and its images
    # gives the bits of two calls
    lo, hi, met = h.enclose(np.concatenate((xs, lift_values(f, xs))))
    mid = 0.5 * (lo + hi)
    h_x, h_fx = mid[:grid_size], mid[grid_size:]

    g_hx = lift_values(g, h_x)
    delta = (h_fx - g_hx + 0.5) % 1.0 - 0.5
    residuals = np.abs(delta)
    worst = int(np.argmax(residuals))
    return ConjugacyResidual(
        max_residual=float(residuals[worst]),
        max_enclosure_width=float(np.max(hi - lo)),
        argmax_x=float(xs[worst]),
        grid_size=grid_size,
        tol=tol,
        tol_met_all=bool(np.all(met)),
    )
