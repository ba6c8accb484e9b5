"""Distortion and regularity measurements for circle maps and conjugacies.

Everything here reports sampled quantities: moduli are maxima over finite
grids of points and scales, dilatation extremes run over cylinder intervals of
one level, and tail sums are either closed forms (piecewise-linear maps) or
full enumerations.  Sampled maxima are lower bounds for the true suprema and
sampled minima are upper bounds; every report says which grid produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import defaults
from .circle_maps import (
    CircleHomeoSpec,
    CircleMapSpec,
    chain_error_bound,
    ensure_valid,
    ensure_valid_homeo,
    homeo_lift_values,
    inverse_branch_values,
    inverse_orbit,
    is_closed_form,
)
from .conjugacy import ConjugacyMap, _check_pair
from .errors import (
    DepthCapExceeded,
    ResolutionExhausted,
    WorkCapExceeded,
)
from .symbolic_partition import (
    Word,
    check_word,
    cylinder_lengths,
    descent_ratio,
    index_of_word,
    iter_levels,
    level_lengths,
    level_words,
    word_of_index,
)

LiftLike = CircleHomeoSpec | ConjugacyMap | Callable[[np.ndarray], np.ndarray]
# grid points per lift evaluation in symmetry_modulus (whole rows, at least one)
_MODULUS_BATCH = 2**15


def _lift_fn(h: LiftLike) -> tuple[Callable[[np.ndarray], np.ndarray], str]:
    """Adapt a homeo spec (validated first), conjugacy, or raw callable to a vectorized lift."""
    if isinstance(h, CircleHomeoSpec):
        ensure_valid_homeo(h)
        return (lambda x: homeo_lift_values(h, x)), h.describe()
    if isinstance(h, ConjugacyMap):
        return h.lift_values, h.describe()
    if callable(h):
        fn = h

        def wrapped(x: np.ndarray) -> np.ndarray:
            out = fn(np.asarray(x, dtype=float))
            return np.asarray(out, dtype=float)

        return wrapped, getattr(h, "__name__", "callable")
    raise TypeError(f"not an evaluable circle homeomorphism: {type(h).__name__}")


# ---------------------------------------------------------------------------
# Quasisymmetry / symmetry of homeomorphisms
# ---------------------------------------------------------------------------

def _check_finite(**values: float) -> None:
    """Reject a non-finite argument with a ValueError that names it."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def qs_ratio(
    h: LiftLike,
    x: float,
    t: float,
) -> float:
    """Distortion ratio ``(H(x+t) - H(x)) / (H(x) - H(x-t))`` of the lift.

    Raises:
        ResolutionExhausted: the denominator fell below ``QS_DENOM_FLOOR``
            (the measurement resolution is used up at this scale).
        ValueError: ``x`` or ``t`` is not finite, or ``t <= 0``.
        InvalidMapError: ``h`` is a homeomorphism spec that fails validation.
    """
    _check_finite(x=x, t=t)
    if t <= 0:
        raise ValueError("t must be positive")
    fn, _ = _lift_fn(h)
    vals = fn(np.asarray([x + t, x, x - t], dtype=float))
    num = float(vals[0] - vals[1])
    den = float(vals[1] - vals[2])
    if den < defaults.QS_DENOM_FLOOR:
        raise ResolutionExhausted(f"denominator {den:.3e} below floor at x={x}, t={t}")
    return num / den


@dataclass(frozen=True)
class ModulusRow:
    scale: float
    deviation: float
    argmax_x: float


@dataclass(frozen=True)
class ModulusReport:
    """Sampled symmetry modulus: for each scale t the worst deviation
    ``max(r - 1, 1/r - 1)`` of the distortion ratio r over the x-grid.

    Sampled maxima are lower bounds for the true modulus.
    """

    subject: str
    grid: int
    rows: tuple[ModulusRow, ...]

    def __post_init__(self):
        scales = [row.scale for row in self.rows]
        if any(b >= a for a, b in zip(scales, scales[1:])):
            raise ValueError("scales must be strictly decreasing")

    def worst(self) -> float:
        return max((row.deviation for row in self.rows), default=0.0)


def symmetry_modulus(
    h: LiftLike,
    scales: Sequence[float] = defaults.SCALE_LADDER,
    grid: int = defaults.MODULUS_GRID,
) -> ModulusReport:
    """Sampled symmetry modulus of an evaluable circle homeomorphism.

    Raises:
        ResolutionExhausted: some increment at some grid point vanished.
        ValueError: a scale that is NaN or outside (0, 0.5], or grid < 1.
        InvalidMapError: ``h`` is a homeomorphism spec that fails validation.
    """
    if grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    fn, subject = _lift_fn(h)
    scales = [float(t) for t in scales]
    # written so that NaN fails it
    if not scales or not all(0.0 < t <= 0.5 for t in scales):
        raise ValueError("scales must lie in (0, 0.5]")
    ladder = sorted(set(scales), reverse=True)
    xs = np.arange(grid, dtype=float) / grid
    # rows xs, xs + t1, xs - t1, xs + t2, ..., evaluated together in batches of
    # whole rows: a conjugacy's working set grows with the points per call
    shifts = np.array([0.0] + [s for t in ladder for s in (t, -t)])
    points = xs + shifts[:, None]
    step = max(1, _MODULUS_BATCH // grid)
    values = np.concatenate(
        [fn(points[i : i + step].reshape(-1)) for i in range(0, shifts.size, step)]
    ).reshape(shifts.size, grid)
    mid = values[0]
    rows = []
    for t, plus, minus in zip(ladder, values[1::2], values[2::2]):
        num = plus - mid
        den = mid - minus
        if float(np.min(den)) < defaults.QS_DENOM_FLOOR or float(np.min(num)) < defaults.QS_DENOM_FLOOR:
            raise ResolutionExhausted(f"increment below floor at scale t={t}")
        ratio = num / den
        dev = np.maximum(ratio - 1.0, 1.0 / ratio - 1.0)
        j = int(np.argmax(dev))
        rows.append(ModulusRow(scale=t, deviation=float(dev[j]), argmax_x=float(xs[j])))
    return ModulusReport(subject=subject, grid=grid, rows=tuple(rows))


# ---------------------------------------------------------------------------
# Uniform quasisymmetry of endomorphisms
# ---------------------------------------------------------------------------

def _check_uqs_request(spec: CircleMapSpec, x: float, t: float) -> None:
    _check_finite(x=x, t=t)
    if t <= 0:
        raise ValueError("t must be positive")
    ensure_valid(spec)


def _uqs_ratio(values: list[float], x: float, t: float, n: int) -> float:
    """The ratio from ``[F^{-n}(x+t), F^{-n}(x), F^{-n}(x-t)]``."""
    plus, mid, minus = values
    den = mid - minus
    if den < defaults.QS_DENOM_FLOOR:
        raise ResolutionExhausted(f"denominator {den:.3e} below floor at x={x}, t={t}, n={n}")
    return (plus - mid) / den


def uqs_ratio_endo(
    spec: CircleMapSpec,
    x: float,
    t: float,
    n: int,
    depth_cap: int = defaults.DEPTH_CAP,
) -> float:
    """Distortion ratio of the n-fold inverse lift,
    ``(F^{-n}(x+t) - F^{-n}(x)) / (F^{-n}(x) - F^{-n}(x-t))``.

    The three points share one inverse orbit (:func:`inverse_orbit`), which
    solves once per step for all three.

    Raises:
        ValueError: ``x`` or ``t`` is not finite, or ``t <= 0``.
        ResolutionExhausted: the denominator fell below ``QS_DENOM_FLOOR``.
    """
    _check_uqs_request(spec, x, t)
    *_, last = inverse_orbit(spec, (x + t, x, x - t), n, depth_cap=depth_cap)
    return _uqs_ratio(last, x, t, n)


def iter_uqs_ratios(
    spec: CircleMapSpec,
    x: float,
    t: float,
    n_max: int,
    depth_cap: int = defaults.DEPTH_CAP,
) -> Iterator[float]:
    """``uqs_ratio_endo(spec, x, t, n)`` for n = 1..n_max, from one inverse orbit.

    The ratios equal the per-n calls bit for bit, and the whole walk costs
    n_max steps of one 3-wide orbit, as much as the deepest call alone.  As
    the per-n loop would, it raises :class:`ResolutionExhausted` at the first
    n whose denominator is below the floor, and :class:`DepthCapExceeded` at
    n = depth_cap + 1.

    Raises:
        ValueError: ``x`` or ``t`` is not finite, or ``t <= 0``, before the
            first ratio.
    """
    _check_uqs_request(spec, x, t)
    reach = min(n_max, depth_cap)
    if reach >= 1:
        orbit = inverse_orbit(spec, (x + t, x, x - t), reach, depth_cap=depth_cap)
        for n, values in enumerate(orbit, 1):
            yield _uqs_ratio(values, x, t, n)
    if n_max > depth_cap:
        raise DepthCapExceeded(f"inverse depth {depth_cap + 1} exceeds cap {depth_cap}")


# ---------------------------------------------------------------------------
# Lebesgue measure preservation
# ---------------------------------------------------------------------------

def dyadic_intervals(count: int) -> list[tuple[float, float]]:
    """The ``count`` equal test intervals ``[k/count, (k+1)/count]``."""
    return [(k / count, (k + 1) / count) for k in range(count)]


def measure_profile(
    spec: CircleMapSpec,
    intervals: Sequence[tuple[float, float]],
) -> np.ndarray:
    """Per-interval deviation ``| |f^{-1}([a,b])| - (b-a) |``.

    The preimage length is the sum of the d branch-inverse lengths; checking
    intervals probes measure preservation on a generating family.  One
    inverse-branch call covers every branch and both ends.

    Raises:
        ValueError: an empty list, or an interval end that is not finite or
            an interval that is not a nondegenerate subinterval of [0, 1].
    """
    ensure_valid(spec)
    if len(intervals) == 0:
        raise ValueError("interval list is empty")
    a = np.asarray([iv[0] for iv in intervals], dtype=float)
    b = np.asarray([iv[1] for iv in intervals], dtype=float)
    # written so that NaN fails it
    if not np.all((0.0 <= a) & (a < b) & (b <= 1.0)):
        raise ValueError("intervals must be nondegenerate subintervals of [0,1]")
    branches = np.arange(spec.degree)[:, None, None]
    ends = inverse_branch_values(spec, branches, np.stack([b, a]))
    total = np.zeros_like(a)
    for s in range(spec.degree):
        total += ends[s, 0]
        total -= ends[s, 1]
    return np.abs(total - (b - a))


def measure_deviation(spec: CircleMapSpec, intervals: Sequence[tuple[float, float]]) -> float:
    """Worst deviation from Lebesgue-measure preservation over the intervals."""
    return float(np.max(measure_profile(spec, intervals)))


# ---------------------------------------------------------------------------
# Dilatation extremes of a conjugacy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DilatationReport:
    """Extremes of ``|h(I_w)| / |I_w|`` over the level-n cylinders.

    ``max_ratio`` is nondecreasing and ``min_ratio`` nonincreasing in n (each
    parent ratio is a length-weighted mean of its child ratios); the argmax
    word is one witness interval of the maximizing sequence.  A witness is
    the first word in lexicographic order whose ratio ties the extreme within
    the error radius of the computed lengths, so its own ratio may differ
    from ``max_ratio`` (``min_ratio``) by up to that radius.  ``coarse_max``
    holds, for each level-m cell, the maximum ratio over its level-n
    descendants: an empirical density probe for the maximizing set.
    """

    level: int
    max_ratio: float
    min_ratio: float
    argmax_word: Word
    argmin_word: Word
    coarse_level: int
    coarse_max: tuple[tuple[Word, float], ...]


def _min_tie_threshold(bottom: float, err_f: float, err_g: float, floor: float) -> float:
    """A float that no ratio able to tie the smallest one, ``bottom``, exceeds.

    Rounding is monotone and each ``den >= floor``, and ``fl(x) = x(1 + e) + t``
    with ``|e| <= u = 2**-53`` and ``|t| <= tiny``, the least subnormal, so a
    computed radius is at most ``a + b*q`` with ``c >= (1 + u)**3``, ``a =
    c*2*(err_g + tiny)/floor + tiny`` and ``b = c*2*err_f/floor``.  A ratio q
    ties the minimum only if ``q - a - b*q <= S(1 + u)``, S the computed ``bottom
    + radius(bottom)``: so ``q <= (c*S + a)/(1 - b)``, rounded outward here.
    """
    if not floor > 0.0:  # a length under its own error ties everything
        return math.inf

    def up(x: float) -> float:  # the float after x: above the exact value that rounded to x
        return math.nextafter(x, math.inf)

    c, tiny = 1.0 + 2.0**-51, 5e-324
    s = bottom + 2.0 * (err_g + bottom * err_f) / floor
    b = up(up(c * 2.0 * err_f) / floor)
    a = up(up(up(c * 2.0 * up(err_g + tiny)) / floor) + tiny)
    return up(up(up(c * s) + a) / math.nextafter(1.0 - b, 0.0)) if b < 1.0 else math.inf


def _dilatation(
    len_f: np.ndarray,
    len_g: np.ndarray,
    n: int,
    coarse_level: int,
    d: int,
    err_f: float,
    err_g: float,
) -> DilatationReport:
    """The report of one level from the two maps' level-n cylinder lengths; the ratios overwrite ``len_g``.

    ``err_f`` and ``err_g`` bound the error of every computed level-n
    endpoint, so each length is off by at most twice that, and each ratio by
    at most its radius ``2*(err_g + ratio*err_f)/(len_f - 2*err_f)``.  A
    ratio ties the maximum when it is within its radius of the highest lower
    end ``max(ratio - radius)``, so that it could be the largest true ratio
    (the minimum likewise).  The witness is the lowest word index among the
    tied ones (the lexicographic rule), so mirror cylinders of equal true
    length do not swap with rounding noise.

    Raises:
        ResolutionExhausted: some f-cylinder has no positive computed length.
    """
    shortest = float(np.min(len_f))
    if not shortest > 0.0:
        raise ResolutionExhausted(f"f-cylinder of level {n} has computed length {shortest:.3e}")
    ratios = np.divide(len_g, len_f, out=len_g)
    top, bottom = float(np.max(ratios)), float(np.min(ratios))
    floor = shortest - 2.0 * err_f
    # every radius is at most ``bound``, so only ratios within 2*bound of the
    # top can tie it; the exact radii are taken on those alone
    bound = 2.0 * (err_g + top * err_f) / floor if floor > 0.0 else math.inf

    def first_tied(near: np.ndarray, sign: float) -> int:
        """The lowest index in ``near`` that may be the extreme (sign 1: max, -1: min)."""
        if near.size == 1:  # the extreme itself, alone: no radius can change that
            return int(near[0])
        q = ratios[near]
        with np.errstate(divide="ignore"):  # a length under its own error ties everything
            radius = 2.0 * (err_g + q * err_f) / np.maximum(len_f[near] - 2.0 * err_f, 0.0)
        r = sign * q
        # argmax of a mask is its first True: the lowest tied index
        return int(near[np.argmax(r + radius >= np.max(r - radius))])

    jmax = first_tied(np.flatnonzero(ratios >= top - 2.0 * bound), 1.0)
    jmin = first_tied(np.flatnonzero(ratios <= _min_tie_threshold(bottom, err_f, err_g, floor)), -1.0)
    cells = d**coarse_level
    per_cell = ratios.reshape(cells, -1).max(axis=1)
    coarse = tuple(zip(level_words(coarse_level, d), per_cell.tolist()))
    return DilatationReport(
        level=n,
        max_ratio=top,
        min_ratio=bottom,
        argmax_word=word_of_index(jmax, n, d),
        argmin_word=word_of_index(jmin, n, d),
        coarse_level=coarse_level,
        coarse_max=coarse,
    )


def dilatation_report(
    f: CircleMapSpec,
    g: CircleMapSpec,
    n: int,
    coarse_level: int = 0,
    cell_cap: int = defaults.CELL_CAP,
) -> DilatationReport:
    """Ratios ``|I_w(g)| / |I_w(f)|`` over all level-n words.

    Word equivariance of the conjugacy makes ``h(I_w(f)) = I_w(g)`` exactly,
    so cylinder ratios are computed from the two partitions alone.

    Raises:
        DegreeMismatchError, CellCapExceeded, ValueError (coarse_level >= n),
        ResolutionExhausted (an f-cylinder computes as zero length).
    """
    _check_pair(f, g)
    if not 0 <= coarse_level < n:
        raise ValueError("need 0 <= coarse_level < n")
    len_f = cylinder_lengths(f, n, cell_cap=cell_cap)
    len_g = cylinder_lengths(g, n, cell_cap=cell_cap)
    err_f, err_g = (chain_error_bound(spec, n)[n] for spec in (f, g))
    return _dilatation(len_f, len_g, n, coarse_level, f.degree, err_f, err_g)


def iter_dilatation_reports(
    f: CircleMapSpec,
    g: CircleMapSpec,
    n: int,
    cell_cap: int = defaults.CELL_CAP,
) -> Iterator[DilatationReport]:
    """``dilatation_report(f, g, k)`` for k = 1..n, from one level walk per map.

    Each map's levels come from a single :func:`iter_levels` walk, so the
    reports equal the per-level calls bit for bit and cost about as much as
    the deepest level alone.

    Raises:
        DegreeMismatchError, CellCapExceeded, ValueError (n < 0), all before
        the first report; ResolutionExhausted at the first level where an
        f-cylinder computes as zero length.
    """
    _check_pair(f, g)
    walks = (iter_levels(spec, n, cell_cap=cell_cap) for spec in (f, g))
    err_f, err_g = (chain_error_bound(spec, n) for spec in (f, g))
    for k, (lefts_f, lefts_g) in enumerate(zip(*walks), 1):
        yield _dilatation(level_lengths(lefts_f), level_lengths(lefts_g), k, 0, f.degree, err_f[k], err_g[k])


# ---------------------------------------------------------------------------
# Tail sums over words avoiding a fixed block
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailSumRow:
    k: int
    excluded_sum: float
    bound_empirical: float
    bound_bg_constant: float
    interval_count: int


@dataclass(frozen=True)
class TailSumReport:
    """Total lengths of level-nk cylinders whose k blocks all avoid one word.

    ``excluded_sum`` at stage k is also the Lebesgue measure of the stage-k
    cover of the set of points whose orbit never enters the base cylinder at
    block times.  ``ratio_floor`` is the smallest observed n-level descent
    ratio (the sharp empirical bound constant); ``bg_ratio_floor`` is the
    looser constant ``C^{-n}`` from the observed bounded-geometry constant C.
    """

    word: Word
    block_level: int
    ratio_floor: float
    bg_ratio_floor: float
    method: str
    rows: tuple[TailSumRow, ...]


def tail_sum(
    spec: CircleMapSpec,
    word: Word,
    k_max: int,
    work_cap: int = defaults.WORK_CAP,
    cell_cap: int = defaults.CELL_CAP,
) -> TailSumReport:
    """Tail sums ``S_k`` for blocks avoiding ``word``, with decay bounds.

    Piecewise-linear maps use the product-of-lengths closed form
    ``S_k = (1 - |I_w|)^k``; other kinds enumerate all level-nk cylinders and
    mask by block digits.  The enumeration streams one level walk that holds
    the current level, its lengths, the previous and block-parent lengths and
    a bool mask: its peak, level solve included, is about 2.8 level-nk arrays.

    Raises:
        WorkCapExceeded: ``(d^n - 1)^k_max`` excluded tuples exceed the cap.
        CellCapExceeded: the enumeration needs more than ``cell_cap`` cells.
    """
    ensure_valid(spec)
    check_word(spec, word)
    n = word.level
    if n < 1:
        raise ValueError("base word must be nonempty")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    d = spec.degree
    tuples_capped = (d**n - 1) ** k_max
    if tuples_capped > work_cap:
        raise WorkCapExceeded(
            f"({d}^{n} - 1)^{k_max} = {tuples_capped} excluded tuples exceed work cap {work_cap}"
        )
    if not is_closed_form(spec):
        return _enumerated_tail_sum(spec, word, k_max, cell_cap)
    lengths1 = cylinder_lengths(spec, 1, cell_cap=cell_cap)
    base_len = float(np.prod([lengths1[s] for s in word.symbols]))
    floor = float(np.min(lengths1)) ** n  # also C^-n: C = 1/min branch length for these maps
    sums = [((1.0 - base_len) ** k, (d**n - 1) ** k) for k in range(1, k_max + 1)]
    return _tail_sum_report(word, floor, floor, sums, "closed_form")


def _enumerated_tail_sum(spec: CircleMapSpec, word: Word, k_max: int, cell_cap: int) -> TailSumReport:
    """:func:`tail_sum` by enumeration, for any map kind: one level walk gives
    the parent/child ratios at every level and, at each block level, the
    n-level descent ratios and the sum over the words avoiding the block."""
    d, n = spec.degree, word.level
    # the last n digits of a level-nk index are its residue mod d^n
    avoids = np.arange(d**n) != index_of_word(word, d)
    prev = parent = np.ones(1)
    mask = np.ones(1, dtype=bool)
    sums = []
    bg_worst = ratio_floor = 1.0
    for level, lefts in enumerate(iter_levels(spec, n * k_max, cell_cap=cell_cap), 1):
        lengths = level_lengths(lefts)
        bg_worst = max(bg_worst, descent_ratio(prev, lengths))
        prev = lengths
        if level % n == 0:
            ratio_floor = min(ratio_floor, descent_ratio(parent, lengths, floor=True))
            parent = lengths
            mask = (mask[:, None] & avoids).reshape(-1)
            sums.append((float(np.sum(lengths[mask])), int(np.count_nonzero(mask))))
    return _tail_sum_report(word, ratio_floor, bg_worst**-n, sums, "enumeration")


def _tail_sum_report(word: Word, ratio_floor: float, bg_floor: float, sums, method: str) -> TailSumReport:
    """The report of the ``(excluded_sum, interval_count)`` pairs for k = 1, 2, ..."""
    rows = tuple(
        TailSumRow(
            k=k,
            excluded_sum=excluded,
            bound_empirical=(1.0 - ratio_floor) ** k,
            bound_bg_constant=(1.0 - bg_floor) ** k,
            interval_count=count,
        )
        for k, (excluded, count) in enumerate(sums, 1)
    )
    return TailSumReport(
        word=word, block_level=word.level, ratio_floor=ratio_floor, bg_ratio_floor=bg_floor, method=method, rows=rows
    )
