"""Nested Markov partitions of a circle endomorphism, indexed by symbol words.

The preimages ``f^{-n}(0)`` of the fixed point cut ``[0,1]`` into ``d^n``
closed cylinder intervals.  A cylinder is labeled by the word
``w = i_0 i_1 ... i_{n-1}``: the itinerary of its points through the level-1
branches.  Cylinders are computed on demand by iterated inverse branches
(right-to-left through the word), so a single deep cylinder costs O(n) root
solves.  Full levels come from :func:`iter_levels`, which computes each
endpoint once: a word ending in symbol 0 shares its parent's left end, so a
level copies its parents and solves only the other children.  Neighbors
share endpoints, which makes the tiling exact by construction.

Itineraries of point batches come from :func:`refine_words`, the refinement
kernel that conjugacy enclosures share: a cheap word model proposes each
symbol and the backward chain decides only the comparisons the model's error
bound leaves open, so refining to depth K costs O(K) inverse-branch calls.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import defaults
from .circle_maps import (
    CircleMapSpec,
    _SOLVER_BLOCK,
    _UNIT_ROUNDOFF,
    _DepthTable,
    _chain_errors,
    branch_points,
    ensure_valid,
    inverse_branch_values,
    chain_error_bound,
    closed_form_cylinder,
    conjugation,
    homeo_lift_values,
    homeo_rounding,
    homeo_slope_bounds,
    is_closed_form,
    lift_slope_values,
    lift_values,
)
from .errors import CellCapExceeded, DepthCapExceeded


# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Word:
    """A finite itinerary over the symbols ``{0, ..., d-1}``; level = length."""

    symbols: tuple[int, ...] = ()

    @classmethod
    def from_text(cls, text: str) -> "Word":
        """Parse a word from digits ('011') or dash-separated symbols ('0-11-3')."""
        text = text.strip()
        if not text:
            return cls(())
        if "-" in text:
            return cls(tuple(int(p) for p in text.split("-")))
        return cls(tuple(int(ch) for ch in text))

    def to_text(self) -> str:
        return _symbols_text(self.symbols)

    @property
    def level(self) -> int:
        return len(self.symbols)

    def extended(self, symbol: int) -> "Word":
        return Word(self.symbols + (int(symbol),))

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __str__(self) -> str:
        return self.to_text() or "<empty>"


def _symbols_text(symbols: tuple[int, ...]) -> str:
    """A word's text: digits when every symbol is at most 9, else dash-separated symbols."""
    if all(s <= 9 for s in symbols):
        return "".join(map(str, symbols))
    return "-".join(map(str, symbols))


def left_shift(word: Word) -> Word:
    """Drop the first symbol: the image word under the map itself.

    Raises:
        ValueError: for the empty word.
    """
    if not word.symbols:
        raise ValueError("left_shift of the empty word")
    return Word(word.symbols[1:])


def drop_last(word: Word) -> Word:
    """Drop the last symbol: the word of the parent cylinder.

    Raises:
        ValueError: for the empty word.
    """
    if not word.symbols:
        raise ValueError("drop_last of the empty word")
    return Word(word.symbols[:-1])


def check_word(spec: CircleMapSpec, word: Word) -> None:
    for s in word.symbols:
        if not 0 <= s < spec.degree:
            raise ValueError(f"symbol {s} out of range for degree {spec.degree}")


def word_of_index(index: int, level: int, degree: int) -> Word:
    """The level-``level`` word at lexicographic position ``index``."""
    symbols = []
    for k in range(level - 1, -1, -1):
        symbols.append((index // degree**k) % degree)
    return Word(tuple(symbols))


def level_words(level: int, degree: int) -> list[Word]:
    """Every level-``level`` word in lexicographic order, the order of :func:`word_of_index`."""
    return [Word(symbols) for symbols in itertools.product(range(degree), repeat=level)]


def level_texts(level: int, degree: int) -> Iterator[list[str]]:
    """The texts of the level-``level`` words in index order, in blocks of at most
    ``_SOLVER_BLOCK`` (more only when the degree alone is larger): text j is
    ``word_of_index(j, level, degree).to_text()``, and no ``Word`` is built.

    A block is every word with one prefix of ``level - m`` symbols, where
    ``degree**m`` is the block size.  For degree <= 10 every text is digits, so a
    block joins the prefix's digits with a table of the suffix texts, built once
    per call.  A larger degree prints a word in digits only when all its symbols
    are at most 9, so "93" but "10-3": there each text is made from its symbols.
    """
    m = min(level, 1)
    while m < level and degree ** (m + 1) <= _SOLVER_BLOCK:
        m += 1
    if degree > 10:
        tails = list(itertools.product(range(degree), repeat=m))
        for head in itertools.product(range(degree), repeat=level - m):
            yield [_symbols_text(head + tail) for tail in tails]
        return
    digits = [str(s) for s in range(degree)]
    tails = [""]
    for _ in range(m):
        tails = [t + s for t in tails for s in digits]
    for head in itertools.product(digits, repeat=level - m):
        prefix = "".join(head)
        yield [prefix + t for t in tails]


def index_of_word(word: Word, degree: int) -> int:
    idx = 0
    for s in word.symbols:
        idx = idx * degree + s
    return idx


# ---------------------------------------------------------------------------
# Cylinders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CylinderInterval:
    """One partition interval ``[left, right]`` with its word and level.

    ``endpoint_radius`` bounds the error of each computed end, both of which
    come from a depth-``level`` backward chain: it is
    ``chain_error_bound(spec, level)[level]``, rigorous for the closed-form
    kinds and, for root-solved kinds, resting on the solver's ``_root_error``.
    """

    word: Word
    left: float
    right: float
    level: int
    endpoint_radius: float = 0.0

    @property
    def length(self) -> float:
        return self.right - self.left

    def __contains__(self, x: float) -> bool:
        return self.left <= x <= self.right


def interval_of_word(spec: CircleMapSpec, word: Word) -> CylinderInterval:
    """The cylinder ``I_w``, by iterated inverse branches (last symbol first).

    A linear or piecewise-linear cylinder comes from a chain on two Python
    floats (:func:`circle_maps.closed_form_cylinder`) that runs the vector
    path's exact operations, so its ends equal the per-symbol
    :func:`inverse_branch_values` chain bit for bit without its numpy call
    per symbol.  Root-solved kinds solve both ends in one call per symbol
    (:func:`chain_values`).

    Raises:
        DepthCapExceeded: word longer than ``defaults.DEPTH_CAP``.
        ValueError: word symbol out of range.
    """
    ensure_valid(spec)
    check_word(spec, word)
    if word.level > defaults.DEPTH_CAP:
        raise DepthCapExceeded(f"word level {word.level} exceeds cap {defaults.DEPTH_CAP}")
    if is_closed_form(spec):
        left, right = closed_form_cylinder(spec, word.symbols)
    else:
        left, right = chain_values(spec, np.array([word.symbols]), np.array([[0.0], [1.0]])).ravel().tolist()
    return CylinderInterval(
        word=word,
        left=left,
        right=right,
        level=word.level,
        endpoint_radius=float(_chain_errors(spec)[word.level]),
    )


def check_points(xs, what: str) -> np.ndarray:
    """``xs`` as a float array of finite points of [0,1].

    Raises:
        ValueError: a point is NaN, infinite or outside [0,1].
    """
    xs = np.asarray(xs, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise ValueError(f"{what} must be finite")
    if np.any((xs < 0.0) | (xs > 1.0)):
        raise ValueError(f"{what} must lie in [0,1]")
    return xs


def chain_values(spec: CircleMapSpec, words: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The backward chain ``phi_{w_0} o ... o phi_{w_{k-1}}`` of each row's word.

    ``words`` is an (n, k) symbol matrix and ``values`` has shape (..., n):
    every value in column i goes through the chain of row i.  Costs k calls.
    ``values`` (a read-only broadcast view will do) is copied once, and the
    copy is stepped in place, bit for bit the values of new arrays per step.
    """
    values = np.array(values, dtype=float)
    for j in range(words.shape[1] - 1, -1, -1):
        inverse_branch_values(spec, words[:, j], values, out=values)
    return values


def ragged_chain_values(spec: CircleMapSpec, words: np.ndarray, lengths: np.ndarray, values: np.ndarray) -> np.ndarray:
    """:func:`chain_values` where row i uses only its first ``lengths[i]`` symbols.

    Rows are sorted by length, so each step is one call, in place, on a prefix
    of a sorted copy of ``values``, with that column of ``words`` gathered in
    the same order: max(lengths) calls in all.
    """
    order = np.argsort(-lengths, kind="stable")
    steps = -lengths[order]
    out = np.asarray(values, dtype=float)[..., order]
    for j in range(int(-steps[0]) - 1 if steps.size else -1, -1, -1):
        n = int(np.searchsorted(steps, -j, side="left"))
        step = out[..., :n]
        inverse_branch_values(spec, words[order[:n], j], step, out=step)
    result = np.empty_like(out)
    result[..., order] = out
    return result


class _AffineWords:
    """Word model of a linear or piecewise-linear map.

    The chain of a word is one affine map ``v -> off + scale*v``, updated in
    O(1) per level.  ``bound[k]`` bounds the distance between a model value
    at depth k and the same value from the backward chain: the chain's own
    error, plus the model's rounding, one ulp of 1 per level for the offset
    and two relative ulps per level for the scale.
    """

    def __init__(self, spec: CircleMapSpec, x: np.ndarray):
        self.cuts = np.asarray(branch_points(spec), dtype=float)
        self.widths = np.diff(self.cuts)
        self.off = np.zeros(x.size)
        self.scale = np.ones(x.size)
        widest = float(np.max(self.widths))  # the builder must not hold self: no reference cycle
        def bound(n: int) -> np.ndarray:
            j = np.arange(n + 1)
            drift = 2.0 * _UNIT_ROUNDOFF * np.cumsum((1 + j) * widest**j)
            return chain_error_bound(spec, n) + 2.0 * _UNIT_ROUNDOFF * (j + 1) + drift
        self.bound = _DepthTable(bound)

    def propose(self, k: int, x: np.ndarray, pad: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        # gaps division - x in one array: a rounded difference is <= 0 iff division <= x
        gaps = np.multiply(self.scale, self.cuts[1:-1, None])
        gaps += self.off
        gaps -= x
        sel = np.add.reduce(gaps <= 0.0, axis=0)
        unsure = np.logical_or.reduce(np.abs(gaps, out=gaps) <= self.bound[k] + pad, axis=0)
        return sel, unsure

    def advance(self, sel: np.ndarray) -> None:
        self.off += self.scale * self.cuts[sel]
        self.scale *= self.widths[sel]

    def keep(self, mask: np.ndarray) -> None:
        self.off, self.scale = self.off[mask], self.scale[mask]


class _OrbitWords:
    """Word model of ``smooth_sine``: the forward orbit ``u <- F(u) - symbol``.

    ``slope`` is the derivative of F^k at x, so ``|u - c| / slope`` is, to
    first order, the distance in x from x to the division point that the cut
    c maps to.  ``2*err[k+1]`` estimates how far that distance may be from
    the backward chain's: the error bound of a chain one step deeper, and as
    much again for the orbit's own lift errors carried back to x.  A division
    within twice that of x counts as unsettled.
    """

    def __init__(self, spec: CircleMapSpec, x: np.ndarray):
        self.spec = spec
        self.cuts = np.asarray(branch_points(spec), dtype=float)
        self.u = x.copy()
        self.slope = np.ones(x.size)
        self.err = _chain_errors(spec)

    def propose(self, k: int, x: np.ndarray, pad: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        gaps = self.u - self.cuts[1:-1, None]
        sel = np.sum(gaps >= 0.0, axis=0)
        unsure = np.any(np.abs(gaps) <= (4.0 * self.err[k + 1] + pad) * self.slope, axis=0)
        return sel, unsure

    def advance(self, sel: np.ndarray) -> None:
        fu = lift_values(self.spec, self.u)
        self.slope = self.slope * lift_slope_values(self.spec, self.u)
        # a -0.0 comes out as +0.0 here: u is only compared and lifted, and
        # both zeros give the same floor, u and comparisons
        self.u = np.minimum(np.maximum(fu - sel, 0.0), 1.0)

    def keep(self, mask: np.ndarray) -> None:
        self.u, self.slope = self.u[mask], self.slope[mask]


class _ConjugatedWords:
    """Word model of ``F = H^-1 o G o H``: G's word model run at ``v = H(x)``.

    H is increasing and carries F's depth-k division points onto G's, so G's
    count of divisions at or left of v is F's symbol, and no root solve is
    needed (a conjugated G recurses).  The backward F-chain that decides the
    unsure cases errs by at most ``err[k+1]`` (a depth-k division is a
    depth-(k+1) chain), which H stretches by at most ``h_hi``, and the
    computed v is off by at most ``delta``.  So G's model is asked for
    decisions that stay sure with v moved by ``h_hi*(pad + err[k+1]) + delta``:
    each one equals the F-chain's.
    """

    def __init__(self, spec: CircleMapSpec, x: np.ndarray):
        base, homeo = conjugation(spec)
        self.cuts = np.asarray(branch_points(spec), dtype=float)
        self.h_hi = homeo_slope_bounds(homeo)[1]
        self.delta = homeo_rounding(homeo)
        self.err = _chain_errors(spec)
        # the exact H(x) lies in [0, 1], so clipping only moves v toward it
        self.v = np.clip(homeo_lift_values(homeo, x), 0.0, 1.0)
        self.base = _word_model(base, self.v)

    def propose(self, k: int, x: np.ndarray, pad: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        return self.base.propose(k, self.v, self.h_hi * (pad + self.err[k + 1]) + self.delta)

    def advance(self, sel: np.ndarray) -> None:
        self.base.advance(sel)

    def keep(self, mask: np.ndarray) -> None:
        self.v = self.v[mask]
        self.base.keep(mask)


def _word_model(spec: CircleMapSpec, x: np.ndarray):
    """The word model of ``spec`` for the points ``x`` (see :func:`refine_words`).

    Every model has ``cuts``, the map's branch points, and three methods:
    ``propose(k, x, pad)`` gives the depth-k symbols and which of them are
    unsure, with ``pad`` more room around each division; ``advance(sel)``
    takes the chosen symbols; ``keep(mask)`` drops the stopped points.
    """
    if conjugation(spec) is not None:
        return _ConjugatedWords(spec, x)
    return (_AffineWords if is_closed_form(spec) else _OrbitWords)(spec, x)


def refine_words(
    spec: CircleMapSpec,
    xs: np.ndarray,
    depth_cap: int,
    stop=None,
) -> tuple[np.ndarray, np.ndarray]:
    """The refinement kernel shared by itineraries and conjugacy enclosures.

    Refines the word of every point of ``xs`` level by level, up to
    ``depth_cap``.  The symbol at depth k is the number of division points
    ``chain_k(c_s)`` (s = 1..d-1) at or left of x, so ties go right.  A word
    model proposes each symbol in O(1) per point: the composed affine map of
    the word for linear and piecewise-linear maps, the forward orbit of x for
    ``smooth_sine``, and for a conjugated map ``H^-1 o G o H`` the model of G
    at ``H(x)``, so no model makes a root solve.  Where a division point lies
    within the model's error bound of x, the symbol is decided by the
    backward chain itself, for those points only, at that depth (k calls).

    ``stop(k, rows, sel, words)`` may stop points early (a bool mask over the
    live points; ``rows`` index ``words``) and ``stop.keep(mask)`` drops the
    stopped ones from its state.  Without it every point runs to
    ``depth_cap``.

    Returns ``(words, depth)``: the symbol matrix, one column per depth some
    point reached (row i is valid up to ``depth[i]``), and the stop depth of
    each point.  The matrix starts at most 64 columns wide and doubles up to
    ``depth_cap``; the error tables of the models and the stop rule (the
    shared :func:`circle_maps._chain_errors` and the affine model's own) start
    64 deep and at least double with no cap.  So a large ``depth_cap`` costs
    nothing the depths do not use.
    """
    m = xs.size
    words = np.zeros((m, min(depth_cap, 64)), dtype=np.int64)
    depth = np.full(m, depth_cap, dtype=np.int64)
    model = _word_model(spec, xs)
    cuts = model.cuts
    rows = np.arange(m)
    x = xs
    for k in range(depth_cap):
        if rows.size == 0:
            break
        if k == words.shape[1]:
            words = np.concatenate((words, np.zeros((m, min(k, depth_cap - k)), dtype=np.int64)), axis=1)
        sel, unsure = model.propose(k, x)
        if unsure.any():
            sub = np.flatnonzero(unsure)
            start = np.broadcast_to(cuts[1:-1, None], (cuts.size - 2, sub.size))
            divisions = chain_values(spec, words[rows[sub], :k], start)
            sel[sub] = np.sum(divisions <= x[sub], axis=0)
        words[rows, k] = sel
        model.advance(sel)
        if stop is not None:
            done = stop(k, rows, sel, words)
            if done.any():
                depth[rows[done]] = k + 1
                keep = ~done
                rows, x = rows[keep], x[keep]
                model.keep(keep)
                stop.keep(keep)
    return words[:, : depth.max(initial=0)], depth


def itinerary_batch(
    spec: CircleMapSpec,
    xs: np.ndarray,
    n: int,
) -> np.ndarray:
    """Level-n words for each x in ``xs`` (shape (len(xs), n) symbol matrix).

    The symbol at depth k counts the cylinder division points at or left of
    x (so at a shared endpoint the right-hand cylinder wins).  A division
    point is the image of a cut under the backward (contracting) chain of
    inverse branches, which stays accurate at depths where forward iteration
    of x alone would have lost all precision.  The kernel
    (:func:`refine_words`) proposes each symbol from an O(1)-per-level word
    model and runs the backward chain only where the model cannot settle the
    comparison, so a batch costs O(n) inverse-branch calls rather than the
    O(n^2) of a chain per depth.

    Below the rounding floor a symbol says nothing about x.  Past the depth
    k where the cylinder of x is narrower than ``chain_error_bound(spec,
    k)[k]`` (depth 26 for ``linear(4)`` and 32 for ``linear(3)``), the
    computed division points may sit on either side of the exact ones, so
    the symbols there are settled by the chain's rounding: reproducible for
    the same inputs, but not the exact word (ROADMAP item 9).

    Raises:
        ValueError: a point is not a finite number in [0,1], or n < 0.
        DepthCapExceeded: n beyond ``defaults.DEPTH_CAP``.
    """
    ensure_valid(spec)
    xs = check_points(xs, "itinerary points").reshape(-1)
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > defaults.DEPTH_CAP:
        raise DepthCapExceeded(f"level {n} exceeds cap {defaults.DEPTH_CAP}")
    # an empty batch reaches no depth, so its matrix has no column until reshaped
    return refine_words(spec, xs, n)[0].reshape(xs.size, n)


def word_of_point(spec: CircleMapSpec, x: float, n: int) -> Word:
    """The word of the level-n cylinder containing x (ties go right).

    Raises:
        ValueError: x outside [0,1), or n < 0.
        DepthCapExceeded: n beyond ``defaults.DEPTH_CAP``.
    """
    ensure_valid(spec)
    if not 0.0 <= x < 1.0:
        raise ValueError(f"x={x!r} outside [0,1)")
    # itinerary_batch checks n: "n must be >= 0", then the depth cap
    symbols = itinerary_batch(spec, np.asarray([x], dtype=float), n)
    return Word(tuple(int(s) for s in symbols[0]))


# ---------------------------------------------------------------------------
# Full-level enumeration
# ---------------------------------------------------------------------------

def _level_step(spec: CircleMapSpec, lefts: np.ndarray, level: np.ndarray, branches: np.ndarray) -> np.ndarray:
    """Write the level below ``lefts`` into ``level`` (entry ``s*D + j`` is ``phi_s(lefts[j])``), all d
    ``branches`` (``arange(d)`` shaped (d, 1, 1)) per call; root-solved kinds copy ``lefts[s*D/d + q]``.
    A closed-form call takes ``1 - y`` once per parent and one block of scratch (:func:`closed_form_inverse`)."""
    d = spec.degree
    if is_closed_form(spec) or lefts.size == 1:
        parents, new, branches, per_row = lefts, level.reshape(d, -1), branches[:, 0], d
    else:
        new = level.reshape(d, -1, d)
        new[:, :, 0] = lefts.reshape(d, -1)
        parents, new, per_row = lefts.reshape(-1, d)[:, 1:], new[:, :, 1:], d * (d - 1)
    rows = max(1, _SOLVER_BLOCK // per_row)  # parent rows per solver block
    for q in range(0, len(parents), rows):
        inverse_branch_values(spec, branches, parents[q : q + rows], out=new[:, q : q + rows])
    return level


def iter_levels(
    spec: CircleMapSpec,
    n: int,
    cell_cap: int = defaults.CELL_CAP,
) -> Iterator[np.ndarray]:
    """Left endpoints of levels 1..n in word order, one array per level.

    ``level[k+1][::d] == level[k]`` bit for bit: ``phi_0(0) = 0`` exactly and solves
    are elementwise deterministic.  Each level is the d branch images of the one above,
    bit for bit, written by :func:`_level_step` one solver block per call (a closed form:
    ``_SOLVER_BLOCK // d`` parents and all d branches in one broadcast call), so no
    level-sized temporary is made; root-solved kinds solve d^n endpoints for a level-n
    walk, not d(d^n - 1)/(d - 1).  Callers must not modify a yielded level: the next is built from it.

    Raises:
        CellCapExceeded: if d^n exceeds ``cell_cap``.
    """
    ensure_valid(spec)
    d = spec.degree
    if n < 0:
        raise ValueError("level must be >= 0")
    if d**n > cell_cap:
        raise CellCapExceeded(f"{d}^{n} cylinders exceed cell cap {cell_cap}")
    lefts, branches = np.zeros(1), np.arange(d).reshape(d, 1, 1)
    for _ in range(n):
        lefts = _level_step(spec, lefts, np.empty(d * lefts.size), branches)
        yield lefts


def level_lengths(lefts: np.ndarray) -> np.ndarray:
    """Cylinder lengths of a level from its left endpoints, in one allocation:
    ``np.diff(np.append(lefts, 1.0))`` bit for bit."""
    lengths = np.empty_like(lefts)
    np.subtract(lefts[1:], lefts[:-1], out=lengths[:-1])
    lengths[-1] = 1.0 - lefts[-1]
    return lengths


def descent_ratio(parents: np.ndarray, lengths: np.ndarray, floor: bool = False) -> float:
    """The largest parent/child length quotient of a level, or with ``floor``
    the smallest child/parent one; child j's parent is ``parents[j // m]``.

    Reduced over chunks of at most ``_SOLVER_BLOCK`` quotients, divided into
    one scratch array, each elementwise that of ``np.repeat(parents, m)``, so
    the value equals the level-sized ``np.max``/``np.min``, NaN included.
    """
    m = lengths.size // parents.size
    rows, grid = max(1, _SOLVER_BLOCK // m), lengths.reshape(parents.size, m)
    scratch = np.empty(min(rows, parents.size) * min(m, _SOLVER_BLOCK))
    extremes = []
    for i in range(0, parents.size, rows):
        p = parents[i : i + rows, None]
        for j in range(0, m, _SOLVER_BLOCK):
            c = grid[i : i + rows, j : j + _SOLVER_BLOCK]
            q = scratch[: c.size].reshape(c.shape)
            extremes.append(np.min(np.divide(c, p, out=q)) if floor else np.max(np.divide(p, c, out=q)))
    return float(np.min(extremes) if floor else np.max(extremes))


def level_left_endpoints(
    spec: CircleMapSpec,
    n: int,
    cell_cap: int = defaults.CELL_CAP,
) -> np.ndarray:
    """Left endpoints of all level-n cylinders in word order (d^n values).

    Each endpoint is the image of 0 under the inverse-branch chain of its
    word, computed once by :func:`iter_levels`; neighbors share it, so the
    level tiles [0,1] exactly.
    """
    lefts = np.zeros(1)
    for lefts in iter_levels(spec, n, cell_cap=cell_cap):
        pass
    return lefts


def level_endpoints(
    spec: CircleMapSpec,
    n: int,
    cell_cap: int = defaults.CELL_CAP,
) -> np.ndarray:
    """All d^n + 1 level-n endpoints ``0 = e_0 < ... < e_{d^n} = 1``, level n built into the result."""
    if n <= 0 or spec.degree**n > cell_cap:  # level 0, or a request refused there
        return np.append(level_left_endpoints(spec, n, cell_cap=cell_cap), 1.0)
    parents = level_left_endpoints(spec, n - 1, cell_cap=cell_cap)
    ends = np.empty(spec.degree * parents.size + 1)
    ends[-1] = 1.0
    _level_step(spec, parents, ends[:-1], np.arange(spec.degree).reshape(-1, 1, 1))
    return ends


def cylinder_lengths(
    spec: CircleMapSpec,
    n: int,
    cell_cap: int = defaults.CELL_CAP,
) -> np.ndarray:
    """Level-n cylinder lengths in word order (:func:`level_lengths` bit for bit), differenced in place by blocks."""
    lengths = level_left_endpoints(spec, n, cell_cap=cell_cap)
    for i in range(0, lengths.size - 1, _SOLVER_BLOCK):  # each block reads its last end before the next writes it
        block = lengths[i : i + _SOLVER_BLOCK + 1]
        np.subtract(block[1:], block[:-1], out=block[:-1])
    lengths[-1] = 1.0 - lengths[-1]
    return lengths


class LevelCells(Sequence[CylinderInterval]):
    """The level-``level`` cylinders over the level's d^n + 1 endpoints ``ends``.

    A lazy sequence: a cell is built when it is read, by index, slice (a list)
    or iteration, and equals the ``CylinderInterval`` of its word and ends.
    Report writers read ``ends`` and :func:`level_texts` instead.
    """

    def __init__(self, ends: np.ndarray, level: int, degree: int, endpoint_radius: float):
        self.ends, self.level, self.degree, self.endpoint_radius = ends, level, degree, endpoint_radius

    def __len__(self) -> int:
        return self.ends.size - 1

    def _cell(self, word: Word, left: float, right: float) -> CylinderInterval:
        return CylinderInterval(word=word, left=left, right=right, level=self.level, endpoint_radius=self.endpoint_radius)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[j] for j in range(*index.indices(len(self)))]
        j = operator.index(index)
        if j < 0:
            j += len(self)
        if not 0 <= j < len(self):
            raise IndexError(f"cell {index} of a level of {len(self)}")
        return self._cell(word_of_index(j, self.level, self.degree), float(self.ends[j]), float(self.ends[j + 1]))

    def __iter__(self) -> Iterator[CylinderInterval]:
        words = itertools.product(range(self.degree), repeat=self.level)
        for i in range(0, len(self), _SOLVER_BLOCK):
            ends = self.ends[i : i + _SOLVER_BLOCK + 1].tolist()
            for left, right, symbols in zip(ends, ends[1:], words):  # words last: zip stops before it
                yield self._cell(Word(symbols), left, right)


def enumerate_level(
    spec: CircleMapSpec,
    n: int,
    cell_cap: int = defaults.CELL_CAP,
) -> LevelCells:
    """All d^n level-n cylinders, left to right; neighbors share endpoints.

    The result is lazy (:class:`LevelCells`): it holds the d^n + 1 endpoints of
    :func:`level_endpoints` and builds each cell when it is read, so a level
    costs one endpoint array, not one ``Word`` and ``CylinderInterval`` per cell.

    Raises:
        CellCapExceeded: if d^n exceeds ``cell_cap``.
    """
    ends = level_endpoints(spec, n, cell_cap=cell_cap)
    return LevelCells(ends, n, spec.degree, float(chain_error_bound(spec, n)[n]))


def mesh(
    spec: CircleMapSpec,
    n: int,
    cell_cap: int = defaults.CELL_CAP,
) -> float:
    """The largest level-n cylinder length."""
    return float(np.max(cylinder_lengths(spec, n, cell_cap=cell_cap)))


def bounded_geometry_constant(
    spec: CircleMapSpec,
    n_max: int,
    cell_cap: int = defaults.CELL_CAP,
) -> float:
    """Largest parent/child cylinder length ratio over levels 1..n_max.

    This sampled maximum is a lower bound for the true bounded-geometry
    constant of the map.  The walk holds the current level, its lengths and
    the parent lengths: its peak, level solve included, is about 2.5
    level-n_max arrays.
    """
    worst = 1.0
    prev = np.ones(1)
    for lefts in iter_levels(spec, n_max, cell_cap=cell_cap):
        lengths = level_lengths(lefts)
        worst = max(worst, descent_ratio(prev, lengths))
        prev = lengths
    return worst


# ---------------------------------------------------------------------------
# Markov property verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarkovReport:
    """Worst-case violations of the Markov-partition properties at one level."""

    level: int
    cell_count: int
    tol: float
    strictly_increasing: bool
    ends_ok: bool
    max_forward_error: float
    lengths_sum_error: float

    @property
    def ok(self) -> bool:
        return (
            self.strictly_increasing
            and self.ends_ok
            and self.max_forward_error <= self.tol
        )

    def __str__(self) -> str:
        status = "pass" if self.ok else "FAIL"
        return (
            f"markov level {self.level} ({self.cell_count} cells): {status}; "
            f"max |f^n(endpoint) - {{0,1}}| = {self.max_forward_error:.3e}, "
            f"sum(lengths)-1 = {self.lengths_sum_error:.3e}"
        )


def verify_markov(
    spec: CircleMapSpec,
    n: int,
    tol: float = 1e-9,
    cell_cap: int = defaults.CELL_CAP,
) -> MarkovReport:
    """Check tiling, ordering, and that f^n maps cylinder endpoints to {0,1}.

    Raises:
        InvalidMapError: the spec fails validation (checked before anything).
    """
    ensure_valid(spec)
    ends = level_endpoints(spec, n, cell_cap=cell_cap)
    d = spec.degree
    count = d**n
    increasing = bool(np.all(np.diff(ends) > 0))
    ends_ok = ends[0] == 0.0 and ends[-1] == 1.0
    idx = np.arange(count)
    lefts, rights = ends[:-1], ends[1:]
    # iterate both endpoint families forward along each word; the left family
    # must land on 0 and the right family on 1
    for k in range(n):
        sym = (idx // d ** (n - 1 - k)) % d
        lefts = lift_values(spec, lefts) - sym
        rights = lift_values(spec, rights) - sym
    err = max(float(np.max(np.abs(lefts))), float(np.max(np.abs(rights - 1.0))))
    sum_err = float(np.sum(np.diff(ends)) - 1.0)
    return MarkovReport(
        level=n,
        cell_count=count,
        tol=tol,
        strictly_increasing=increasing,
        ends_ok=bool(ends_ok),
        max_forward_error=err,
        lengths_sum_error=sum_err,
    )
