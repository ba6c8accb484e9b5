"""Nested Markov partitions of a circle endomorphism, indexed by symbol words.

The preimages ``f^{-n}(0)`` of the fixed point cut ``[0,1]`` into ``d^n``
closed cylinder intervals.  A cylinder is labeled by the word
``w = i_0 i_1 ... i_{n-1}``: the itinerary of its points through the level-1
branches.  Cylinders are computed on demand by iterated inverse branches
(right-to-left through the word), so a single deep cylinder costs O(n) root
solves; full levels are enumerated with each interior endpoint computed once
and shared between neighbors, which makes the tiling exact by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import defaults
from .circle_maps import (
    CircleMapSpec,
    branch_points,
    ensure_valid,
    inverse_branch_values,
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
        if not self.symbols:
            return ""
        if all(s <= 9 for s in self.symbols):
            return "".join(str(s) for s in self.symbols)
        return "-".join(str(s) for s in self.symbols)

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

    ``endpoint_radius`` is a conservative enclosure radius for the computed
    endpoints: (number of solves) x (per-solve error) x (max per-step error
    expansion, estimated from sampled slope bounds).
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


def _per_solve_error(spec: CircleMapSpec, tol: float) -> float:
    # closed forms are accurate to a few ulps; root solves to their tolerance
    if spec.kind in ("linear", "piecewise_linear_full_branch"):
        return 1e-15
    return tol


def _error_expansion(spec: CircleMapSpec) -> float:
    """Max per-step expansion of endpoint error under one inverse branch.

    Estimated as max(1, 1/min F') from a sampled slope bound; for expanding
    maps the inverse contracts and the factor is 1.
    """
    xs = np.linspace(0.0, 1.0, 257)
    vals = lift_values(spec, xs)
    min_slope = float(np.min(np.diff(vals))) * 256
    if min_slope <= 0:
        return float("inf")
    return max(1.0, 1.0 / min_slope)


def interval_of_word(
    spec: CircleMapSpec,
    word: Word,
    tol: float = defaults.SOLVER_TOL,
    depth_cap: int = defaults.DEPTH_CAP,
) -> CylinderInterval:
    """The cylinder ``I_w``, by iterated inverse branches (last symbol first).

    Raises:
        DepthCapExceeded: word longer than ``depth_cap``.
        ValueError: word symbol out of range.
    """
    ensure_valid(spec)
    check_word(spec, word)
    if word.level > depth_cap:
        raise DepthCapExceeded(f"word level {word.level} exceeds cap {depth_cap}")
    ab = np.array([0.0, 1.0])
    for s in reversed(word.symbols):
        ab = inverse_branch_values(spec, s, ab, tol=tol)
    radius = word.level * _per_solve_error(spec, tol) * _error_expansion(spec)
    return CylinderInterval(
        word=word,
        left=float(ab[0]),
        right=float(ab[1]),
        level=word.level,
        endpoint_radius=radius,
    )


def itinerary_batch(
    spec: CircleMapSpec,
    xs: np.ndarray,
    n: int,
    tol: float = defaults.SOLVER_TOL,
) -> np.ndarray:
    """Level-n words for each x in ``xs`` (shape (len(xs), n) symbol matrix).

    Symbols are chosen by comparing x against the cylinder division points,
    which are computed by backward (contracting) inverse-branch chains; this
    stays accurate at depths where forward iteration of x would have lost all
    precision.  At a shared endpoint the right-hand cylinder wins.
    """
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


def word_of_point(
    spec: CircleMapSpec,
    x: float,
    n: int,
    tol: float = defaults.SOLVER_TOL,
    depth_cap: int = defaults.DEPTH_CAP,
) -> Word:
    """The word of the level-n cylinder containing x (ties go right).

    Raises:
        ValueError: x outside [0,1).
        DepthCapExceeded: n beyond the depth cap.
    """
    ensure_valid(spec)
    if not 0.0 <= x < 1.0:
        raise ValueError(f"x={x!r} outside [0,1)")
    if n > depth_cap:
        raise DepthCapExceeded(f"level {n} exceeds cap {depth_cap}")
    if n < 0:
        raise ValueError("n must be >= 0")
    symbols = itinerary_batch(spec, np.asarray([x]), n, tol=tol)
    return Word(tuple(int(s) for s in symbols[0]))


# ---------------------------------------------------------------------------
# Full-level enumeration
# ---------------------------------------------------------------------------

def _check_cell_cap(degree: int, n: int, cell_cap: int) -> None:
    if n < 0:
        raise ValueError("level must be >= 0")
    if degree**n > cell_cap:
        raise CellCapExceeded(f"{degree}^{n} cylinders exceed cell cap {cell_cap}")


def level_left_endpoints(
    spec: CircleMapSpec,
    n: int,
    tol: float = defaults.SOLVER_TOL,
    cell_cap: int = defaults.CELL_CAP,
) -> np.ndarray:
    """Left endpoints of all level-n cylinders in word order (d^n values).

    Each endpoint is computed once, as the image of 0 under the inverse-branch
    chain of its word; neighbors share it, so the level tiles [0,1] exactly.
    """
    ensure_valid(spec)
    _check_cell_cap(spec.degree, n, cell_cap)
    d = spec.degree
    lefts = np.zeros(1)
    for _ in range(n):
        lefts = np.concatenate(
            [inverse_branch_values(spec, s, lefts, tol=tol) for s in range(d)]
        )
    return lefts


def level_endpoints(
    spec: CircleMapSpec,
    n: int,
    tol: float = defaults.SOLVER_TOL,
    cell_cap: int = defaults.CELL_CAP,
) -> np.ndarray:
    """All d^n + 1 level-n endpoints, ``0 = e_0 < e_1 < ... < e_{d^n} = 1``."""
    return np.append(level_left_endpoints(spec, n, tol=tol, cell_cap=cell_cap), 1.0)


def cylinder_lengths(
    spec: CircleMapSpec,
    n: int,
    tol: float = defaults.SOLVER_TOL,
    cell_cap: int = defaults.CELL_CAP,
) -> np.ndarray:
    """Lengths of all level-n cylinders in word order."""
    return np.diff(level_endpoints(spec, n, tol=tol, cell_cap=cell_cap))


def enumerate_level(
    spec: CircleMapSpec,
    n: int,
    tol: float = defaults.SOLVER_TOL,
    cell_cap: int = defaults.CELL_CAP,
) -> list[CylinderInterval]:
    """All d^n level-n cylinders, left to right; neighbors share endpoints.

    Raises:
        CellCapExceeded: if d^n exceeds ``cell_cap``.
    """
    ends = level_endpoints(spec, n, tol=tol, cell_cap=cell_cap)
    radius = n * _per_solve_error(spec, tol) * _error_expansion(spec)
    d = spec.degree
    return [
        CylinderInterval(
            word=word_of_index(j, n, d),
            left=float(ends[j]),
            right=float(ends[j + 1]),
            level=n,
            endpoint_radius=radius,
        )
        for j in range(d**n)
    ]


def mesh(
    spec: CircleMapSpec,
    n: int,
    tol: float = defaults.SOLVER_TOL,
    cell_cap: int = defaults.CELL_CAP,
) -> float:
    """The largest level-n cylinder length."""
    return float(np.max(cylinder_lengths(spec, n, tol=tol, cell_cap=cell_cap)))


def bounded_geometry_constant(
    spec: CircleMapSpec,
    n_max: int,
    tol: float = defaults.SOLVER_TOL,
    cell_cap: int = defaults.CELL_CAP,
) -> float:
    """Largest parent/child cylinder length ratio over levels 1..n_max.

    This sampled maximum is a lower bound for the true bounded-geometry
    constant of the map.
    """
    ensure_valid(spec)
    _check_cell_cap(spec.degree, n_max, cell_cap)
    d = spec.degree
    worst = 1.0
    prev = np.asarray([1.0])
    lefts = np.zeros(1)
    for _ in range(n_max):
        lefts = np.concatenate(
            [inverse_branch_values(spec, s, lefts, tol=tol) for s in range(d)]
        )
        lengths = np.diff(np.append(lefts, 1.0))
        # the parent of word index j at this level is index j // d (drop last symbol)
        ratios = np.repeat(prev, d) / lengths
        worst = max(worst, float(np.max(ratios)))
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
    solver_tol: float = defaults.SOLVER_TOL,
    cell_cap: int = defaults.CELL_CAP,
) -> MarkovReport:
    """Check tiling, ordering, and that f^n maps cylinder endpoints to {0,1}.

    Raises:
        InvalidMapError: the spec fails validation (checked before anything).
    """
    ensure_valid(spec)
    ends = level_endpoints(spec, n, tol=solver_tol, cell_cap=cell_cap)
    d = spec.degree
    count = d**n
    increasing = bool(np.all(np.diff(ends) > 0))
    ends_ok = ends[0] == 0.0 and ends[-1] == 1.0
    idx = np.arange(count)
    lefts = ends[:-1].copy()
    rights = ends[1:].copy()
    # iterate both endpoint families forward along each word; the left family
    # must land on 0 and the right family on 1
    for k in range(n):
        sym = (idx // d ** (n - 1 - k)) % d
        lefts = lift_values(spec, lefts, tol=solver_tol) - sym
        rights = lift_values(spec, rights, tol=solver_tol) - sym
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
