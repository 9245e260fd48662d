"""Measurability detection and checkpoint-subsequence extraction.

A sequence is treated as measurable along a checkpoint index when, at every
evaluation point of a finite grid, the preimage-counting ratios are Cauchy
over a trailing window.  :func:`detect_measurable` reports them as one
read-only table of ratios, a row per checkpoint and a column per grid
point, with each column's trailing-window oscillation.  When a sequence
fails that test, a stabilizing sub-index can often be extracted from a
candidate pool by a greedy diagonal pass: for each (sequence, grid point)
pair in turn, keep the checkpoints whose ratios fall in the most populous
tol-wide band (leftmost band on ties).  The surviving checkpoints satisfy
every earlier pair's constraint automatically, since subsets of a tol-wide
band stay within it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ._pcg64 import Coins
from .density import Tally, fill, grid_counts, sorted_unique
from .distribution import StepCDF, empirical_cdf
from .errors import (CheckpointError, ExtractionError, IntervalError,
                     SequenceExhausted)
from .sequences import BoundedSequence
from .subsequence import SubsequenceIndex, _check_index

DEFAULT_TOL = 1e-2
DEFAULT_WINDOW = 5
DEFAULT_MIN_POOL = 64
# Member names of kappa_family_builder's family, in the order it returns them.
KAPPA_FAMILY = ("naturals", "evens", "odds", "squares", "pow2", "thinned")
MIN_BASE_DEPTH = 10 ** 3  # the shallowest base_depth of a family member
# Coins the thinned member draws at a time (see _coin_thinned).
_COIN_CHUNK = 1 << 16


@dataclass(frozen=True)
class MeasurabilityReport:
    """Per-grid-point convergence evidence for one sequence along one index,
    as one table.

    ``grid`` is a copy of the caller's grid and ``checkpoints`` the (M,)
    kappa checkpoints the table covers.  ``ratios`` (M, G) holds the single
    division #{n <= k : v(n) < grid[j]} / k at checkpoint k (row) and grid
    point j (column), and ``oscillations`` (G,) the spread max - min of
    each column's last ``window`` ratios; grid point j has converged when
    ``oscillations[j] <= tol``, and ``measurable`` is True when every one
    has.  All four arrays are read-only.  ``limit_cdf``, the empirical CDF
    at kappa's deepest checkpoint, is computed on first access: it sorts
    the whole prefix, and the verdict does not need it.
    """

    sequence: BoundedSequence
    kappa: SubsequenceIndex
    grid: np.ndarray
    checkpoints: np.ndarray
    ratios: np.ndarray
    oscillations: np.ndarray
    measurable: bool
    tol: float
    window: int

    @property
    def sequence_label(self) -> str:
        return self.sequence.label

    @property
    def kappa_label(self) -> str:
        return self.kappa.label

    @cached_property
    def limit_cdf(self) -> StepCDF:
        return empirical_cdf(self.sequence, self.kappa)

    def to_json_obj(self) -> dict:
        """For :func:`reporting.canonical_json`; vectors are arrays."""
        return {
            "sequence": self.sequence_label,
            "kappa": self.kappa_label,
            "tol": self.tol,
            "window": self.window,
            "measurable": self.measurable,
            "grid": self.grid,
            "oscillation": self.oscillations,
            "cdf_at_deepest": self.ratios[-1],
            "limit_cdf": self.limit_cdf.to_json_obj(),
        }


def check_grid(seq: BoundedSequence, grid: np.ndarray | None,
               window: int) -> np.ndarray | None:
    """Check a trailing window and a grid of CDF points for ``seq``.

    ``window`` must be an integer (TypeError) >= 1 and ``grid`` 1-d and
    nonempty (ValueError), with every point inside the interval [a, b] of
    ``seq`` (IntervalError naming the first point outside, NaN included).
    Returns the grid as float64, or None when ``grid`` is None (only the
    window is checked then).
    """
    if _check_index(window, "window") < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if grid is None:
        return None
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1:
        raise ValueError(f"grid must be 1-d, got shape {grid.shape}")
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    a, b = seq.interval.a, seq.interval.b
    outside = ~((a <= grid) & (grid <= b))
    if outside.any():
        raise IntervalError(
            f"grid point {float(grid[outside][0])} outside [{a}, {b}]")
    return grid


def detect_measurable(seq: BoundedSequence, kappa: SubsequenceIndex,
                      grid: np.ndarray, tol: float = DEFAULT_TOL,
                      window: int = DEFAULT_WINDOW) -> MeasurabilityReport:
    """Check Cauchy behavior of F_k(x) at every grid point along kappa.

    One :func:`grid_counts` table gives #{n <= k : v(n) < x} at every
    checkpoint and grid point, in O(k_M + M G) time and, besides one
    chunk of the sequence, O(M G) memory.  Each ratio is the single
    division count / k, so ``ratios[-1, j]`` equals
    ``empirical_cdf(seq, kappa)`` at ``grid[j]`` bit for bit.  measurable
    is True exactly when each grid point's trailing-window oscillation is
    at most tol; ``window`` must be >= 1.
    """
    grid = check_grid(seq, grid, window)
    _check_window(kappa, window)
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    counts = grid_counts([seq], sorted_unique(grid), kappa.checkpoints)
    return _measurability(seq, kappa, grid, counts, tol, window)


def _check_window(kappa: SubsequenceIndex, window: int) -> None:
    if len(kappa) < window:
        raise CheckpointError(
            f"index {kappa.label} has {len(kappa)} checkpoints; "
            f"need at least window = {window}")


def _measurability(seq: BoundedSequence, kappa: SubsequenceIndex,
                   grid: np.ndarray, counts: np.ndarray, tol: float,
                   window: int) -> MeasurabilityReport:
    """The report of ``seq`` along ``kappa`` from its counts: ``counts``
    holds #{n <= k : v(n) < x} for the sorted unique grid points x (and
    k itself in the last column) at kappa's last ``len(counts)``
    checkpoints, at least ``window`` of them.  The table covers those
    checkpoints, which hold everything the verdict reads.
    """
    position = np.unique(grid, return_inverse=True)[1]
    checkpoints = kappa.checkpoints[len(kappa) - counts.shape[0]:]
    ratios = counts[:, position] / checkpoints[:, None]
    tail = ratios[-window:]
    oscillations = tail.max(axis=0) - tail.min(axis=0)
    grid = grid.copy()
    for table in (grid, checkpoints, ratios, oscillations):
        table.setflags(write=False)
    return MeasurabilityReport(
        sequence=seq, kappa=kappa, grid=grid, checkpoints=checkpoints,
        ratios=ratios, oscillations=oscillations,
        measurable=bool(np.all(oscillations <= tol)), tol=tol, window=window)


def _best_band(ratios: np.ndarray, tol: float) -> np.ndarray:
    """Boolean mask of ratios inside the most populous tol-wide band.

    Bands are anchored at the sorted ratio values; the leftmost band wins
    ties, so the selection is deterministic.
    """
    order = np.argsort(ratios, kind="stable")
    sorted_vals = ratios[order]
    # For each anchor i, count values in [r_i, r_i + tol].
    hi = np.searchsorted(sorted_vals, sorted_vals + tol, side="right")
    counts = hi - np.arange(ratios.size)
    best = int(np.argmax(counts))  # argmax takes the first (leftmost) maximum
    lo_val = sorted_vals[best]
    return (ratios >= lo_val) & (ratios <= lo_val + tol)


def helly_extract(seqs: Sequence[BoundedSequence], pool: SubsequenceIndex,
                  grid: np.ndarray, tol: float = DEFAULT_TOL,
                  window: int = DEFAULT_WINDOW,
                  min_pool: int = DEFAULT_MIN_POOL,
                  counts: Sequence[np.ndarray] | None = None) -> SubsequenceIndex:
    """Greedy diagonal extraction of a stabilizing checkpoint sub-index.

    Passes run over (sequence, grid point) pairs, sequences outer and grid
    points inner, both in ascending order.  Each pass takes the counting
    ratios on the surviving checkpoints and keeps the most populous
    tol-wide band.  Extraction fails (naming the pair) if fewer than
    ``window`` checkpoints survive a pass.

    A checkpoint's count does not depend on which other checkpoints
    survive, so each sequence's counts at the pool's checkpoints serve all
    of its passes.  They are ``counts`` when given: ``counts[r]`` holds
    sequence r's counts at the first rows of the pool, in the layout of
    :func:`density.marginal` over the sorted unique grid points.
    Otherwise they come from one walk (:func:`_pool_counts`), in which a
    finite sequence is counted only at the checkpoints it reaches.  Those
    must include the deepest checkpoint still surviving at the sequence's
    passes, or SequenceExhausted is raised.
    """
    if len(seqs) == 0:
        raise ValueError("need at least one sequence")
    for seq in seqs:
        grid = check_grid(seq, grid, window)
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if _check_index(min_pool, "min_pool") < 1:
        raise ValueError(f"min_pool must be >= 1, got {min_pool}")
    if len(pool) < min_pool:
        raise ExtractionError(
            f"candidate pool has {len(pool)} checkpoints; need at least "
            f"{min_pool} (pass a deeper pool or lower min_pool)")

    checkpoints = pool.checkpoints
    points = sorted_unique(grid)
    if counts is None:
        counts = _pool_counts(seqs, pool, points)
    surviving = np.arange(len(pool))
    for seq, table in zip(seqs, counts):
        if surviving[-1] >= len(table):
            raise SequenceExhausted(
                f"{seq.label}: prefix of length "
                f"{int(checkpoints[surviving[-1]])} beyond sequence length "
                f"{seq.length}")
        for x in np.sort(grid):
            j = int(np.searchsorted(points, x))
            ratios = table[surviving, j] / checkpoints[surviving]
            keep = _best_band(ratios, tol)
            if int(np.count_nonzero(keep)) < window:
                raise ExtractionError(
                    f"extraction exhausted the pool at sequence {seq.label}, "
                    f"grid point {float(x):g}: only "
                    f"{int(np.count_nonzero(keep))} checkpoints share a "
                    f"{tol:g}-wide ratio band (need {window}); "
                    f"try a deeper pool")
            surviving = surviving[keep]

    name = f"extract({pool.label})"
    return SubsequenceIndex(checkpoints[surviving],
                            rule=f"helly-extract tol={tol:g}", name=name)


def _pool_counts(seqs: Sequence[BoundedSequence], pool: SubsequenceIndex,
                 points: np.ndarray) -> list[np.ndarray]:
    """Each sequence's (rows, G+1) counts at the pool checkpoints it
    reaches (all of them unless it is finite), from one walk."""
    checkpoints = pool.checkpoints
    tallies = []
    for r, seq in enumerate(seqs):
        reach = len(pool) if seq.length is None else int(
            np.searchsorted(checkpoints, seq.length, side="right"))
        tallies.append(Tally(points, checkpoints[:reach], [r])
                       if reach else None)
    fill(seqs, [t for t in tallies if t is not None])
    return [t.table() if t is not None
            else np.zeros((0, points.size + 1), dtype=np.int64)
            for t in tallies]


@dataclass(frozen=True)
class Extraction:
    """A family member still to be extracted from ``pool`` by
    :func:`helly_extract` with these settings.

    The equivalence harness counts the pool's checkpoints in the walk that
    runs its schedule test, and extracts from those counts.
    """

    pool: SubsequenceIndex
    tol: float = DEFAULT_TOL
    window: int = DEFAULT_WINDOW

    def __post_init__(self):
        # helly_extract's checks, made here so that a bad setting fails
        # before a harness runs its schedule test
        if _check_index(self.window, "window") < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")

    def extract(self, seqs: Sequence[BoundedSequence], grid: np.ndarray,
                counts: Sequence[np.ndarray] | None = None) -> SubsequenceIndex:
        return helly_extract(seqs, self.pool, grid, tol=self.tol,
                             window=self.window, counts=counts)


def kappa_family_builder(base_depth: int, seed: int = 0,
                         last: int | None = None) -> list[SubsequenceIndex]:
    """The standard adversarial checkpoint family, truncated at base_depth:
    :func:`kappa_member` of each name in ``KAPPA_FAMILY``, in that order,
    each with this ``seed`` and ``last``.

    Built whole (``last`` None), evens, odds and thinned hold about
    base_depth / 2 checkpoints each, about 12 bytes per index of
    base_depth.  With ``last``, each member is its last ``last``
    checkpoints, and the family takes O(last) memory at any depth, besides
    one chunk of thinned's coins while they are drawn.  Every argument is
    checked as :func:`kappa_member` checks it, before thinned is drawn.
    """
    return [kappa_member(name, base_depth, seed=seed, last=last)
            for name in KAPPA_FAMILY]


def kappa_member(name: str, base_depth: int, seed: int = 0,
                 last: int | None = None) -> SubsequenceIndex:
    """One member of the standard checkpoint family, truncated at base_depth.

    ``name`` is one of ``KAPPA_FAMILY``: strided naturals (about 100
    checkpoints), evens, odds, perfect squares, powers of two, and one
    pseudo-randomly thinned index drawn with a fixed seed so repeated calls
    agree element for element.  ``seed`` matters only for thinned.

    With ``last`` (>= 1) the member is only its last ``last`` checkpoints,
    the whole member's ``checkpoints[-last:]`` with its rule and name.
    The equivalence harness with window ``last`` reads nothing else of an
    index (its trailing window, which ends at its deepest checkpoint).

    Memory is O(M) for the member's M checkpoints (M <= ``last`` when
    given), not O(base_depth): the closed forms are evaluated only at the
    N they keep, and thinned draws its coins ``_COIN_CHUNK`` at a time and
    holds, besides its checkpoints, one chunk of coins, from numpy's PCG64
    stream without importing ``numpy.random``.  ValueError for base_depth
    outside [1000, 2^63), for ``last`` < 1, a negative seed or an unknown
    name; TypeError unless base_depth, ``last`` and ``seed`` are integers.
    Any seed >= 0 is taken, as ``default_rng`` takes it.
    """
    base_depth = _check_index(base_depth, "base_depth")
    if base_depth < MIN_BASE_DEPTH:
        raise ValueError(f"base_depth must be >= 1000, got {base_depth}")
    if base_depth >= 2 ** 63:
        raise ValueError(f"base_depth must be < 2^63, got {base_depth}")
    if last is not None and _check_index(last, "last") < 1:
        raise ValueError(f"last must be >= 1, got {last}")
    seed = _check_index(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if name == "thinned":
        return SubsequenceIndex(_coin_thinned(base_depth, seed, last),
                                rule=f"coin-thinned, seed={seed}", name=name)
    if name not in _CLOSED_FORMS:
        raise ValueError(f"unknown kappa member {name!r}; expected one of "
                         f"{', '.join(KAPPA_FAMILY)}")
    count, term, rule = _CLOSED_FORMS[name](base_depth)
    first = 1 if last is None else max(1, count - last + 1)
    return SubsequenceIndex(term(np.arange(first, count + 1, dtype=np.int64)),
                            rule=rule, name=name)


def _strided(base_depth: int):
    stride = max(1, base_depth // 100)
    return base_depth // stride, lambda n: stride * n, f"k_N = {stride}N"


# The closed-form members: name -> f(base_depth) = (M, k, rule), where the
# member's checkpoints are k(N) for N = 1..M, evaluated on int64 arrays of
# N.  Every bound is an integer one: a float sqrt or log2 rounds up just
# below a square or a power of two (log2(2^50 - 1) rounds to 50).
_CLOSED_FORMS = {
    "naturals": _strided,
    "evens": lambda d: (d // 2, lambda n: 2 * n, "k_N = 2N"),
    "odds": lambda d: ((d + 1) // 2, lambda n: 2 * n - 1, "k_N = 2N-1"),
    "squares": lambda d: (math.isqrt(d), lambda n: n * n, "k_N = N^2"),
    "pow2": lambda d: (d.bit_length(), lambda n: 2 ** (n - 1),
                       "k_N = 2^(N-1)"),
}


def _coin_thinned(base_depth: int, seed: int,
                  last: int | None = None) -> np.ndarray:
    """The indices n <= base_depth whose coin ``default_rng(seed).random()
    < 0.5`` comes up, coin n being the n-th draw; only the last ``last``
    of them when ``last`` is given.

    The coins come from :class:`_pcg64.Coins`, bit for bit numpy's stream
    without importing ``numpy.random``, ``_COIN_CHUNK`` at a time.  For
    every index they are drawn twice: once to count the kept indices, once
    to fill an array of exactly that size.  For the last ``last``, the
    chunks are drawn from the last one backward, each from the state its
    first coin jumps to in O(log) steps, until ``last`` kept indices are
    found: O(last) time and memory at any base_depth.
    """
    stream = Coins(seed)

    def coins(lo: int) -> np.ndarray:
        return stream.heads(lo, min(_COIN_CHUNK, base_depth - lo))

    if last is not None:
        found, need = [], last
        for lo in range((base_depth - 1) // _COIN_CHUNK * _COIN_CHUNK, -1,
                        -_COIN_CHUNK):
            c = coins(lo)
            found.append(np.flatnonzero(c)[-need:] + (lo + 1))
            need -= found[-1].size
            if not need:
                break
        return np.concatenate(found[::-1])
    starts = range(0, base_depth, _COIN_CHUNK)
    kept = np.empty(sum(int(np.count_nonzero(coins(lo))) for lo in starts),
                    dtype=np.int64)
    filled = 0
    for lo in starts:
        heads = np.flatnonzero(coins(lo))
        kept[filled:filled + heads.size] = heads + (lo + 1)
        filled += heads.size
    return kept
