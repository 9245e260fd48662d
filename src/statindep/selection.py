"""Measurability detection and checkpoint-subsequence extraction.

A sequence is treated as measurable along a checkpoint index when, at every
evaluation point of a finite grid, the preimage-counting ratios are Cauchy
over a trailing window.  When a sequence fails that test, a stabilizing
sub-index can often be extracted from a candidate pool by a greedy diagonal
pass: for each (sequence, grid point) pair in turn, keep the checkpoints
whose ratios fall in the most populous tol-wide band (leftmost band on
ties).  The surviving checkpoints satisfy every earlier pair's constraint
automatically, since subsets of a tol-wide band stay within it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .density import DensityEstimate, grid_counts
from .distribution import StepCDF, empirical_cdf
from .errors import CheckpointError, ExtractionError, IntervalError
from .sequences import BoundedSequence
from .subsequence import SubsequenceIndex

DEFAULT_TOL = 1e-2
DEFAULT_WINDOW = 5
DEFAULT_MIN_POOL = 64
# Member names of kappa_family_builder's family, in the order it returns them.
KAPPA_FAMILY = ("naturals", "evens", "odds", "squares", "pow2", "thinned")


@dataclass
class MeasurabilityReport:
    """Per-grid-point convergence evidence for one sequence along one index.

    ``limit_cdf``, the empirical CDF at kappa's deepest checkpoint, is
    computed on first access: it sorts the whole prefix, and the verdict
    does not need it.
    """

    sequence: BoundedSequence
    kappa: SubsequenceIndex
    grid: np.ndarray
    traces: list[DensityEstimate]
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
        return {
            "sequence": self.sequence_label,
            "kappa": self.kappa_label,
            "tol": self.tol,
            "window": self.window,
            "measurable": self.measurable,
            "grid": [float(x) for x in self.grid],
            "oscillation": [float(v) for v in self.oscillations],
            "cdf_at_deepest": [t.value for t in self.traces],
            "limit_cdf": self.limit_cdf.to_json_obj(),
        }


def check_grid(seq: BoundedSequence, grid: np.ndarray | None,
               window: int) -> np.ndarray | None:
    """Check a trailing window and a grid of CDF points for ``seq``.

    ``window`` must be >= 1 and ``grid`` nonempty (ValueError), with every
    point inside the interval [a, b] of ``seq`` (IntervalError naming the
    first point outside, NaN included).  Returns the grid as float64, or
    None when ``grid`` is None (only the window is checked then).
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if grid is None:
        return None
    grid = np.asarray(grid, dtype=np.float64)
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
    checkpoint and grid point, in O(k_M + M G) time and, besides the
    cached prefix and one slice of it, O(M G) memory.  Each trace ratio
    is the single division count / k, so each trace's value equals
    ``empirical_cdf(seq, kappa)`` at x bit for bit.  measurable is True
    exactly when each grid point's trailing-window oscillation is at most
    tol; ``window`` must be >= 1.
    """
    grid = check_grid(seq, grid, window)
    if len(kappa) < window:
        raise CheckpointError(
            f"index {kappa.label} has {len(kappa)} checkpoints; "
            f"need at least window = {window}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    points, position = np.unique(grid, return_inverse=True)
    checkpoints = kappa.checkpoints
    counts = grid_counts([seq], points, checkpoints)
    traces = [DensityEstimate.from_counts(checkpoints, counts[:, j], tol,
                                          window) for j in position]
    oscillations = np.asarray([t.oscillation for t in traces])
    return MeasurabilityReport(
        sequence=seq, kappa=kappa, grid=grid, traces=traces,
        oscillations=oscillations,
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
                  min_pool: int = DEFAULT_MIN_POOL) -> SubsequenceIndex:
    """Greedy diagonal extraction of a stabilizing checkpoint sub-index.

    Passes run over (sequence, grid point) pairs, sequences outer and grid
    points inner, both in ascending order.  Each pass takes the counting
    ratios on the surviving checkpoints and keeps the most populous
    tol-wide band.  Extraction fails (naming the pair) if fewer than
    ``window`` checkpoints survive a pass.

    A checkpoint's count does not depend on which other checkpoints
    survive, so one :func:`grid_counts` table per sequence serves all of
    its passes.  Counting reads up to the pool's deepest checkpoint, so
    later stages find the prefix already generated; a finite sequence is
    counted only at the checkpoints it reaches, which must include the
    deepest checkpoint still surviving.
    """
    if len(seqs) == 0:
        raise ValueError("need at least one sequence")
    for seq in seqs:
        grid = check_grid(seq, grid, window)
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if len(pool) < min_pool:
        raise ExtractionError(
            f"candidate pool has {len(pool)} checkpoints; need at least "
            f"{min_pool} (pass a deeper pool or lower min_pool)")

    checkpoints = pool.checkpoints
    points = np.unique(grid)
    surviving = np.arange(len(pool))
    for seq in seqs:
        reach = len(pool)
        if seq.length is not None:
            reach = max(int(np.searchsorted(checkpoints, seq.length,
                                            side="right")),
                        int(surviving[-1]) + 1)
        counts = grid_counts([seq], points, checkpoints[:reach])
        for x in np.sort(grid):
            j = int(np.searchsorted(points, x))
            ratios = counts[surviving, j] / checkpoints[surviving]
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


def kappa_family_builder(base_depth: int, seed: int = 0) -> list[SubsequenceIndex]:
    """The standard adversarial checkpoint family, truncated at base_depth.

    Members: strided naturals (about 100 checkpoints), evens, odds, perfect
    squares, powers of two, and one pseudo-randomly thinned index drawn
    with a fixed seed so repeated calls agree element for element.
    """
    if base_depth < 10 ** 3:
        raise ValueError(f"base_depth must be >= 1000, got {base_depth}")
    stride = max(1, base_depth // 100)
    naturals = np.arange(stride, base_depth + 1, stride, dtype=np.int64)
    evens = np.arange(2, base_depth + 1, 2, dtype=np.int64)
    odds = np.arange(1, base_depth + 1, 2, dtype=np.int64)
    top = int(np.floor(np.sqrt(base_depth)))
    squares = np.arange(1, top + 1, dtype=np.int64) ** 2
    pow2 = 2 ** np.arange(0, int(np.floor(np.log2(base_depth))) + 1,
                          dtype=np.int64)
    rng = np.random.default_rng(seed)
    keep = rng.random(base_depth) < 0.5
    thinned = np.nonzero(keep)[0].astype(np.int64) + 1

    members = {
        "naturals": (naturals, f"k_N = {stride}N"),
        "evens": (evens, "k_N = 2N"),
        "odds": (odds, "k_N = 2N-1"),
        "squares": (squares, "k_N = N^2"),
        "pow2": (pow2, "k_N = 2^(N-1)"),
        "thinned": (thinned, f"coin-thinned, seed={seed}"),
    }
    return [SubsequenceIndex(*members[name], name=name) for name in KAPPA_FAMILY]
