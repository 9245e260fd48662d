"""Preimage counts and selective (kappa) densities.

Every count is a count of grid preimages {n : v(n) < x}, made by one
counting core: each sequence's prefix is binned once against the sorted
grid (:func:`grid_codes`), and one ``bincount`` plus a cumulative sum along
each axis (a summed-area table, :func:`grid_counts`) yields the exact count
of every grid rectangle at every checkpoint.  The rectangle test,
measurability detection and extraction all count through it.  Densities
are finite-prefix ratios count / k, reported with a trailing-window Cauchy
diagnostic (:class:`DensityEstimate`) instead of a bare limit claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import IntervalError
from .sequences import BoundedSequence

# Largest grid_counts table, in int64 cells (512 MiB).  Its joint codes
# stay far below int64 overflow.
MAX_TABLE_CELLS = 2 ** 26


@dataclass
class DensityEstimate:
    """Finite-prefix density with convergence diagnostics.

    ``checkpoints`` and ``trace_ratios`` hold the ratio at every checkpoint;
    ``trace`` lists them as (checkpoint, ratio) pairs.  ``converged`` means
    the last ``window`` ratios vary by at most ``tol``.
    """

    value: float
    checkpoints: np.ndarray
    trace_ratios: np.ndarray
    oscillation: float
    converged: bool
    tol: float
    window: int

    @classmethod
    def from_counts(cls, checkpoints: np.ndarray, counts: np.ndarray,
                    tol: float, window: int) -> "DensityEstimate":
        """Estimate from exact counts at each checkpoint.

        Each ratio is the single correctly rounded division count / k.
        """
        ratios = counts / checkpoints
        ratios.setflags(write=False)
        tail = ratios[-window:]
        oscillation = float(tail.max() - tail.min())
        return cls(value=float(ratios[-1]), checkpoints=checkpoints,
                   trace_ratios=ratios, oscillation=oscillation,
                   converged=oscillation <= tol, tol=tol, window=window)

    @property
    def trace(self) -> list[tuple[int, float]]:
        return list(zip(self.checkpoints.tolist(), self.trace_ratios.tolist()))


def check_window(seq: BoundedSequence, lo: float, hi: float) -> None:
    """Raise IntervalError unless [lo, hi) is a window inside seq's interval."""
    a, b = seq.interval.a, seq.interval.b
    if not lo <= hi:
        raise IntervalError(f"inverted bounds [{lo}, {hi})")
    if lo < a or hi > b:
        raise IntervalError(
            f"preimage window [{lo}, {hi}) must sit inside [{a}, {b}]")


def grid_codes(seq: BoundedSequence, n: int, points: np.ndarray) -> np.ndarray:
    """Bin v(1..n) against sorted grid points.

    code(n) = #{j : points[j] <= v(n)}, so v(n) < points[j] exactly when
    code(n) <= j: every "strictly below a grid point" count is a count of
    small codes.
    """
    return np.searchsorted(points, seq.prefix(n).values, side="right")


def grid_counts(codes: Sequence[np.ndarray], n_points: int,
                checkpoints: np.ndarray) -> np.ndarray:
    """Exact grid-rectangle counts at every checkpoint.

    ``codes[r]`` bins sequence r against the same ``n_points`` = G sorted
    grid points (see :func:`grid_codes`) and covers at least
    1..checkpoints[-1].  Returns int64 counts c of shape (M, G+1, ..., G+1),
    one axis per sequence, with c[i, j_1, ..., j_m] = #{n <= k_i :
    code_r(n) <= j_r for every r}: for j_r < G the number of n <= k_i with
    v_r(n) < x_{j_r}, while j_r = G leaves sequence r unbounded, so
    fixing every other index at G gives one sequence's marginal counts.

    One ``bincount`` of (checkpoint segment, joint code) followed by a
    cumulative sum along each axis gives every entry in O(k_M + M (G+1)^m).
    Raises ValueError when the table would exceed MAX_TABLE_CELLS cells.
    """
    checkpoints = np.asarray(checkpoints, dtype=np.int64)
    depth = int(checkpoints[-1])
    m, g = len(codes), n_points
    cells = (g + 1) ** m
    if checkpoints.size * cells > MAX_TABLE_CELLS:
        raise ValueError(
            f"counting table of {checkpoints.size} checkpoints x {g + 1}^{m} "
            f"grid cells exceeds {MAX_TABLE_CELLS} cells; use fewer grid "
            f"points, sequences or checkpoints")
    segment_sizes = np.diff(checkpoints, prepend=0)
    joint = np.repeat(np.arange(checkpoints.size, dtype=np.int64) * cells,
                      segment_sizes)
    stride = cells
    for c in codes:
        stride //= g + 1
        joint += c[:depth] * stride
    table = np.bincount(joint, minlength=checkpoints.size * cells)
    table = table.reshape((checkpoints.size,) + (g + 1,) * m)
    for axis in range(m + 1):
        np.cumsum(table, axis=axis, out=table)
    return table
