"""Preimage counts and selective (kappa) densities.

Every count is a count of grid preimages {n : v(n) < x}, made by one
counting core, :func:`grid_counts`: it streams the cached prefixes in
slices of ``sequences._CHUNK`` indices, bins each slice against the sorted
grid and adds it into a (checkpoint, grid cell) table with one
``bincount``; a cumulative sum along each axis (a summed-area table) then
yields the exact count of every grid rectangle at every checkpoint.
Besides the prefixes it holds one slice's codes and the table, never an
array of one entry per index.  The rectangle test, measurability
detection and extraction all count through it.  Densities
are finite-prefix ratios count / k, reported with a trailing-window Cauchy
diagnostic (:class:`DensityEstimate`) instead of a bare limit claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .sequences import _CHUNK, BoundedSequence
from .subsequence import check_checkpoints

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


def grid_counts(seqs: Sequence[BoundedSequence], points: np.ndarray,
                checkpoints: np.ndarray) -> np.ndarray:
    """Exact grid-rectangle counts at every checkpoint.

    ``points`` holds the G sorted, unique grid points, and ``checkpoints``
    the strictly increasing k_1 < ... < k_M.  Returns int64 counts c of
    shape (M, G+1, ..., G+1), one axis per sequence, with
    c[i, j_1, ..., j_m] = #{n <= k_i : v_r(n) < x_{j_r} for every r} for
    j_r < G, while j_r = G leaves sequence r unbounded, so fixing every
    other index at G gives one sequence's marginal counts.

    Each cached prefix is read in slices of ``_CHUNK`` indices.  A slice
    is binned as code(n) = #{j : x_j <= v(n)} (so v(n) < x_j exactly when
    code(n) <= j), its codes are combined into one joint code per index
    plus its checkpoint segment's offset, and one ``bincount`` adds it
    into the slice's rows of the table; a cumulative sum along each axis
    then gives every entry, in O(k_M + M (G+1)^m) time and
    O(m _CHUNK + M (G+1)^m) memory besides the prefixes.

    Raises CheckpointError for checkpoints that are empty, below 1 or not
    strictly increasing, SequenceExhausted (from ``prefix``) when k_M lies
    past a finite sequence's end, and ValueError when the table would
    exceed MAX_TABLE_CELLS cells.
    """
    if len(seqs) == 0:
        raise ValueError("need at least one sequence")
    checkpoints = check_checkpoints(checkpoints)
    points = np.asarray(points, dtype=np.float64)
    m, g, rows = len(seqs), points.size, checkpoints.size
    cells = (g + 1) ** m
    if rows * cells > MAX_TABLE_CELLS:
        raise ValueError(
            f"counting table of {rows} checkpoints x {g + 1}^{m} "
            f"grid cells exceeds {MAX_TABLE_CELLS} cells; use fewer grid "
            f"points, sequences or checkpoints")
    depth = int(checkpoints[-1])
    prefixes = [s.prefix(depth).values for s in seqs]
    strides = [(g + 1) ** (m - 1 - r) for r in range(m)]
    offsets = np.arange(rows, dtype=np.int64) * cells
    segments = np.diff(checkpoints, prepend=0)
    starts = np.arange(0, depth, _CHUNK)
    # Rows of the segments holding each slice's first and last index.
    first = np.searchsorted(checkpoints, starts + 1)
    last = np.searchsorted(checkpoints, np.minimum(starts + _CHUNK, depth))
    table = np.zeros(rows * cells, dtype=np.int64)
    for lo, i, j in zip(starts.tolist(), first.tolist(), last.tolist()):
        hi = min(lo + _CHUNK, depth)
        joint = np.searchsorted(points, prefixes[0][lo:hi], side="right")
        if m > 1:
            joint *= strides[0]
        for values, stride in zip(prefixes[1:], strides[1:]):
            joint += np.searchsorted(points, values[lo:hi],
                                     side="right") * stride
        if j > i:
            # The slice's pieces of segments i..j: clip the first and last.
            sizes = segments[i:j + 1].copy()
            sizes[0] = checkpoints[i] - lo
            sizes[-1] = hi - checkpoints[j - 1]
            joint += np.repeat(offsets[:j - i + 1], sizes)
        table[i * cells:(j + 1) * cells] += np.bincount(
            joint, minlength=(j - i + 1) * cells)
    table = table.reshape((rows,) + (g + 1,) * m)
    for axis in range(m + 1):
        np.cumsum(table, axis=axis, out=table)
    return table
