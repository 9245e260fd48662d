"""Preimage counts and selective (kappa) densities.

Every count is a count of grid preimages {n : v(n) < x}, made by one
counting core: a :class:`Tally` bins each slice of values it is fed
against its sorted grid and adds the slice into a (checkpoint, grid cell)
table with one ``bincount``; a cumulative sum along each axis (a
summed-area table) then yields the exact count of every grid rectangle at
every checkpoint.  Tallies are fed from one chunk walk
(:func:`sequences.walk`): :func:`fill` fills any number of them,
:func:`grid_counts` one, and the schedule test fills the equivalence
harness's tallies from its own walk.  Nothing holds an array of one entry
per index.  The rectangle test, measurability detection and extraction all
count through it.  Densities are finite-prefix ratios count / k, reported
with a trailing-window Cauchy diagnostic (:class:`DensityEstimate`)
instead of a bare limit claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .sequences import BoundedSequence, walk
from .subsequence import check_checkpoints

# Largest grid_counts table, in int64 cells (512 MiB).  Its joint codes
# stay far below int64 overflow.
MAX_TABLE_CELLS = 2 ** 26


def sorted_unique(values) -> np.ndarray:
    """The distinct entries of ``values``, sorted: ``np.unique(values)``
    bit for bit for integer checkpoints and finite float grids (the same
    sort, keeping the first entry of each equal run, so the same one of
    0.0 and -0.0).  A plain ``np.unique`` call imports ``numpy.ma``
    (numpy 2.4), about 1 MB and 11-15 ms that no run otherwise needs.
    """
    arr = np.sort(np.ravel(values))
    keep = np.empty(arr.size, dtype=bool)
    keep[:1] = True
    np.not_equal(arr[1:], arr[:-1], out=keep[1:])
    return arr[keep]


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


def check_table_size(rows: int, points: int, m: int) -> None:
    """ValueError unless a table of ``rows`` checkpoints over ``points``
    grid points and ``m`` sequences fits in MAX_TABLE_CELLS cells."""
    if rows * (points + 1) ** m > MAX_TABLE_CELLS:
        raise ValueError(
            f"counting table of {rows} checkpoints x {points + 1}^{m} "
            f"grid cells exceeds {MAX_TABLE_CELLS} cells; use fewer grid "
            f"points, sequences or checkpoints")


class Tally:
    """Grid-rectangle counts of some of a walk's sequences at checkpoints.

    ``points`` holds the G sorted, unique grid points, ``checkpoints`` the
    strictly increasing k_1 < ... < k_M, and ``members`` the positions, in
    the walk, of the m sequences counted.  Fed every slice of the walk up
    to k_M by :meth:`add`, :meth:`table` returns int64 counts c of shape
    (M, G+1, ..., G+1), one axis per member, with
    c[i, j_1, ..., j_m] = #{n <= k_i : v_r(n) < x_{j_r} for every r} for
    j_r < G, while j_r = G leaves member r unbounded (see
    :func:`marginal`).

    Raises CheckpointError for checkpoints that are empty, below 1 or not
    strictly increasing, and ValueError when the table would exceed
    MAX_TABLE_CELLS cells, both before anything is counted.
    """

    def __init__(self, points: np.ndarray, checkpoints,
                 members: Sequence[int]):
        self.members = tuple(members)
        if not self.members:
            raise ValueError("need at least one sequence")
        self.checkpoints = check_checkpoints(checkpoints)
        self.points = np.asarray(points, dtype=np.float64)
        m, g, rows = len(self.members), self.points.size, self.checkpoints.size
        check_table_size(rows, g, m)
        self._cells = (g + 1) ** m
        self.depth = int(self.checkpoints[-1])
        self._strides = [(g + 1) ** (m - 1 - r) for r in range(m)]
        self._segments = np.diff(self.checkpoints, prepend=0)
        self._table = np.zeros(rows * self._cells, dtype=np.int64)
        self._counted: np.ndarray | None = None

    def add(self, lo: int, values: Sequence[np.ndarray | None]) -> None:
        """Count indices lo+1, lo+2, ... up to k_M: ``values[r]`` holds
        the walk's r-th sequence from index lo+1 on.

        A slice is binned as code(n) = #{j : x_j <= v(n)} (so v(n) < x_j
        exactly when code(n) <= j), its codes are combined into one joint
        code per index plus its checkpoint segment's offset, and one
        ``bincount`` adds it into the slice's rows of the table.
        """
        if lo >= self.depth:
            return
        hi = min(lo + values[self.members[0]].size, self.depth)
        checkpoints, cells = self.checkpoints, self._cells
        joint = None
        for r, stride in zip(self.members, self._strides):
            codes = np.searchsorted(self.points, values[r][:hi - lo],
                                    side="right")
            codes *= stride
            if joint is None:
                joint = codes
            else:
                joint += codes
        # Rows of the segments holding the slice's first and last index.
        i = int(np.searchsorted(checkpoints, lo + 1))
        j = int(np.searchsorted(checkpoints, hi))
        if j > i:
            # The slice's pieces of segments i..j: clip the first and last.
            sizes = self._segments[i:j + 1].copy()
            sizes[0] = checkpoints[i] - lo
            sizes[-1] = hi - checkpoints[j - 1]
            joint += np.repeat(np.arange(j - i + 1, dtype=np.int64) * cells,
                               sizes)
        self._table[i * cells:(j + 1) * cells] += np.bincount(
            joint, minlength=(j - i + 1) * cells)

    def table(self) -> np.ndarray:
        """The counts, once every index up to k_M has been added."""
        if self._counted is None:
            m, g = len(self.members), self.points.size
            table = self._table.reshape((self.checkpoints.size,)
                                        + (g + 1,) * m)
            for axis in range(m + 1):
                np.cumsum(table, axis=axis, out=table)
            self._counted = table
        return self._counted


def marginal(table: np.ndarray, r: int) -> np.ndarray:
    """Member r's (M, G+1) counts from a Tally's table: every other
    member's grid index fixed at G, which leaves it unbounded."""
    return table[(slice(None),) + tuple(slice(None) if k == r else -1
                                        for k in range(table.ndim - 1))]


def fill(seqs: Sequence[BoundedSequence], tallies: Sequence[Tally]) -> None:
    """Fill every tally from one walk: each sequence is generated once, up
    to the deepest checkpoint of the tallies that count it.  Raises
    SequenceExhausted, before counting, when that lies past a finite
    sequence's end."""
    depths = [max((t.depth for t in tallies if r in t.members), default=0)
              for r in range(len(seqs))]
    for lo, values in walk(seqs, depths):
        for tally in tallies:
            tally.add(lo, values)


def grid_counts(seqs: Sequence[BoundedSequence], points: np.ndarray,
                checkpoints: np.ndarray) -> np.ndarray:
    """Exact grid-rectangle counts of ``seqs`` at every checkpoint.

    One :class:`Tally` of every sequence, filled by :func:`fill`: the
    table's layout and errors are the Tally's, and SequenceExhausted is
    raised when k_M lies past a finite sequence's end.  Each sequence is
    generated once, a chunk of ``_CHUNK`` indices at a time, in
    O(k_M + M (G+1)^m) time and O(m _CHUNK + M (G+1)^m) memory.
    """
    if len(seqs) == 0:
        raise ValueError("need at least one sequence")
    tally = Tally(points, checkpoints, range(len(seqs)))
    fill(seqs, [tally])
    return tally.table()
