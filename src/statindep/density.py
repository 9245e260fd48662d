"""Counting functions, asymptotic density, and selective (kappa) density.

A subset S of the naturals is described by a deterministic membership
predicate.  Densities are finite-prefix ratios count(S, N) / N reported
with a trailing-window Cauchy diagnostic instead of a bare limit claim.

Preimages of grid windows [a, x) have a faster route, the grid-binned
counting core (:func:`grid_codes`, :func:`grid_counts`): each sequence's
prefix is binned once against the sorted grid, and one ``bincount`` plus a
cumulative sum along each axis (a summed-area table) yields the exact count
of every grid rectangle at every checkpoint.  The rectangle test,
measurability detection and extraction all count through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import CheckpointError, IntervalError
from .sequences import BoundedSequence
from .subsequence import SubsequenceIndex

# Largest grid_counts table, in int64 cells (512 MiB).  Its joint codes
# stay far below int64 overflow.
MAX_TABLE_CELLS = 2 ** 26


@dataclass
class SetMembership:
    """Deterministic membership test for a subset of the naturals.

    ``indicator(N)`` returns membership of 1..N as a bool array; factory
    functions that can do better attach a vectorized ``bulk`` implementation,
    otherwise the predicate is looped.
    """

    description: str
    predicate: Callable[[int], bool]
    bulk: Callable[[int], np.ndarray] | None = None

    def contains(self, n: int) -> bool:
        return bool(self.predicate(n))

    def indicator(self, n_max: int) -> np.ndarray:
        if self.bulk is not None:
            out = np.asarray(self.bulk(n_max), dtype=bool)
        else:
            out = np.fromiter((self.predicate(n) for n in range(1, n_max + 1)),
                              dtype=bool, count=n_max)
        return out

    def complement(self) -> "SetMembership":
        bulk = None if self.bulk is None else (lambda n_max: ~self.indicator(n_max))
        return SetMembership(description=f"not({self.description})",
                             predicate=lambda n: not self.predicate(n),
                             bulk=bulk)


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

    def ratios(self) -> np.ndarray:
        return self.trace_ratios


def prefix_count(s: SetMembership, n: int) -> int:
    """|S intersect [1, n]|, exactly."""
    if n < 1:
        raise ValueError(f"prefix length must be >= 1, got {n}")
    return int(s.indicator(n).sum())


def kappa_density(s: SetMembership, kappa: SubsequenceIndex,
                  tol: float = 1e-2, window: int = 5) -> DensityEstimate:
    """Density of S along the checkpoints of kappa.

    The counting pass is exact (integer cumulative sums over the per-n
    indicator of S); each trace ratio is the single correctly rounded
    division count / k.  This is the general route for any membership set;
    grid preimages are counted by :func:`grid_counts`, which gives the same
    integers.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if len(kappa) < window:
        raise CheckpointError(
            f"kappa has {len(kappa)} checkpoints but the diagnostic window needs "
            f"{window}; deepen kappa")
    checkpoints = kappa.checkpoints
    csum = np.cumsum(s.indicator(int(checkpoints[-1])), dtype=np.int64)
    return DensityEstimate.from_counts(checkpoints, csum[checkpoints - 1],
                                       tol, window)


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


def preimage(seq: BoundedSequence, lo: float, hi: float,
             closed_right: bool = False) -> SetMembership:
    """The set {n : v(n) in [lo, hi)} (or [lo, b] with ``closed_right``).

    ``closed_right`` is only meaningful for hi == b, where it closes the
    interval so the full-interval preimage carries total mass.
    """
    b = seq.interval.b
    check_window(seq, lo, hi)
    if closed_right and hi != b:
        raise IntervalError(
            f"closed_right is only available for the full right endpoint {b}, got {hi}")

    if closed_right:
        def predicate(n: int) -> bool:
            return lo <= seq.eval(n)

        def bulk(n_max: int) -> np.ndarray:
            return seq.prefix(n_max).values >= lo

        desc = f"{seq.label}^-1([{lo:g}, {hi:g}])"
    else:
        def predicate(n: int) -> bool:
            return lo <= seq.eval(n) < hi

        def bulk(n_max: int) -> np.ndarray:
            vals = seq.prefix(n_max).values
            return (vals >= lo) & (vals < hi)

        desc = f"{seq.label}^-1([{lo:g}, {hi:g}))"
    return SetMembership(description=desc, predicate=predicate, bulk=bulk)


def intersect(sets: Sequence[SetMembership]) -> SetMembership:
    """Conjunction of the given membership sets."""
    if not sets:
        raise ValueError("intersect needs at least one set")
    if len(sets) == 1:
        only = sets[0]
        return SetMembership(description=only.description,
                             predicate=only.predicate, bulk=only.bulk)
    members = list(sets)

    def predicate(n: int) -> bool:
        return all(s.predicate(n) for s in members)

    def bulk(n_max: int) -> np.ndarray:
        out = members[0].indicator(n_max)
        for s in members[1:]:
            out = out & s.indicator(n_max)
        return out

    return SetMembership(description=" & ".join(s.description for s in members),
                         predicate=predicate, bulk=bulk)


def from_predicate(predicate: Callable[[int], bool], description: str,
                   bulk: Callable[[int], np.ndarray] | None = None) -> SetMembership:
    """Wrap a plain predicate; supply ``bulk`` when a vectorized form exists."""
    return SetMembership(description=description, predicate=predicate, bulk=bulk)
