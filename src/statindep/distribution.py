"""Empirical distribution functions, Stieltjes sums, and approximation tools.

Conventions that everything downstream relies on:

* A :class:`StepCDF` evaluates as "mass strictly below x".  With that
  convention the empirical CDF of a sequence along a checkpoint index
  agrees *exactly* (same integer count, same single division) with the
  grid-counted density of {n : v(n) < x} at the deepest checkpoint, as
  ``selection.detect_measurable`` reports it.
* Stieltjes integration against a StepCDF is the finite weighted sum over
  jump points; it is exact for the measure, not a quadrature.
* "Continuity points" at finite depth are points whose neighborhood
  carries less than ``atom_tol`` of empirical mass; grids of such points
  serve as rectangle corners and step-function breakpoints.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import CheckpointError, EnvelopeError, GridError, IntervalError
from .sequences import BoundedSequence, Interval
from .subsequence import SubsequenceIndex, _check_index

MASS_TOL = 1e-12
# Samples of f per step cell in step_envelope, ends included.
CELL_SAMPLES = 33


class StepCDF:
    """Right-continuous nondecreasing step function with unit total mass.

    ``eval(x)`` returns the mass strictly below x: 0 for x <= a, the total
    mass (1 within 1e-12) for x > b.
    """

    def __init__(self, jump_points: np.ndarray, masses: np.ndarray,
                 interval: Interval, _cum: np.ndarray | None = None):
        points = np.asarray(jump_points, dtype=np.float64)
        m = np.asarray(masses, dtype=np.float64)
        if points.ndim != 1 or points.shape != m.shape or points.size == 0:
            raise IntervalError("jump points and masses must be matching nonempty 1-d arrays")
        if points.size > 1 and not np.all(np.diff(points) > 0):
            raise IntervalError("jump points must be strictly increasing")
        if points[0] < interval.a or points[-1] > interval.b:
            raise IntervalError(
                f"jump points must lie in [{interval.a}, {interval.b}]")
        if not np.all(m > 0):
            raise IntervalError("masses must be positive")
        cum = np.cumsum(m) if _cum is None else np.asarray(_cum, dtype=np.float64)
        if abs(cum[-1] - 1.0) > MASS_TOL:
            raise IntervalError(f"masses must sum to 1 within {MASS_TOL}, got {cum[-1]!r}")
        points.setflags(write=False)
        m.setflags(write=False)
        cum.setflags(write=False)
        self.jump_points = points
        self.masses = m
        self.interval = interval
        self._cum = cum

    @classmethod
    def from_counts(cls, points: np.ndarray, counts: np.ndarray, total: int,
                    interval: Interval) -> "StepCDF":
        """Empirical CDF from integer multiplicities.

        Cumulative masses are integer partial sums divided by ``total``, so
        each evaluation equals the corresponding counting ratio bit for bit.
        """
        counts = np.asarray(counts, dtype=np.int64)
        cum = np.cumsum(counts, dtype=np.int64) / total
        return cls(points, counts / total, interval, _cum=cum)

    @classmethod
    def from_values(cls, values: np.ndarray, interval: Interval) -> "StepCDF":
        """Empirical CDF of ``values``, one jump per distinct value."""
        points, counts = np.unique(values, return_counts=True)
        return cls.from_counts(points, counts, values.size, interval)

    def eval(self, x) -> np.ndarray | float:
        """Mass strictly below x (scalar in, scalar out)."""
        xs = np.asarray(x, dtype=np.float64)
        idx = np.searchsorted(self.jump_points, xs, side="left")
        below = np.where(idx > 0, self._cum[np.maximum(idx - 1, 0)], 0.0)
        return float(below) if np.isscalar(x) or xs.ndim == 0 else below

    @property
    def total_mass(self) -> float:
        return float(self._cum[-1])

    def heavy_atoms(self, threshold: float) -> np.ndarray:
        """Jump points carrying mass strictly above threshold."""
        return self.jump_points[self.masses > threshold]

    def to_json_obj(self) -> dict:
        """For :func:`reporting.canonical_json`; vectors are arrays."""
        return {"points": self.jump_points, "masses": self.masses}

    def __repr__(self) -> str:
        return (f"StepCDF({self.jump_points.size} jumps on "
                f"[{self.interval.a}, {self.interval.b}])")


def empirical_cdf(seq: BoundedSequence, kappa: SubsequenceIndex,
                  depth: int | None = None) -> StepCDF:
    """Empirical distribution of v(1..k_depth), one jump per distinct value.

    ``depth`` is the 1-based ordinal of the checkpoint (default: deepest).
    """
    depth = len(kappa) if depth is None else _check_index(depth, "depth")
    if not 1 <= depth <= len(kappa):
        raise CheckpointError(
            f"depth {depth} out of range 1..{len(kappa)}")
    k = int(kappa.checkpoints[depth - 1])
    return StepCDF.from_values(seq.prefix(k), seq.interval)


def cdf_eval(cdf: StepCDF, x: float) -> float:
    """Mass strictly below x."""
    return float(cdf.eval(float(x)))


def stieltjes(f: Callable, cdf: StepCDF) -> float:
    """Integral of f against the StepCDF measure: sum of f(x_j) * mass_j."""
    fx = np.asarray(f(cdf.jump_points), dtype=np.float64)
    if fx.shape != cdf.jump_points.shape:
        fx = np.broadcast_to(fx, cdf.jump_points.shape)
    finite = np.isfinite(fx)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(
            f"integrand is not finite at jump point "
            f"{float(cdf.jump_points[bad])!r}")
    return float(np.sum(fx * cdf.masses))


@dataclass(frozen=True)
class PiecewiseLinear:
    """Piecewise-linear function given by strictly increasing knots."""

    knots: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.knots) != len(self.values) or len(self.knots) < 2:
            raise ValueError("need matching knots/values, at least two")
        if any(x >= y for x, y in zip(self.knots, self.knots[1:])):
            raise ValueError("knots must be strictly increasing")

    def __call__(self, x):
        return np.interp(x, self.knots, self.values)


@dataclass(frozen=True)
class StepFunction:
    """Right-open step cells [e_j, e_{j+1}) over [a, b]; the last cell is closed."""

    edges: tuple[float, ...]
    levels: tuple[float, ...]

    def __post_init__(self):
        if len(self.edges) != len(self.levels) + 1 or len(self.levels) < 1:
            raise ValueError("need len(edges) == len(levels) + 1 >= 2")
        if any(x >= y for x, y in zip(self.edges, self.edges[1:])):
            raise ValueError("edges must be strictly increasing")

    def __call__(self, x):
        xs = np.asarray(x, dtype=np.float64)
        idx = np.searchsorted(np.asarray(self.edges), xs, side="right") - 1
        idx = np.clip(idx, 0, len(self.levels) - 1)
        out = np.asarray(self.levels, dtype=np.float64)[idx]
        return float(out) if np.isscalar(x) or xs.ndim == 0 else out


@dataclass(frozen=True)
class FunctionSandwich:
    """Continuous lower/upper bounds for an interval indicator."""

    lower: PiecewiseLinear
    upper: PiecewiseLinear
    gap_bound: float | None


@dataclass(frozen=True)
class StepEnvelope:
    """Step-function bounds s <= f <= S with a certified integral gap."""

    lower_step: StepFunction
    upper_step: StepFunction
    gap_bound: float


def _merged_blocked(cdfs: Sequence[StepCDF], atom_tol: float) -> list[tuple[float, float]]:
    """Open exclusion intervals around every atom of mass above atom_tol.

    The mass comparison is strict, so a uniform empirical CDF at depth
    exactly 1/atom_tol leaves the whole interval usable.  Touching
    intervals are kept separate: the touch point sits at distance exactly
    atom_tol from both atoms and is therefore allowed.
    """
    atoms: list[float] = []
    for cdf in cdfs:
        atoms.extend(cdf.heavy_atoms(atom_tol).tolist())
    if not atoms:
        return []
    atoms.sort()
    merged: list[tuple[float, float]] = []
    for p in atoms:
        lo, hi = p - atom_tol, p + atom_tol
        if merged and lo < merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _allowed_segments(interval: Interval,
                      blocked: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Closed segments of (a, b) clear of every exclusion interval.

    Zero-length segments (isolated allowed points) are legitimate.
    """
    a, b = interval.a, interval.b
    segments = []
    cursor = a
    for lo, hi in blocked:
        if lo > cursor:
            segments.append((cursor, min(lo, b)))
        cursor = max(cursor, hi)
        if cursor >= b:
            break
    if cursor < b:
        segments.append((cursor, b))
    # Trim the open outer endpoints a and b.
    out = []
    for lo, hi in segments:
        if lo == a:
            if hi == a:
                continue
            lo = np.nextafter(a, b) if hi > a else lo
        if hi == b:
            if lo == b:
                continue
            hi = np.nextafter(b, a)
        if lo <= hi:
            out.append((float(lo), float(hi)))
    return out


def check_count(count: int, atom_tol: float) -> int:
    """``count`` as an int, checked as :func:`continuity_grid` checks its
    arguments: TypeError unless it is an integer, ValueError unless it is
    >= 1 and ``atom_tol`` is positive."""
    number = _check_index(count, "count")
    if number < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not atom_tol > 0:
        raise ValueError(f"atom_tol must be positive, got {atom_tol}")
    return number


def continuity_grid(cdfs: Sequence[StepCDF], count: int, atom_tol: float = 1e-3,
                    interval: Interval | None = None) -> np.ndarray:
    """``count`` points in (a, b), each >= atom_tol away from every heavy atom.

    ``count`` must be an integer (TypeError) >= 1 and ``atom_tol``
    positive (ValueError).  Starts from the equispaced grid
    a + i*(b-a)/(count+1); blocked candidates are moved to the nearest
    clear position (ties resolve left), and any shortfall is filled from
    midpoints of the largest clear segments.  Deterministic throughout.
    """
    check_count(count, atom_tol)
    if interval is None:
        if not cdfs:
            raise ValueError("need an interval when no CDFs are supplied")
        interval = cdfs[0].interval
    for cdf in cdfs:
        if (cdf.interval.a, cdf.interval.b) != (interval.a, interval.b):
            raise IntervalError("all CDFs must share one interval")
    a, b = interval.a, interval.b
    blocked = _merged_blocked(cdfs, atom_tol)
    starts = np.asarray([lo for lo, _ in blocked])

    def relocate(x: float) -> float | None:
        if not blocked:
            return x
        i = int(np.searchsorted(starts, x, side="right")) - 1
        if i < 0 or x >= blocked[i][1]:
            return x
        lo, hi = blocked[i]
        options = [p for p in (lo, hi) if a < p < b]
        if not options:
            return None
        return min(options, key=lambda p: (abs(p - x), p))

    chosen: list[float] = []
    seen: set[float] = set()

    def choose(x: float) -> None:
        if x not in seen:
            seen.add(x)
            chosen.append(x)

    for i in range(1, count + 1):
        placed = relocate(a + i * (b - a) / (count + 1))
        if placed is not None:
            choose(placed)
    chosen.sort()

    if len(chosen) < count:
        # Largest clear segment first, then leftmost; the segments are
        # disjoint, so no two keys tie.
        heap = [(lo - hi, lo, hi)
                for lo, hi in _allowed_segments(interval, blocked)]
        heapq.heapify(heap)
        budget = 4 * count + 64
        while len(chosen) < count and heap and budget > 0:
            budget -= 1
            _, lo, hi = heapq.heappop(heap)
            mid = lo + (hi - lo) / 2.0
            choose(mid)
            if lo < mid:
                left = np.nextafter(mid, lo)
                heapq.heappush(heap, (lo - left, lo, left))
            if mid < hi:
                right = np.nextafter(mid, hi)
                heapq.heappush(heap, (right - hi, right, hi))
        chosen.sort()
        if len(chosen) < count:
            raise GridError(
                f"cannot place {count} atom-clear points on ({a}, {b}); "
                f"achievable: {len(chosen)}", achievable=len(chosen))
    return np.asarray(chosen, dtype=np.float64)


def sandwich_indicator(x: float, eps_width: float, interval: Interval,
                       cdf: StepCDF | None = None) -> FunctionSandwich:
    """Piecewise-linear ramps bracketing the indicator of [a, x).

    lower: 1 on [a, x - eps_width], descends to 0 at x.
    upper: 1 on [a, x], descends to 0 at x + eps_width (cut off at b).
    When ``cdf`` is given, gap_bound = F(x + eps_width) - F(x - eps_width),
    which dominates the integral of (upper - lower) against F.
    """
    a, b = interval.a, interval.b
    if not a < x < b:
        raise IntervalError(f"sandwich point {x} must lie strictly inside ({a}, {b})")
    if not eps_width > 0:
        raise IntervalError(f"eps_width must be positive, got {eps_width}")
    if x - eps_width <= a:
        raise IntervalError(
            f"eps_width {eps_width} too large: x - eps_width must stay above {a}")
    lower = PiecewiseLinear((a, x - eps_width, x, b), (1.0, 1.0, 0.0, 0.0))
    if x + eps_width < b:
        upper = PiecewiseLinear((a, x, x + eps_width, b), (1.0, 1.0, 0.0, 0.0))
    elif x + eps_width == b:
        upper = PiecewiseLinear((a, x, b), (1.0, 1.0, 0.0))
    else:
        tail = 1.0 - (b - x) / eps_width
        upper = PiecewiseLinear((a, x, b), (1.0, 1.0, tail))
    gap = None
    if cdf is not None:
        gap = cdf_eval(cdf, x + eps_width) - cdf_eval(cdf, x - eps_width)
    return FunctionSandwich(lower=lower, upper=upper, gap_bound=gap)


def step_envelope(f: Callable, cdfs: Sequence[StepCDF], eps: float,
                  atom_tol: float = 1e-3,
                  max_breakpoints: int = 10 ** 6) -> StepEnvelope:
    """Step functions s <= f <= S with integral gap below eps against every CDF.

    Breakpoints come from :func:`continuity_grid` and are refined (count
    doubles) until the achieved gap drops under ``eps``.  Levels per cell are
    the min/max of ``CELL_SAMPLES`` samples of f widened by the largest
    adjacent-sample jump, a margin that covers between-sample variation for
    the continuous targets this package integrates.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not cdfs:
        raise ValueError("need at least one CDF to certify the gap")
    interval = cdfs[0].interval
    a, b = interval.a, interval.b
    count = 9
    best_gap = np.inf
    best: tuple[StepFunction, StepFunction] | None = None
    while count <= max_breakpoints:
        grid = continuity_grid(cdfs, count, atom_tol=atom_tol, interval=interval)
        edges = (a, *map(float, grid), b)
        lo_levels = []
        hi_levels = []
        for left, right in zip(edges, edges[1:]):
            xs = np.linspace(left, right, CELL_SAMPLES)
            s = np.asarray(f(xs), dtype=np.float64)
            if s.shape != xs.shape:
                s = np.broadcast_to(s, xs.shape)
            mod = float(np.max(np.abs(np.diff(s)))) if s.size > 1 else 0.0
            lo_levels.append(float(s.min()) - mod)
            hi_levels.append(float(s.max()) + mod)
        lower = StepFunction(edges, tuple(lo_levels))
        upper = StepFunction(edges, tuple(hi_levels))
        gap = max(stieltjes(upper, cdf) - stieltjes(lower, cdf) for cdf in cdfs)
        if gap < best_gap:
            best_gap, best = gap, (lower, upper)
        if gap < eps:
            return StepEnvelope(lower_step=lower, upper_step=upper, gap_bound=gap)
        count = 2 * count + 1
    raise EnvelopeError(
        f"step envelope refinement exceeded {max_breakpoints} breakpoints; "
        f"best achieved gap {best_gap:.6g} (requested {eps:g})", best_gap=best_gap)
