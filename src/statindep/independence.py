"""Joint-average versus product-of-averages tests for bounded sequences.

Two finite diagnostics are computed side by side:

* the multilinear forms ``delta_form`` (average of products) and
  ``product_form`` (product of averages) over a battery of test functions,
  traced along an increasing schedule of prefix lengths;
* the rectangle test: selective density of an intersected preimage
  rectangle against the product of the marginal empirical CDFs.

The equivalence harness runs both and reports whether their verdicts agree,
flagging a counterexample record when they do not.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .density import grid_codes, grid_counts
from .distribution import continuity_grid, empirical_cdf
from .errors import IntervalError, MeasurabilityError
from .selection import DEFAULT_TOL, DEFAULT_WINDOW, detect_measurable
from .sequences import BoundedSequence, Interval, UNIT
from .subsequence import SubsequenceIndex

MAX_TUPLE_ARITY = 5


@dataclass(frozen=True)
class NamedFunction:
    """A test integrand with a stable name and a known bound on [a, b]."""

    name: str
    fn: Callable
    sup_bound: float = 1.0

    def __call__(self, x):
        return self.fn(x)


@dataclass(frozen=True)
class FunctionBattery:
    """Finite stand-in for "every continuous function": named members."""

    members: tuple[NamedFunction, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("battery must have at least one member")
        names = [m.name for m in self.members]
        if len(set(names)) != len(names):
            raise ValueError(f"battery names must be unique, got {names}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(m.name for m in self.members)

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def member(self, name: str) -> NamedFunction:
        for m in self.members:
            if m.name == name:
                return m
        raise KeyError(f"no battery member named {name!r}")


def _normalizer(interval: Interval) -> Callable:
    a, length = interval.a, interval.length
    if math.copysign(1.0, a) == 1.0 and a == 0.0 and length == 1.0:
        # (x - 0.0) / 1.0 is x for every float64 (x - (-0.0) is not: it
        # maps -0.0 to +0.0), so a float64 array comes back as a view of
        # itself; ``[()]`` makes a 0-d result a numpy scalar, as the
        # arithmetic would
        return lambda x: np.asarray(x, dtype=np.float64)[()]
    return lambda x: (np.asarray(x, dtype=np.float64) - a) / length


def default_battery(interval: Interval = UNIT) -> FunctionBattery:
    """Bounded spanning set on [a, b]: constants, monomials, one harmonic pair,
    and a plateau ramp.  All are defined through t = (x - a)/(b - a).

    On [0, 1] (left end +0.0), ``x`` returns its float64 input itself, so a
    float64 array comes back as a view of the caller's array: callers must
    not write into a member's result."""
    t = _normalizer(interval)
    members = (
        NamedFunction("one", lambda x: np.ones_like(np.asarray(x, dtype=np.float64))),
        NamedFunction("x", t),
        NamedFunction("x2", lambda x: t(x) ** 2),
        NamedFunction("sin2pix", lambda x: np.sin(2.0 * np.pi * t(x))),
        NamedFunction("cos2pix", lambda x: np.cos(2.0 * np.pi * t(x))),
        NamedFunction("ramp", lambda x: np.clip(2.0 * t(x) - 0.5, 0.0, 1.0)),
    )
    return FunctionBattery(members)


def indicator_below(x: float, name: str | None = None) -> NamedFunction:
    """Indicator of [a, x) as a battery-compatible integrand."""
    label = name if name is not None else f"ind<{x:.6g}"
    return NamedFunction(label,
                         lambda v: (np.asarray(v, dtype=np.float64) < x)
                         .astype(np.float64))


def _check_aligned(seqs: Sequence[BoundedSequence], funcs: Sequence) -> None:
    if len(seqs) == 0 or len(seqs) != len(funcs):
        raise ValueError(
            f"need equally many sequences and integrands, at least one each; "
            f"got {len(seqs)} and {len(funcs)}")
    base = (seqs[0].interval.a, seqs[0].interval.b)
    for s in seqs[1:]:
        if (s.interval.a, s.interval.b) != base:
            raise IntervalError(
                f"sequences must share one interval; {s.label} lives on "
                f"[{s.interval.a}, {s.interval.b}], expected [{base[0]}, {base[1]}]")


def _apply(f, values: np.ndarray) -> np.ndarray:
    fx = np.asarray(f(values), dtype=np.float64)
    if fx.shape != values.shape:
        fx = np.broadcast_to(fx, values.shape).copy()
    return fx


def _battery_column(f, values: np.ndarray
                    ) -> tuple[np.ndarray | None, int, float]:
    """One (sequence, member) evaluation as ``(fx, run, first)``.

    ``run`` is the length of the leading stretch of f(v(n)) equal to its
    first value ``first``, so f is constant on the prefix of length N exactly
    when N <= run.  A member constant on the whole prefix (``one``, or any
    member on a constant sequence) keeps only the scalar: ``fx`` is None.
    """
    fx = _apply(f, values)
    differs = fx != fx[0]
    run = int(np.argmax(differs))
    if not differs[run]:
        return None, fx.size, float(fx[0])
    return fx, run, float(fx[0])


def _multilinear(first: Iterable[tuple], rest: Sequence[Sequence[tuple]],
                 schedule: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Deltas and products of every tuple at every schedule point.

    ``first`` yields the :func:`_battery_column` of each candidate for slot
    0 and ``rest[i]`` holds those of slot i+1, all evaluated on a prefix at
    least ``schedule[-1]`` long.  ``first`` may evaluate its columns on
    demand: each one is used for its mean row and its subtree of the walk
    and dropped before the next is drawn, so only one slot-0 column is held
    at a time.  Returns two arrays of shape ``(B_0, ..., B_{m-1}, S)``.

    A slot constant on the first N terms factors out of the delta at N:
    the delta is ``float(np.sum(term[:N]) / N)`` of the left-to-right
    product ``term`` of the varying slots (1.0 when none varies), times the
    constant slots' values in slot order.  A mean is the constant itself
    or ``float(np.sum(fx[:N]) / N)``, so every gap is exactly zero when
    only one slot varies.  Products of means are taken left to right.
    """
    means = [_mean_rows(column, schedule) for column in rest]
    shape = tuple(len(column) for column in rest) + (len(schedule),)
    # slot 0 starts every product, so only later slots need a buffer
    buffers = [None] + [np.empty(schedule[-1]) for _ in rest]
    first_means, deltas = [], []
    for column in first:
        first_means.append(_mean_rows([column], schedule)[0])
        out = np.empty(shape)
        _delta_walk([[column], *rest], buffers, schedule, out[None], 0,
                    len(schedule), None, ())
        deltas.append(out)
        del column  # before ``first`` evaluates the next one
    products = np.asarray(first_means)
    for rows in means:
        products = products[..., None, :] * rows
    return np.asarray(deltas), products


def _mean_rows(column: Sequence[tuple], schedule: Sequence[int]) -> np.ndarray:
    """Mean of each candidate of one slot at each schedule point."""
    rows = np.empty((len(column), len(schedule)))
    for j, (fx, run, first) in enumerate(column):
        for k, n in enumerate(schedule):
            rows[j, k] = first if n <= run else float(np.sum(fx[:n]) / n)
    return rows


def _delta_walk(columns, buffers, schedule, out, lo, hi, term, constants):
    """Fill ``out[..., lo:hi]`` for every choice of the remaining slots.

    Depth-first over slots: ``term`` is the product of the varying slots
    chosen so far (None when none varies), valid up to ``schedule[hi-1]``,
    and ``constants`` the chosen constant slots' values in slot order.  A
    slot's schedule points split where its constant run ends; the varying
    part extends ``term`` into this level's buffer, written once per tuple
    prefix and read only by deeper levels.
    """
    if not columns:
        for k in range(lo, hi):
            n = schedule[k]
            delta = float(np.sum(term[:n]) / n) if term is not None else 1.0
            for c in constants:
                delta *= c
            out[k] = delta
        return
    for j, (fx, run, first) in enumerate(columns[0]):
        split = bisect.bisect_right(schedule, run, lo, hi)
        if split > lo:
            _delta_walk(columns[1:], buffers[1:], schedule, out[j], lo, split,
                        term, constants + (first,))
        if split < hi:
            n = schedule[hi - 1]
            extended = fx if term is None else \
                np.multiply(term[:n], fx[:n], out=buffers[0][:n])
            _delta_walk(columns[1:], buffers[1:], schedule, out[j], split, hi,
                        extended, constants)


def _single_tuple(seqs: Sequence[BoundedSequence], funcs: Sequence,
                  N: int) -> tuple[float, float]:
    _check_aligned(seqs, funcs)
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    columns = [[_battery_column(f, s.prefix(N).values)]
               for s, f in zip(seqs, funcs)]
    deltas, products = _multilinear(columns[0], columns[1:], [N])
    return float(deltas.flat[0]), float(products.flat[0])


def delta_form(seqs: Sequence[BoundedSequence], funcs: Sequence,
               N: int) -> float:
    """Average of products: (1/N) sum_n prod_i f_i(v_i(n))."""
    return _single_tuple(seqs, funcs, N)[0]


def product_form(seqs: Sequence[BoundedSequence], funcs: Sequence,
                 N: int) -> float:
    """Product of averages: prod_i (1/N) sum_n f_i(v_i(n))."""
    return _single_tuple(seqs, funcs, N)[1]


def rectangle_count(seqs: Sequence[BoundedSequence], corners: Sequence[float],
                    N: int) -> int:
    """Number of n <= N with v_i(n) < x_i for every i.

    Corners above b simply see the whole interval; corners at or below a
    are rejected (the empty rectangle is never a continuity corner).
    """
    if len(seqs) == 0 or len(seqs) != len(corners):
        raise ValueError(
            f"need equally many sequences and corners, got {len(seqs)} "
            f"and {len(corners)}")
    _check_aligned(seqs, [None] * len(seqs))
    a = seqs[0].interval.a
    for x in corners:
        if x <= a:
            raise IntervalError(f"corner {x} must exceed the left endpoint {a}")
    mask = np.ones(N, dtype=bool)
    for s, x in zip(seqs, corners):
        mask &= s.prefix(N).values < x
    return int(np.count_nonzero(mask))


@dataclass
class TupleTrace:
    """Convergence record for one battery tuple along the schedule."""

    label: str
    function_names: tuple[str, ...]
    deltas: np.ndarray
    products: np.ndarray

    @property
    def gaps(self) -> np.ndarray:
        return self.deltas - self.products

    def to_json_obj(self) -> dict:
        return {
            "label": self.label,
            "functions": list(self.function_names),
            "delta": [float(v) for v in self.deltas],
            "product": [float(v) for v in self.products],
            "gap": [float(v) for v in self.gaps],
        }


@dataclass
class IndependenceReport:
    """Outcome of the schedule test over every battery tuple.

    verdict: "independent" when every terminal |gap| (and every rectangle
    residual, when present) is within tol; "dependent" when some terminal
    gap exceeds 3*tol without shrinking between the half-schedule point and
    the end; "inconclusive" otherwise.
    """

    schedule: tuple[int, ...]
    traces: list[TupleTrace]
    tol: float
    verdict: str
    max_terminal_gap: float
    battery_names: tuple[str, ...]
    rectangle_residuals: list["RectangleReport"] = field(default_factory=list)

    def gap_rows(self) -> list[tuple]:
        """Rows (N, tuple label, delta, product, gap) in canonical order."""
        rows = []
        for trace in self.traces:
            gaps = trace.gaps
            for j, n in enumerate(self.schedule):
                rows.append((n, trace.label, float(trace.deltas[j]),
                             float(trace.products[j]), float(gaps[j])))
        return rows

    def to_json_obj(self) -> dict:
        return {
            "schedule": list(self.schedule),
            "battery": list(self.battery_names),
            "tol": self.tol,
            "verdict": self.verdict,
            "max_terminal_gap": self.max_terminal_gap,
            "traces": [t.to_json_obj() for t in self.traces],
        }


def _verdict_from_gaps(traces: Sequence[TupleTrace], tol: float,
                       extra_residual: float = 0.0) -> tuple[str, float]:
    terminal = np.asarray([abs(float(t.gaps[-1])) for t in traces])
    max_terminal = float(terminal.max())
    if max_terminal <= tol and extra_residual <= tol:
        return "independent", max_terminal
    half = len(traces[0].gaps) // 2
    for t in traces:
        g_last = abs(float(t.gaps[-1]))
        g_half = abs(float(t.gaps[half]))
        if g_last > 3.0 * tol and g_last >= 0.5 * g_half:
            return "dependent", max_terminal
    return "inconclusive", max_terminal


def statind_test(seqs: Sequence[BoundedSequence], battery: FunctionBattery,
                 schedule: Sequence[int], tol: float) -> IndependenceReport:
    """Trace delta/product/gap for every battery tuple along the schedule.

    Tuples are all selections with repetition, one battery member per
    sequence; traces are listed sorted by tuple label.

    Cost: each (sequence, member) is evaluated once on the longest prefix,
    and its constant run is found once.  Tuples are walked depth-first, so
    each tuple prefix costs one elementwise product (B + B^2 + ... + B^m
    products of at most ``schedule[-1]`` terms, each level into one reused
    buffer), and each (tuple, N) one sum.  Memory: one float64 array per
    (sequence, member) that varies on the prefix for the sequences after
    the first, but only one at a time for the first sequence, whose
    columns are evaluated as the walk reaches them; members constant on
    the prefix (such as ``one``) as scalars; ``x`` on [0, 1] as the cached
    prefix itself; plus one buffer per slot after the first.
    Every value equals :func:`delta_form`/:func:`product_form` at that N
    bit for bit: both are single-tuple calls of the same kernel.
    """
    if len(battery) == 0:
        raise ValueError("battery must be nonempty")
    schedule = [int(n) for n in schedule]
    if not schedule:
        raise ValueError("schedule must be nonempty")
    if any(n < 1 for n in schedule) or any(
            x >= y for x, y in zip(schedule, schedule[1:])):
        raise ValueError(f"schedule must be strictly increasing and >= 1: {schedule}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    m = len(seqs)
    if m > MAX_TUPLE_ARITY:
        raise ValueError(
            f"tuple arity {m} exceeds the supported maximum {MAX_TUPLE_ARITY}")
    _check_aligned(seqs, [None] * m)

    values = [s.prefix(schedule[-1]).values for s in seqs]
    first = (_battery_column(member, values[0]) for member in battery)
    rest = [[_battery_column(member, v) for member in battery]
            for v in values[1:]]
    deltas, products = _multilinear(first, rest, schedule)
    traces = []
    for combo in itertools.product(range(len(battery)), repeat=m):
        names = tuple(battery.members[j].name for j in combo)
        traces.append(TupleTrace(label="*".join(names), function_names=names,
                                 deltas=deltas[combo],
                                 products=products[combo]))
    traces.sort(key=lambda t: t.label)

    verdict, max_terminal = _verdict_from_gaps(traces, tol)
    return IndependenceReport(schedule=tuple(schedule), traces=traces, tol=tol,
                              verdict=verdict, max_terminal_gap=max_terminal,
                              battery_names=battery.names)


@dataclass
class RectangleReport:
    """Residual table for the rectangle factorization test along one index."""

    kappa_label: str
    depth_checkpoint: int
    corners: list[tuple[float, ...]]
    densities: np.ndarray
    products: np.ndarray
    tol: float
    verdict: str

    @property
    def residuals(self) -> np.ndarray:
        return self.densities - self.products

    @property
    def max_abs_residual(self) -> float:
        return float(np.max(np.abs(self.residuals)))

    def rows(self) -> list[tuple]:
        """Rows (kappa, corners..., density, product, residual)."""
        out = []
        for i, corner in enumerate(self.corners):
            out.append((self.kappa_label, *[float(c) for c in corner],
                        float(self.densities[i]), float(self.products[i]),
                        float(self.residuals[i])))
        return out

    def to_json_obj(self) -> dict:
        return {
            "kappa": self.kappa_label,
            "depth_checkpoint": self.depth_checkpoint,
            "tol": self.tol,
            "verdict": self.verdict,
            "max_abs_residual": self.max_abs_residual,
            "corners": [list(map(float, c)) for c in self.corners],
            "density": [float(v) for v in self.densities],
            "product": [float(v) for v in self.products],
            "residual": [float(v) for v in self.residuals],
        }


def kappa_independence_test(seqs: Sequence[BoundedSequence],
                            kappa: SubsequenceIndex,
                            grid: np.ndarray,
                            tol: float,
                            window: int = DEFAULT_WINDOW,
                            measurability_tol: float = DEFAULT_TOL) -> RectangleReport:
    """Rectangle factorization residuals at the deepest checkpoint.

    For every corner tuple from the grid (one coordinate per sequence, in
    ``itertools.product`` order of the grid as given), residual = selective
    density of the preimage rectangle {n : v_i(n) < x_i for all i} minus
    the product of marginal CDF values.  Sequences must first pass the
    measurability check along kappa; failures are raised by name.

    Each prefix is binned once against the sorted grid, and one
    :func:`grid_counts` table up to the deepest checkpoint gives the exact
    count of every corner; the marginal CDF values come from the same
    table's one-dimensional marginals.  Every density and CDF value is the
    single division count / k.
    """
    if len(seqs) == 0:
        raise ValueError("need at least one sequence")
    if len(seqs) > MAX_TUPLE_ARITY:
        raise ValueError(
            f"tuple arity {len(seqs)} exceeds the supported maximum "
            f"{MAX_TUPLE_ARITY}")
    _check_aligned(seqs, [None] * len(seqs))
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")

    points = np.unique(grid)
    codes = []
    for s in seqs:
        codes.append(grid_codes(s, kappa.deepest, points))
        report = detect_measurable(s, kappa, grid, tol=measurability_tol,
                                   window=window, codes=codes[-1])
        if not report.measurable:
            worst = float(np.max(report.oscillations))
            raise MeasurabilityError(
                f"sequence {s.label} is not measurable along {kappa.label}: "
                f"worst grid-point oscillation {worst:.4g} exceeds "
                f"{measurability_tol:g}")
    return _rectangle_test(seqs, kappa, grid, tol, codes)


def _rectangle_test(seqs: Sequence[BoundedSequence], kappa: SubsequenceIndex,
                    grid: np.ndarray, tol: float,
                    codes: Sequence[np.ndarray]) -> RectangleReport:
    """The rectangle step of kappa_independence_test, on validated inputs
    whose measurability has already been checked.  ``codes[r]`` is
    ``grid_codes(seqs[r], kappa.deepest, np.unique(grid))``."""
    m, depth = len(seqs), kappa.deepest
    points, position = np.unique(grid, return_inverse=True)
    table = grid_counts(codes, points.size, np.asarray([depth]))[0]
    densities = (table[np.ix_(*[position] * m)] / depth).ravel()
    # Left-to-right products, as np.prod of the per-corner CDF values.
    products = np.ones(())
    for r in range(m):
        marginal = table[tuple(position if k == r else points.size
                               for k in range(m))]
        products = np.multiply.outer(products, marginal / depth)
    products = products.ravel()

    corners = list(itertools.product([float(x) for x in grid], repeat=m))
    residuals = densities - products
    verdict = "independent" if float(np.max(np.abs(residuals))) <= tol \
        else "dependent"
    return RectangleReport(kappa_label=kappa.label, depth_checkpoint=depth,
                           corners=corners, densities=densities,
                           products=products, tol=tol, verdict=verdict)


@dataclass
class KappaOutcome:
    """One family member's result inside the equivalence harness."""

    kappa_label: str
    tested: bool
    skip_reason: str | None
    report: RectangleReport | None

    def to_json_obj(self) -> dict:
        obj = {"kappa": self.kappa_label, "tested": self.tested}
        if self.skip_reason is not None:
            obj["skip_reason"] = self.skip_reason
        if self.report is not None:
            obj["rectangle"] = self.report.to_json_obj()
        return obj


@dataclass
class EquivalenceReport:
    """Side-by-side verdicts from the schedule test and the rectangle tests.

    agreement is False exactly when the two notions disagree beyond their
    tolerance bands on some tested index family member; the counterexample
    record then names the offending member and carries both verdicts.
    """

    statind: IndependenceReport
    outcomes: list[KappaOutcome]
    agreement: bool
    counterexample: dict | None

    def to_json_obj(self) -> dict:
        return {
            "statind": self.statind.to_json_obj(),
            "kappa_outcomes": [o.to_json_obj() for o in self.outcomes],
            "agreement": self.agreement,
            "counterexample": self.counterexample,
        }


def equivalence_harness(seqs: Sequence[BoundedSequence],
                        battery: FunctionBattery,
                        kappa_family: Sequence[SubsequenceIndex],
                        schedule: Sequence[int],
                        tol: float,
                        grid_count: int = 9,
                        atom_tol: float = 1e-3,
                        window: int = DEFAULT_WINDOW,
                        fixed_grid: np.ndarray | None = None) -> EquivalenceReport:
    """Run both tests and check that their verdicts agree.

    Rectangle tests run along every family member for which all sequences
    pass measurability detection; others are recorded as skipped.  A
    counterexample is a tested member whose rectangle verdict contradicts a
    decisive schedule verdict.  Corners default to a per-member continuity
    grid of grid_count points; fixed_grid overrides that everywhere.

    The schedule test uses ``tol``; the rectangle tests use ``2*tol``, and
    measurability uses ``selection.DEFAULT_TOL``.
    """
    if not kappa_family:
        raise ValueError("kappa family must be nonempty")
    statind = statind_test(seqs, battery, schedule, tol)

    outcomes: list[KappaOutcome] = []
    for kappa in kappa_family:
        if fixed_grid is not None:
            grid = np.asarray(fixed_grid, dtype=np.float64)
        else:
            cdfs = [empirical_cdf(s, kappa) for s in seqs]
            grid = continuity_grid(cdfs, grid_count, atom_tol=atom_tol)
        points = np.unique(grid)
        blocker, codes = None, []
        for s in seqs:
            codes.append(grid_codes(s, kappa.deepest, points))
            rep = detect_measurable(s, kappa, grid, tol=DEFAULT_TOL,
                                    window=window, codes=codes[-1])
            if not rep.measurable:
                blocker = s.label
                break
        if blocker is not None:
            outcomes.append(KappaOutcome(
                kappa_label=kappa.label, tested=False,
                skip_reason=f"sequence {blocker} not measurable along "
                            f"{kappa.label}", report=None))
            continue
        report = _rectangle_test(seqs, kappa, grid, 2 * tol, codes)
        outcomes.append(KappaOutcome(kappa_label=kappa.label, tested=True,
                                     skip_reason=None, report=report))
    outcomes.sort(key=lambda o: o.kappa_label)

    counterexample = None
    for outcome in outcomes:
        if not outcome.tested:
            continue
        r = outcome.report
        disagree = (statind.verdict == "independent" and r.verdict == "dependent") \
            or (statind.verdict == "dependent" and r.verdict == "independent")
        if disagree:
            counterexample = {
                "kappa": outcome.kappa_label,
                "statind_verdict": statind.verdict,
                "rectangle_verdict": r.verdict,
                "max_terminal_gap": statind.max_terminal_gap,
                "max_abs_residual": r.max_abs_residual,
                "rectangle": r.to_json_obj(),
            }
            break
    return EquivalenceReport(statind=statind, outcomes=outcomes,
                             agreement=counterexample is None,
                             counterexample=counterexample)
