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
import contextlib
import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from .density import (MAX_TABLE_CELLS, Tally, check_table_size, fill,
                      marginal, sorted_unique)
from .distribution import continuity_grid, empirical_cdf
from . import forkwalk
from .errors import IntervalError, MeasurabilityError
from .selection import (DEFAULT_TOL, DEFAULT_WINDOW, Extraction, check_grid,
                        _check_window, _measurability)
from .sequences import (_CHUNK, BoundedSequence, Interval,
                        MaterializedSequence, UNIT)
from .subsequence import SubsequenceIndex, _check_index

MAX_TUPLE_ARITY = 5


@dataclass(frozen=True)
class NamedFunction:
    """A test integrand with a stable name."""

    name: str
    fn: Callable
    # fn's value everywhere, when it is a known constant: the schedule
    # test then takes it as is and never scans the sequence for it
    constant: float | None = None

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
        NamedFunction("one", lambda x: np.ones_like(np.asarray(x, dtype=np.float64)),
                      constant=1.0),
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
    """f on ``values`` as float64 of their shape (a scalar is broadcast)."""
    return np.broadcast_to(np.asarray(f(values), dtype=np.float64),
                           values.shape)


def _constant_runs(seq: BoundedSequence, funcs: Sequence,
                   n: int) -> tuple[list[int], list[float]]:
    """``(runs, firsts)``: f(v(k)) equals ``first`` = f(v(1)) for the
    first ``run`` of the indices 1..n and differs at the next one, so f is
    constant on the prefix of length N exactly when N <= run.  A member
    that declares its ``constant`` is taken at its word; the others are
    scanned over ``seq.chunks`` until each has met its first differing
    value, and no further chunk is generated.  After the first chunk, a
    member that equals its first value at every value of the sequence's
    :meth:`~sequences.BoundedSequence.value_set` gets run = n at once.
    """
    runs: list = [n if getattr(f, "constant", None) is not None else None
                  for f in funcs]
    firsts: list = [getattr(f, "constant", None) for f in funcs]
    pending = [i for i, run in enumerate(runs) if run is None]
    lo = 0
    for chunk in seq.chunks(0, n) if pending else ():
        for i in list(pending):
            fx = _apply(funcs[i], chunk)
            if firsts[i] is None:
                firsts[i] = fx[0]
            differs = fx != firsts[i]
            if differs.any():
                runs[i] = lo + int(np.argmax(differs))
                pending.remove(i)
        values = seq.value_set() if lo == 0 and pending else None
        if values is not None:
            for i in list(pending):
                if np.all(_apply(funcs[i], values) == firsts[i]):
                    runs[i] = n
                    pending.remove(i)
        if not pending:
            break
        lo += chunk.size
    for i in pending:
        runs[i] = n
    return runs, [float(first) for first in firsts]


def _block_cuts(schedule: Sequence[int], start: int):
    """The cuts of the block of ``_CHUNK`` indices from ``start`` (0-based,
    a multiple of ``_CHUNK``) as ``(length, lo, hi)``: the block's first
    ``length`` indices, whose sum goes to schedule points [lo, hi).  A
    schedule point inside the block gets the block cut at the point, for
    itself alone; the whole block goes to the points at or past its end.
    """
    cut = bisect.bisect_left(schedule, start + _CHUNK)
    for j in range(bisect.bisect_right(schedule, start), cut):
        yield schedule[j] - start, j, j + 1
    if cut < len(schedule):
        yield _CHUNK, cut, len(schedule)


def _multilinear(seqs: Sequence[BoundedSequence], funcs: Sequence[Sequence],
                 schedule: Sequence[int],
                 tallies: Sequence[Tally] = ()) -> tuple[np.ndarray, np.ndarray]:
    """Deltas and products of every tuple at every schedule point.

    ``funcs[i]`` are the candidates for slot i, evaluated on the values of
    ``seqs[i]``.  Returns two arrays of shape ``(B_0, ..., B_{m-1}, S)``.

    Sum contract: a sum over n = 1..N is the sum, left to right in block
    order, of one sum per fixed absolute block of ``_CHUNK`` indices, the
    last block ending at N.  A block's sum is ``np.sum`` of the block when
    one slot varies, and otherwise the left-to-right elementwise product of
    the varying slots but the last, contracted with the last one by
    ``np.einsum``.  No BLAS call is made, so the bits do not depend on its
    thread count.

    A slot constant on the first N terms factors out at N.  A mean is the
    constant itself or the block-summed sum over N; a delta is the product,
    left to right in slot order, of the constant slots' values with the
    varying slots' block-summed mean in place of the first varying slot
    (just the constants when none varies), and a product of means is taken
    left to right.  So every gap is exactly zero when at most one slot
    varies.

    The sequences are read in one walk of one block a step (see
    :func:`forkwalk.steps`), after :func:`_constant_runs` has scanned each
    for its members' constant runs.  A candidate's digit at a schedule
    point is 0 where it is constant there and 1 + its row among its
    slot's varying members where it varies, and each step's block sums
    fill one table indexed by digits (see :func:`_block_table`).  Every
    (row, point) of a step, each slot's candidates and then each tuple in
    C order, reads the entry at its digits, an index fixed here.  Each
    step is computed by :func:`_compute_step`, in this process or a
    worker, and added here, every step in order, into one array of running
    sums: a block into every point past its start.  Nothing of length N is
    held.  The walk also feeds every tally, and runs on past the schedule
    to the deepest checkpoint of the tallies that count each sequence.

    Raises ValueError, naming the member and the sequence, when a
    member's mean at the last schedule point is NaN or infinite: it takes
    such a value on those terms, or declares such a ``constant``.
    """
    m, n_max, count = len(seqs), schedule[-1], len(schedule)
    ns = np.asarray(schedule, dtype=np.float64)
    # Per slot: each candidate's first value, whether it is constant at
    # each point and its digit there, the members that vary on the prefix
    # with their block matrix, and its candidates' rows ``sums`` of a
    # step's output and of the running sums.
    slots, first = [], 0
    for seq, column in zip(seqs, funcs):
        runs, firsts = _constant_runs(seq, column, n_max)
        varies = np.asarray(runs) < n_max
        constant = ns <= np.asarray(runs)[:, None]
        slots.append(SimpleNamespace(
            firsts=np.asarray(firsts)[:, None], constant=constant,
            digits=np.where(constant, 0, np.cumsum(varies)[:, None]),
            members=[f for f, flag in zip(column, varies) if flag],
            matrix=np.empty((int(np.sum(varies)), _CHUNK)),
            sums=slice(first, first + len(column))))
        first += len(column)
    # zeros: the all-zero entry (every slot constant) is never written,
    # nor read below (its delta is the constants' product); it keeps the
    # running sums that read it finite
    table = np.zeros(tuple(len(slot.members) + 1 for slot in slots))
    reads = [slot.digits * (stride // table.itemsize)
             for slot, stride in zip(slots, table.strides)]
    reads.append(functools.reduce(lambda left, right: left[..., None, :]
                                  + right, reads).reshape(-1, count))
    reads = np.concatenate(reads)
    # a product buffer for each slot between the first and the last
    buffers = [None] + [np.empty_like(slot.matrix) for slot in slots[1:-1]]
    kernel = SimpleNamespace(slots=slots, schedule=schedule, table=table,
                             reads=reads, out=np.zeros(reads.shape),
                             buffers=buffers)
    running = np.full(reads.shape, -0.0)  # -0.0 + x is x for every x

    # inf - inf in a sum is reported below, by member, not as a warning
    with np.errstate(invalid="ignore"), contextlib.closing(forkwalk.steps(
            seqs, n_max, functools.partial(_compute_step, kernel),
            tallies)) as steps:
        for start, step in steps:
            if step is not None:
                lo = bisect.bisect_right(schedule, start)
                running[:, lo:] += step[:, lo:]

    shape = tuple(len(column) for column in funcs)
    joint = running[first:].reshape(shape + (count,)) / ns
    deltas = products = varied = None
    for i, (seq, column, slot) in enumerate(zip(seqs, funcs, slots)):
        means = np.where(slot.constant, slot.firsts, running[slot.sums] / ns)
        for f, mean in zip(column, means[:, -1]):
            if not np.isfinite(mean):
                raise ValueError(
                    f"battery member {getattr(f, 'name', f)} is not finite "
                    f"on {seq.label} within its first {n_max} terms")
        products = means if products is None \
            else products[..., None, :] * means
        axes = (1,) * i + (len(column),) + (1,) * (m - 1 - i)
        constant = slot.constant.reshape(axes + (count,))
        factor = np.where(constant, slot.firsts.reshape(axes + (1,)),
                          joint if varied is None
                          else np.where(varied, 1.0, joint))
        deltas = factor if deltas is None else deltas * factor
        varied = ~constant if varied is None else varied | ~constant
    return deltas, products


def _compute_step(kernel, start: int, values: list) -> np.ndarray:
    """``kernel.out`` for the block at ``start``, whose values are
    ``values``: entry (row, p) is the block's sum for that row cut at
    schedule point p when the point lies inside the block, and whole when
    it lies past the block's end; entries for points at or before the
    block's start are left as they were.  On each cut of
    :func:`_block_cuts`, every varying member is evaluated straight into
    its slot's block matrix, the block table is filled and every row
    reads its entry at each of the cut's points."""
    slots, table, out = kernel.slots, kernel.table, kernel.out
    for length, lo, hi in _block_cuts(kernel.schedule, start):
        for slot, v in zip(slots, values):
            x = v[:length]
            for r, f in enumerate(slot.members):
                slot.matrix[r, :length] = f(x)  # a scalar is broadcast
        mats = [slot.matrix[:, :length] for slot in slots]
        for s, mat in enumerate(mats):  # one nonzero digit: a row sum
            after = len(mats) - s - 1
            table[(0,) * s + (slice(1, None),) + (0,) * after] = np.sum(
                mat, axis=1)
        _block_table(table, mats, kernel.buffers, (), None)
        out[:, lo:hi] = table.ravel()[kernel.reads[:, lo:hi]]
    return out


def _block_table(table, mats, buffers, prefix, term) -> None:
    """Fill the entries of ``table`` whose digits are ``prefix`` (one
    per slot before ``len(prefix)``, the last nonzero) and then at least
    two nonzero digits.  ``term`` is the left-to-right product of the
    prefix's rows, None when it is empty.

    For each slot s after the prefix, ``term`` times each of its rows is
    taken in one ``np.multiply`` into its buffer (its rows themselves when
    the prefix is empty), and every later slot is contracted with all of
    those products in one ``einsum``: the entries whose last two nonzero
    digits are at s and that slot.  Each product row is then the ``term``
    of a longer prefix.
    """
    m = len(mats)
    for s in range(len(prefix), m - 1):
        group = mats[s] if term is None else np.multiply(
            mats[s], term, out=buffers[s][:, :term.size])
        head = prefix + (0,) * (s - len(prefix))
        for t in range(s + 1, m):
            table[head + (slice(1, None),) + (0,) * (t - s - 1)
                  + (slice(1, None),) + (0,) * (m - t - 1)] \
                = np.einsum("jn,pn->pj", mats[t], group)
        if s < m - 2:
            for p, row in enumerate(group):
                _block_table(table, mats, buffers, head + (p + 1,), row)


def _single_tuple(seqs: Sequence[BoundedSequence], funcs: Sequence,
                  N: int) -> tuple[float, float]:
    _check_aligned(seqs, funcs)
    if _check_index(N, "N") < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    deltas, products = _multilinear(seqs, [[f] for f in funcs], [N])
    return float(deltas.flat[0]), float(products.flat[0])


def delta_form(seqs: Sequence[BoundedSequence], funcs: Sequence,
               N: int) -> float:
    """Average of products: (1/N) sum_n prod_i f_i(v_i(n))."""
    return _single_tuple(seqs, funcs, N)[0]


def product_form(seqs: Sequence[BoundedSequence], funcs: Sequence,
                 N: int) -> float:
    """Product of averages: prod_i (1/N) sum_n f_i(v_i(n))."""
    return _single_tuple(seqs, funcs, N)[1]


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
        """For :func:`reporting.canonical_json`; vectors are arrays."""
        return {
            "label": self.label,
            "functions": list(self.function_names),
            "delta": self.deltas,
            "product": self.products,
            "gap": self.gaps,
        }


@dataclass
class IndependenceReport:
    """Outcome of the schedule test over every battery tuple.

    verdict: "independent" when every terminal |gap| is within tol;
    "dependent" when some terminal gap exceeds 3*tol without shrinking
    between the half-schedule point and the end; "inconclusive" otherwise.
    """

    schedule: tuple[int, ...]
    traces: list[TupleTrace]
    tol: float
    verdict: str
    max_terminal_gap: float
    battery_names: tuple[str, ...]

    def gap_columns(self) -> list[np.ndarray]:
        """Columns N, tuple label, delta, product and gap for
        :func:`reporting.write_csv`, a row per trace and schedule point."""
        deltas = np.stack([t.deltas for t in self.traces]).ravel()
        products = np.stack([t.products for t in self.traces]).ravel()
        return [np.tile(self.schedule, len(self.traces)),
                np.repeat([t.label for t in self.traces], len(self.schedule)),
                deltas, products, deltas - products]

    def to_json_obj(self) -> dict:
        """For :func:`reporting.canonical_json`; vectors are arrays."""
        return {
            "schedule": list(self.schedule),
            "battery": list(self.battery_names),
            "tol": self.tol,
            "verdict": self.verdict,
            "max_terminal_gap": self.max_terminal_gap,
            "traces": [t.to_json_obj() for t in self.traces],
        }


def _verdict_from_gaps(traces: Sequence[TupleTrace],
                       tol: float) -> tuple[str, float]:
    terminal = np.asarray([abs(float(t.gaps[-1])) for t in traces])
    max_terminal = float(terminal.max())
    if max_terminal <= tol:
        return "independent", max_terminal
    half = len(traces[0].gaps) // 2
    for t in traces:
        g_last = abs(float(t.gaps[-1]))
        g_half = abs(float(t.gaps[half]))
        if g_last > 3.0 * tol and g_last >= 0.5 * g_half:
            return "dependent", max_terminal
    return "inconclusive", max_terminal


def _check_schedule_args(seqs: Sequence[BoundedSequence],
                         battery: FunctionBattery, schedule: Sequence[int],
                         tol: float) -> list[int]:
    """The schedule as ints, after :func:`statind_test`'s argument checks."""
    if len(battery) == 0:
        raise ValueError("battery must be nonempty")
    schedule = [_check_index(n, f"schedule[{i}]")
                for i, n in enumerate(schedule)]
    if not schedule:
        raise ValueError("schedule must be nonempty")
    if any(n < 1 for n in schedule) or any(
            x >= y for x, y in zip(schedule, schedule[1:])):
        raise ValueError(f"schedule must be strictly increasing and >= 1: {schedule}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if len(seqs) > MAX_TUPLE_ARITY:
        raise ValueError(f"tuple arity {len(seqs)} exceeds the supported "
                         f"maximum {MAX_TUPLE_ARITY}")
    _check_aligned(seqs, [None] * len(seqs))
    return schedule


def statind_test(seqs: Sequence[BoundedSequence], battery: FunctionBattery,
                 schedule: Sequence[int], tol: float,
                 tallies: Sequence[Tally] = ()) -> IndependenceReport:
    """Trace delta/product/gap for every battery tuple along the schedule.

    Tuples are all selections with repetition, one battery member per
    sequence; traces are listed sorted by tuple label.

    Sums: every sum over n = 1..N adds, left to right in block order, one
    sum per fixed absolute block of 2^13 indices, the last block ending at
    N.  A block's sum is ``np.sum`` of the block when one slot varies, and
    otherwise the left-to-right product of the varying slots but the last,
    contracted with the last by ``np.einsum`` (no BLAS, so no dependence
    on its thread count).  A slot constant on the first N terms factors
    out at N, and means use the same block sums, so the gap is exactly
    zero whenever at most one slot varies.

    Cost: a first pass reads each sequence's chunks until every battery
    member without a declared ``constant`` has met its first differing
    value, which gives its constant run; a member equal to its first
    value at every value the sequence can take (its ``value_set``, such
    as a block sequence's two levels) is known constant after the first
    chunk.  Then one walk reads the sequences one block a step: each
    member that varies is evaluated once per block (and once more for
    each schedule point inside it) into one block table of the sums of
    products of varying members (see :func:`_block_table`), and every
    (row, schedule point) of a step reads its entry of the table.
    When at least two CPUs are usable, no other thread is alive and the
    rest of the walk, projected from its first step, would take 0.1 s or
    more, one forked worker process computes every other step and pipes
    its sums back, one fixed-shape (row, schedule point) array a step;
    this process adds every step's sums in step order, so no bit
    depends on the worker, and kills and reaps it however the walk ends
    (see :mod:`forkwalk`).  Memory: O(m*B*2^13 + (B+1)^m*S) for m
    sequences, B members and S schedule points, independent of N: one
    block of values, one block matrix and (but the first and last) one
    product buffer per sequence, the table, one step's (row, point) sums,
    their table indices and one running sum per (row, N), in this process
    and again in the worker, which shares the rest of this process's
    pages; this process holds one more step's sums, into which the
    worker's are read.
    Every value equals :func:`delta_form`/:func:`product_form` at that N
    bit for bit: both are single-tuple calls of the same kernel.  A member
    that is NaN or infinite somewhere on a sequence's first N terms, at
    the last schedule point, raises ValueError naming both.

    ``tallies`` (see :class:`density.Tally`) are fed from the same walk,
    in whichever process walks each step, and the walk runs on to their
    deepest checkpoint, so every index of every sequence is generated
    once for both tests.
    """
    schedule = _check_schedule_args(seqs, battery, schedule, tol)
    m = len(seqs)

    deltas, products = _multilinear(seqs, [battery.members] * m, schedule,
                                    tallies)
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
    corners: np.ndarray  # (G^m, m), rows in itertools.product order
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

    def columns(self) -> list[np.ndarray]:
        """Columns kappa, corner_1..corner_m, density, product and residual,
        a row per corner, for :func:`reporting.write_csv`."""
        return [np.broadcast_to(self.kappa_label, len(self.corners)),
                *self.corners.T, self.densities, self.products, self.residuals]

    def to_json_obj(self) -> dict:
        """For :func:`reporting.canonical_json`; vectors are arrays."""
        return {
            "kappa": self.kappa_label,
            "depth_checkpoint": self.depth_checkpoint,
            "tol": self.tol,
            "verdict": self.verdict,
            "max_abs_residual": self.max_abs_residual,
            "corners": self.corners,
            "density": self.densities,
            "product": self.products,
            "residual": self.residuals,
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
    the product of marginal CDF values.  The grid must pass
    :func:`selection.check_grid`.  Each sequence, in order, must first pass
    :func:`detect_measurable` along kappa; the first that fails raises
    MeasurabilityError, whose ``report`` is its failing report, traced at
    kappa's last ``window`` checkpoints (all that its verdict reads).

    One walk (:func:`density.fill`) counts every sequence on its own at
    those checkpoints, which decides measurability and gives the marginal
    CDF values, and all of them jointly at the deepest checkpoint only,
    which gives the exact count of every corner: a (G+1)^m table of one
    row, so a grid whose joint table fits once but not ``window`` times
    still runs.  Every density and CDF value is the single division
    count / k.  The equivalence harness takes the same route from joint
    tables over every row it reads, whose margins are the marginal counts.
    """
    if len(seqs) == 0:
        raise ValueError("need at least one sequence")
    m = len(seqs)
    if m > MAX_TUPLE_ARITY:
        raise ValueError(
            f"tuple arity {m} exceeds the supported maximum {MAX_TUPLE_ARITY}")
    _check_aligned(seqs, [None] * m)
    grid = check_grid(seqs[0], grid, window)
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    _check_window(kappa, window)
    if not measurability_tol > 0:
        raise ValueError(f"tol must be positive, got {measurability_tol}")
    points, rows = sorted_unique(grid), kappa.checkpoints[-window:]
    tallies = [Tally(points, rows, [r]) for r in range(m)]
    joint = Tally(points, rows[-1:], range(m))
    fill(seqs, tallies + [joint])
    return _rectangle_test(seqs, kappa, grid, [t.table() for t in tallies],
                           joint.table()[0], tol, window, measurability_tol)


def _rectangle_test(seqs: Sequence[BoundedSequence], kappa: SubsequenceIndex,
                    grid: np.ndarray, marginals: Sequence[np.ndarray],
                    joint: np.ndarray, tol: float, window: int,
                    measurability_tol: float) -> RectangleReport:
    """The measurability verdicts and rectangle report along ``kappa``
    from counts over the sorted unique grid points: ``marginals[r]``
    holds sequence r's counts at kappa's last ``window`` checkpoints, in
    the layout of :func:`density.marginal`, and ``joint`` the joint counts
    of every sequence at kappa's deepest checkpoint, in the layout of one
    row of a :class:`density.Tally` table.
    """
    m, depth = len(seqs), kappa.deepest
    for r, s in enumerate(seqs):
        report = _measurability(s, kappa, grid, marginals[r],
                                measurability_tol, window)
        if not report.measurable:
            worst = float(np.max(report.oscillations))
            raise MeasurabilityError(
                f"sequence {s.label} is not measurable along {kappa.label}: "
                f"worst grid-point oscillation {worst:.4g} exceeds "
                f"{measurability_tol:g}", report=report)

    position = np.unique(grid, return_inverse=True)[1]
    densities = (joint[np.ix_(*[position] * m)] / depth).ravel()
    # Left-to-right products, as np.prod of the per-corner CDF values.
    products = np.ones(())
    for r in range(m):
        cdf = marginals[r][-1, position] / depth
        products = np.multiply.outer(products, cdf)
    products = products.ravel()

    corners = np.stack(np.meshgrid(*[grid] * m, indexing="ij"),
                       axis=-1).reshape(-1, m)
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
        """For :func:`reporting.canonical_json`; vectors are arrays."""
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
        """For :func:`reporting.canonical_json`; vectors are arrays."""
        return {
            "statind": self.statind.to_json_obj(),
            "kappa_outcomes": [o.to_json_obj() for o in self.outcomes],
            "agreement": self.agreement,
            "counterexample": self.counterexample,
        }


def _rows(tally: Tally, checkpoints: np.ndarray) -> np.ndarray:
    """The rows of ``tally``'s table at these of its checkpoints."""
    return tally.table()[np.searchsorted(tally.checkpoints, checkpoints)]


def equivalence_harness(seqs: Sequence[BoundedSequence],
                        battery: FunctionBattery,
                        kappa_family: Sequence[SubsequenceIndex | Extraction],
                        schedule: Sequence[int],
                        tol: float,
                        grid: int | np.ndarray = 9,
                        atom_tol: float = 1e-3,
                        window: int = DEFAULT_WINDOW) -> EquivalenceReport:
    """Run both tests and check that their verdicts agree.

    A family member is an index or an :class:`selection.Extraction`, which
    is extracted from its pool once the pool is counted.  The counts come
    from the walk that runs the schedule test, into one
    :class:`density.Tally` of every sequence jointly per distinct grid,
    whose rows are each index's last ``window`` checkpoints and each
    Extraction's whole pool; a sequence's own counts are the table's
    margins (:func:`density.marginal`).  Each member's rectangle test,
    with tolerance ``2*tol``, then reads its last ``window`` rows the way
    :func:`kappa_independence_test` reads its own; a member along which a
    sequence is not measurable is recorded as skipped, naming the
    sequence.  A counterexample is a tested member whose rectangle
    verdict contradicts a decisive schedule verdict.  Of an index the
    harness reads only its label, its last ``window`` checkpoints (the
    deepest among them) and whether it has that many, so a member built
    as just those checkpoints (``last`` of :func:`selection.kappa_member`)
    gives the same report.

    The walk's tables share ``MAX_TABLE_CELLS`` cells, taken in family
    order.  An index whose rows do not fit in what is left is tested by
    :func:`kappa_independence_test`, in a walk of its own, after the
    schedule test.  An Extraction whose pool rows do not fit, or whose
    pool runs past a finite sequence's end, is extracted first, in a walk
    of its own, and then counted as an index.

    An int ``grid`` is a count: each member's corners are then
    :func:`continuity_grid` of that many points, clear of the atoms of
    every sequence's empirical CDF along the member, and an Extraction is
    extracted first, along such a grid for its pool.  Those CDFs sort
    whole prefixes, so each sequence is then generated once, up to the
    deepest checkpoint or schedule point anything reads, and kept
    (:class:`sequences.MaterializedSequence`) for every CDF and walk.
    Anything else is the grid points for every member.  The schedule test
    uses ``tol``, and measurability ``selection.DEFAULT_TOL``.
    Every argument, and the size of every table, is checked before the
    schedule test runs, and that of one joint row before any grid is
    placed.
    """
    if not kappa_family:
        raise ValueError("kappa family must be nonempty")
    # Reject bad arguments before the schedule test runs the whole
    # battery, with the errors the later steps would raise.
    schedule = _check_schedule_args(seqs, battery, schedule, tol)
    m = len(seqs)
    count = isinstance(grid, numbers.Integral)
    if count:
        # continuity_grid's own checks of the count and atom_tol
        continuity_grid([], grid, atom_tol=atom_tol,
                        interval=seqs[0].interval)
    points = check_grid(seqs[0], None if count else grid, window)
    check_table_size(1, grid if count else sorted_unique(points).size, m)
    for member in kappa_family:
        if not isinstance(member, Extraction):
            _check_window(member, window)
    if count:
        depth = max([schedule[-1]] + [
            (k.pool if isinstance(k, Extraction) else k).deepest
            for k in kappa_family])
        seqs = [MaterializedSequence(s, depth) for s in seqs]

    def grid_along(kappa: SubsequenceIndex) -> np.ndarray:
        if not count:
            return points
        return continuity_grid([empirical_cdf(s, kappa) for s in seqs],
                               grid, atom_tol=atom_tol)

    # Per distinct grid, the checkpoints at which the walk counts every
    # sequence jointly.
    plans: dict[bytes, SimpleNamespace] = {}
    free = MAX_TABLE_CELLS

    def plan(member_grid, rows):
        """The plan of ``member_grid`` with ``rows`` added, or None when
        its new rows do not fit in the cells left."""
        nonlocal free
        unique = sorted_unique(member_grid)
        found = plans.get(unique.tobytes()) or SimpleNamespace(
            points=unique, rows=rows[:0])
        union = sorted_unique(np.concatenate((found.rows, rows)))
        cells = (union.size - found.rows.size) * (unique.size + 1) ** m
        if cells > free:
            return None
        free -= cells
        found.rows = union
        plans[unique.tobytes()] = found
        return found

    members = []
    for member in kappa_family:
        if isinstance(member, Extraction):
            pool = member.pool
            reached = all(s.length is None or s.length >= pool.deepest
                          for s in seqs)
            found = plan(points, pool.checkpoints) \
                if reached and not count else None
            if found is not None:
                members.append((member, points, found))
                continue
            member = member.extract(seqs, grid_along(pool))
            _check_window(member, window)
        member_grid = grid_along(member)
        members.append((member, member_grid,
                        plan(member_grid, member.checkpoints[-window:])))
    for found in plans.values():
        found.tally = Tally(found.points, found.rows, range(m))
    statind = statind_test(seqs, battery, schedule, tol,
                           tallies=[found.tally for found in plans.values()])

    outcomes: list[KappaOutcome] = []
    for kappa, member_grid, found in members:
        if isinstance(kappa, Extraction):
            # the rows over the pool hold every count it reads
            pool_table = _rows(found.tally, kappa.pool.checkpoints)
            kappa = kappa.extract(seqs, member_grid, counts=[
                marginal(pool_table, r) for r in range(m)])
            _check_window(kappa, window)
        report = skip_reason = None
        try:
            if found is None:
                report = kappa_independence_test(seqs, kappa, member_grid,
                                                 2 * tol, window=window)
            else:
                table = _rows(found.tally, kappa.checkpoints[-window:])
                report = _rectangle_test(
                    seqs, kappa, member_grid,
                    [marginal(table, r) for r in range(m)], table[-1],
                    2 * tol, window, DEFAULT_TOL)
        except MeasurabilityError as err:
            skip_reason = (f"sequence {err.report.sequence_label} not "
                           f"measurable along {kappa.label}")
        outcomes.append(KappaOutcome(kappa_label=kappa.label,
                                     tested=report is not None,
                                     skip_reason=skip_reason, report=report))
    outcomes.sort(key=lambda o: o.kappa_label)

    counterexample = None
    for outcome in outcomes:
        if not outcome.tested:
            continue
        r = outcome.report
        if {statind.verdict, r.verdict} == {"independent", "dependent"}:
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
