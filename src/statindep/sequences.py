"""Bounded deterministic sequences and their generators.

Every analysis in this package consumes sequences through
:class:`BoundedSequence`: a pure, re-entrant evaluator ``v(n)`` whose values
are confined to a declared closed interval.  Out-of-interval values are a
hard error, never clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    CheckpointError,
    IntervalError,
    RangeViolation,
    SequenceExhausted,
    SequenceFileError,
    SpecError,
)
from .subsequence import SubsequenceIndex


@dataclass(frozen=True)
class Interval:
    """Closed interval [a, b] with finite endpoints, a < b."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise IntervalError(f"interval endpoints must be finite, got [{self.a}, {self.b}]")
        if not self.a < self.b:
            raise IntervalError(f"interval requires a < b, got [{self.a}, {self.b}]")

    @property
    def length(self) -> float:
        return self.b - self.a

    def contains(self, x: float) -> bool:
        return self.a <= x <= self.b


UNIT = Interval(0.0, 1.0)

# Extended-precision constants for the usual irrational rotations.
ALPHA_SQRT2 = np.sqrt(np.longdouble(2)) - 1
ALPHA_SQRT3 = np.sqrt(np.longdouble(3)) - 1
ALPHA_GOLDEN = (np.sqrt(np.longdouble(5)) - 1) / 2

_NAMED_ALPHAS = {
    "sqrt2-1": ALPHA_SQRT2,
    "sqrt3-1": ALPHA_SQRT3,
    "sqrt5-1": np.sqrt(np.longdouble(5)) - 1,
    "golden": ALPHA_GOLDEN,
}

# Indices evaluated per batch, in blocks aligned to multiples of _CHUNK.
# A chunk's temporaries (16-byte longdouble for Kronecker) stay near 128 KiB,
# glibc's default mmap threshold; at 2^16 they are mapped and unmapped per
# chunk, and 4M Kronecker terms take 60x the page faults and are slower
# than evaluating them at once.
_CHUNK = 1 << 13


class BoundedSequence:
    """Deterministic real sequence v(1), v(2), ... inside a fixed interval.

    Evaluation is pure and nothing is cached (a
    :class:`MaterializedSequence` keeps only the read-only prefix it is
    made with): instances may be shared across concurrent readers with no
    synchronization.  The analyses read values through :meth:`chunks`
    (see also :func:`walk`), a block of ``_CHUNK`` indices at a time;
    :meth:`prefix` materializes a whole prefix for callers that need one
    array.
    """

    def __init__(self, interval: Interval, kind: str, label: str,
                 length: int | None = None):
        self._interval = interval
        self.kind = kind
        self.label = label
        self.length = length

    @property
    def interval(self) -> Interval:
        return self._interval

    def _eval_batch(self, ns: np.ndarray) -> np.ndarray:
        """Raw values for an int64 array of indices (n >= 1), unchecked.

        Each value depends on its own index only, so evaluating a range in
        pieces gives the same bits as evaluating it at once.
        """
        raise NotImplementedError

    def _check_range(self, ns: np.ndarray, values: np.ndarray) -> None:
        bad = (values < self._interval.a) | (values > self._interval.b)
        if bad.any():
            i = int(np.argmax(bad))
            raise RangeViolation(
                f"{self.label}: value {float(values[i])!r} at n={int(ns[i])} "
                f"lies outside [{self._interval.a}, {self._interval.b}]")

    def eval(self, n: int) -> float:
        """v(n) for n >= 1.  Deterministic; raises on out-of-interval values."""
        if n < 1:
            raise IndexError(f"sequence index must be >= 1, got {n}")
        if self.length is not None and n > self.length:
            raise SequenceExhausted(
                f"{self.label}: index n={n} beyond sequence length {self.length}")
        ns = np.asarray([n], dtype=np.int64)
        values = self._eval_batch(ns)
        self._check_range(ns, values)
        return float(values[0])

    def chunks(self, lo: int, hi: int) -> Iterator[np.ndarray]:
        """Range-checked values v(lo+1) ... v(hi), one block at a time.

        Blocks are aligned to absolute positions: every block but the
        first and last covers indices j*_CHUNK+1 .. (j+1)*_CHUNK, so the
        same indices fall in the same block whoever reads them.  Each
        block is evaluated when it is reached; a RangeViolation cites its
        index then.  SequenceExhausted is raised at once when ``hi`` lies
        past a finite sequence's end.
        """
        if not 0 <= lo <= hi:
            raise IndexError(f"chunk range must satisfy 0 <= lo <= hi, "
                             f"got {lo}, {hi}")
        if self.length is not None and hi > self.length:
            raise SequenceExhausted(
                f"{self.label}: prefix of length {hi} beyond sequence length "
                f"{self.length}")
        return self._chunks(lo, hi)

    def _chunks(self, lo: int, hi: int) -> Iterator[np.ndarray]:
        while lo < hi:
            stop = min((lo // _CHUNK + 1) * _CHUNK, hi)
            yield self._checked(lo, stop)
            lo = stop

    def _checked(self, lo: int, hi: int) -> np.ndarray:
        # A function of its own, so that a suspended chunk generator holds
        # neither the indices nor the values it has yielded.
        ns = np.arange(lo + 1, hi + 1, dtype=np.int64)
        values = np.asarray(self._eval_batch(ns), dtype=np.float64)
        self._check_range(ns, values)
        return values

    def prefix(self, n: int) -> "PrefixView":
        """Materialized, read-only v(1) ... v(n), elementwise equal to ``eval``.

        Uncached: each call evaluates the n values again, through
        :meth:`chunks`, into one new float64 array.
        """
        if n < 1:
            raise IndexError(f"prefix length must be >= 1, got {n}")
        values = np.empty(n, dtype=np.float64)
        lo = 0
        for chunk in self.chunks(0, n):
            values[lo:lo + chunk.size] = chunk
            lo += chunk.size
        values.setflags(write=False)
        return PrefixView(values=values, source=self, n=n)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.label}>"


@dataclass(frozen=True)
class PrefixView:
    """Read-only materialization of the first ``n`` terms of ``source``."""

    values: np.ndarray
    source: BoundedSequence
    n: int


class MaterializedSequence(BoundedSequence):
    """``source`` with its first ``n`` terms (all of them, for a shorter
    finite source) generated once and kept.

    For callers that must read whole prefixes anyway, such as empirical
    CDFs along several indices: chunks and prefixes within the kept terms
    are read-only slices of them, and anything past them is evaluated by
    ``source``.  Interval, label and length are the source's, so every
    value, report and error is the same as reading ``source``.
    """

    def __init__(self, source: BoundedSequence, n: int):
        if source.length is not None:
            n = min(n, source.length)
        self.source = source
        self.values = source.prefix(n).values
        super().__init__(source.interval, source.kind, source.label,
                         source.length)

    def _eval_batch(self, ns: np.ndarray) -> np.ndarray:
        if ns.max(initial=0) <= self.values.size:
            return self.values[ns - 1]
        return self.source._eval_batch(ns)

    def _chunks(self, lo: int, hi: int) -> Iterator[np.ndarray]:
        if hi > self.values.size:
            yield from self.source._chunks(lo, hi)
            return
        while lo < hi:
            stop = min((lo // _CHUNK + 1) * _CHUNK, hi)
            yield self.values[lo:stop]
            lo = stop

    def prefix(self, n: int) -> PrefixView:
        if not 1 <= n <= self.values.size:
            return super().prefix(n)
        return PrefixView(values=self.values[:n], source=self, n=n)


def walk(seqs: Sequence[BoundedSequence], depths: Sequence[int],
         width: int = _CHUNK) -> Iterator[tuple[int, list]]:
    """One pass over the first ``depths[r]`` terms of each ``seqs[r]``.

    Yields ``(lo, values)`` for lo = 0, width, 2*width, ...: ``values[r]``
    holds v_r(lo+1) ... v_r(min(lo + width, depths[r])), or is None once
    lo has reached ``depths[r]``.  ``width`` is a multiple of ``_CHUNK``;
    each sequence's :meth:`~BoundedSequence.chunks` are generated once,
    and, when ``width`` exceeds one chunk, copied into one buffer per
    sequence that the next step overwrites.
    """
    readers = [s.chunks(0, d) for s, d in zip(seqs, depths)]
    buffers = [np.empty(width) if width > _CHUNK else None for _ in seqs]
    for lo in range(0, max(depths, default=0), width):
        values = []
        for reader, depth, buffer in zip(readers, depths, buffers):
            if depth <= lo:
                values.append(None)
            elif buffer is None:
                values.append(next(reader))
            else:
                filled, stop = 0, min(width, depth - lo)
                while filled < stop:
                    chunk = next(reader)
                    buffer[filled:filled + chunk.size] = chunk
                    filled += chunk.size
                    # hold no chunk while the next is generated or we yield
                    del chunk
                values.append(buffer[:stop])
        yield lo, values


class KroneckerSequence(BoundedSequence):
    """v(n) = frac(n * alpha), evaluated in 80-bit extended precision.

    Per-term reduction mod 1 in extended precision keeps the orbit accurate
    to ~5e-13 absolute at n = 1e7; naive float64 accumulation would drift.
    ``alpha`` may be a float, an extended-precision scalar, a decimal string
    (parsed at extended precision), or one of the named constants
    "sqrt2-1", "sqrt3-1", "sqrt5-1", "golden".
    """

    def __init__(self, alpha, interval: Interval = UNIT):
        self.alpha = _parse_alpha(alpha)
        label = f"kronecker({float(self.alpha):.12g})"
        super().__init__(interval, "kronecker", label)

    def _eval_batch(self, ns: np.ndarray) -> np.ndarray:
        vals = ns.astype(np.longdouble)
        vals *= self.alpha
        vals %= np.longdouble(1.0)
        return vals.astype(np.float64)


def _parse_alpha(alpha) -> np.longdouble:
    if isinstance(alpha, str):
        if alpha in _NAMED_ALPHAS:
            return _NAMED_ALPHAS[alpha]
        try:
            return np.longdouble(alpha)
        except ValueError:
            raise SpecError(f"cannot parse kronecker alpha {alpha!r}") from None
    return np.longdouble(alpha)


class VanDerCorputSequence(BoundedSequence):
    """Radical-inverse (digit reversal) sequence in an integer base >= 2."""

    def __init__(self, base: int = 2, interval: Interval = UNIT):
        if int(base) != base or base < 2:
            raise SpecError(f"van der Corput base must be an integer >= 2, got {base}")
        self.base = int(base)
        super().__init__(interval, "van_der_corput", f"van_der_corput(base={base})")

    def _eval_batch(self, ns: np.ndarray) -> np.ndarray:
        # base^k <= n * base, so below this bound numer and denom fit int64;
        # larger indices reverse their digits in Python integers instead.
        big = ns >= -(-2 ** 63 // self.base)
        if not big.any():
            return self._eval_int64(ns)
        out = np.empty(ns.shape, dtype=np.float64)
        out[~big] = self._eval_int64(ns[~big])
        out[big] = [self._eval_exact(int(n)) for n in ns[big]]
        return out

    def _eval_exact(self, n: int) -> float:
        numer, denom = 0, 1
        while n:
            n, digit = divmod(n, self.base)
            numer = numer * self.base + digit
            denom *= self.base
        return numer / denom  # int / int is correctly rounded in Python

    def _eval_int64(self, ns: np.ndarray) -> np.ndarray:
        # Reverse the digits into an integer numerator and divide once, so
        # every value is the rational reversed(n)/base^k (correctly rounded
        # while both fit in 53 bits).
        remaining = ns.copy()
        numer = np.zeros(ns.shape, dtype=np.int64)
        denom = np.ones(ns.shape, dtype=np.int64)
        while remaining.max(initial=0) > 0:
            active = remaining > 0
            digits = remaining % self.base
            remaining = remaining // self.base
            numer[active] = numer[active] * self.base + digits[active]
            denom[active] *= self.base
        return numer / denom


class PeriodicSequence(BoundedSequence):
    """Cycles through a fixed tuple of values."""

    def __init__(self, values, interval: Interval = UNIT):
        vals = np.asarray(list(values), dtype=np.float64)
        if vals.size == 0:
            raise SpecError("periodic sequence needs at least one value")
        for v in vals:
            if not interval.contains(v):
                raise RangeViolation(
                    f"periodic value {float(v)!r} outside [{interval.a}, {interval.b}]")
        vals.setflags(write=False)
        self.values = vals
        short = ",".join(f"{v:g}" for v in vals[:4]) + (",..." if vals.size > 4 else "")
        super().__init__(interval, "periodic", f"periodic({short})")

    def _eval_batch(self, ns: np.ndarray) -> np.ndarray:
        return self.values[(ns - 1) % self.values.size]


class ConstantSequence(BoundedSequence):
    """v(n) = c for every n."""

    def __init__(self, value: float, interval: Interval = UNIT):
        if not interval.contains(value):
            raise RangeViolation(
                f"constant {float(value)!r} outside [{interval.a}, {interval.b}]")
        self.value = float(value)
        super().__init__(interval, "constant", f"constant({value:g})")

    def _eval_batch(self, ns: np.ndarray) -> np.ndarray:
        return np.full(ns.shape, self.value, dtype=np.float64)


class BlockSequence(BoundedSequence):
    """Alternating constant blocks of geometrically growing length.

    Block j (1-based) has length growth**j and carries ``low`` for odd j,
    ``high`` for even j.  Full-sequence densities of the level sets
    oscillate forever, while densities along the block-end checkpoints
    settle; this is the standard witness separating the two notions.
    """

    def __init__(self, low: float, high: float, growth: int,
                 interval: Interval | None = None):
        if not low < high:
            raise SpecError(f"block sequence requires low < high, got {low}, {high}")
        if int(growth) != growth or growth < 2:
            raise SpecError(f"block growth must be an integer >= 2, got {growth}")
        if interval is None:
            interval = Interval(low, high)
        if not (interval.contains(low) and interval.contains(high)):
            raise IntervalError(
                f"block levels {low}, {high} outside [{interval.a}, {interval.b}]")
        self.low = float(low)
        self.high = float(high)
        self.growth = int(growth)
        super().__init__(interval, "block",
                         f"block(low={low:g},high={high:g},growth={growth})")

    def _boundaries_upto(self, limit: int) -> list[int]:
        ends = []
        total = 0
        length = 1
        while True:
            length *= self.growth
            total += length
            if total > limit:
                break
            ends.append(total)
        return ends

    def block_ends(self, limit: int) -> SubsequenceIndex:
        """Checkpoint index of all block boundaries not exceeding ``limit``."""
        ends = self._boundaries_upto(limit)
        if not ends:
            raise CheckpointError(
                f"no block boundary at or below {limit} (growth={self.growth})")
        return SubsequenceIndex(ends, rule=f"block ends(growth={self.growth})",
                                name="block_ends")

    def _eval_batch(self, ns: np.ndarray) -> np.ndarray:
        bounds = np.asarray(self._boundaries_upto(int(ns.max()) * self.growth + 1),
                            dtype=np.int64)
        block = np.searchsorted(bounds, ns, side="left")
        return np.where(block % 2 == 0, self.low, self.high)


class AffineImageSequence(BoundedSequence):
    """v(n) = c * source(n) + d.

    The declared interval defaults to the image of the source interval;
    multiplication by a constant and adding a constant are weakly monotone
    in IEEE arithmetic, so the image never escapes the derived endpoints.
    """

    def __init__(self, source: BoundedSequence, c: float, d: float,
                 interval: Interval | None = None):
        if c == 0:
            raise SpecError("affine image with c=0 is a constant; use constant instead")
        self.source = source
        self.c = float(c)
        self.d = float(d)
        lo = c * source.interval.a + d
        hi = c * source.interval.b + d
        derived = Interval(min(lo, hi), max(lo, hi))
        super().__init__(interval or derived, "affine_image",
                         f"affine({c:g}*{source.label}+{d:g})",
                         length=source.length)

    def _eval_batch(self, ns: np.ndarray) -> np.ndarray:
        return self.c * self.source._eval_batch(ns) + self.d


class FileSequence(BoundedSequence):
    """Finite sequence backed by a one-value-per-line text file."""

    def __init__(self, values: np.ndarray, interval: Interval, path: str):
        vals = np.asarray(values, dtype=np.float64)
        vals.setflags(write=False)
        self.values = vals
        self.path = path
        super().__init__(interval, "file", f"file({path})", length=int(vals.size))

    def _eval_batch(self, ns: np.ndarray) -> np.ndarray:
        if ns.max(initial=0) > self.values.size:
            n = int(ns[int(np.argmax(ns > self.values.size))])
            raise SequenceExhausted(
                f"{self.label}: index n={n} beyond sequence length {self.values.size}")
        return self.values[ns - 1]


def make_block(low: float, high: float, growth: int,
               interval: Interval | None = None) -> BlockSequence:
    """Block sequence with growth**j-length blocks; see :class:`BlockSequence`."""
    return BlockSequence(low, high, growth, interval)


def load_sequence(path, interval: Interval) -> FileSequence:
    """Parse a one-real-per-line file into a file-backed sequence.

    Each line is read by ``float``.  Values are validated against
    ``interval`` on load; parse and range errors cite the 1-based line
    number of the first bad line.
    """
    lines = Path(path).read_text().splitlines()
    try:
        values = np.fromiter(map(float, lines), dtype=np.float64,
                             count=len(lines))
    except ValueError:
        raise _first_bad_line(path, lines, interval) from None
    inside = (values >= interval.a) & (values <= interval.b)
    if not inside.all():
        i = int(np.argmax(~inside))
        raise _outside(path, i, values[i], interval)
    if values.size == 0:
        raise SequenceFileError(f"{path}: file contains no values")
    return FileSequence(values, interval, str(path))


def _first_bad_line(path, lines: list[str], interval: Interval) -> Exception:
    """The error for the first line that does not parse or lies outside
    ``interval``, given that some line does not parse."""
    for i, raw in enumerate(lines):
        try:
            value = float(raw)
        except ValueError:
            return SequenceFileError(
                f"{path}: line {i + 1}: cannot parse {raw!r} as a real number")
        if not interval.contains(value):
            return _outside(path, i, value, interval)
    raise AssertionError("every line parses")


def _outside(path, i: int, value, interval: Interval) -> RangeViolation:
    return RangeViolation(f"{path}: line {i + 1}: value {float(value)!r} "
                          f"outside [{interval.a}, {interval.b}]")


def _fail(path: str, message: str):
    raise SpecError(f"{path}: {message}")


def _norm_int(value, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected an integer, got {value!r}")
    if isinstance(value, float):
        if not value.is_integer():
            _fail(path, f"expected an integer, got {value!r}")
        value = int(value)
    if minimum is not None and value < minimum:
        _fail(path, f"must be >= {minimum}, got {value}")
    return int(value)


def _norm_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        _fail(path, "number too large for a float")


def _norm_floats(value, path: str) -> list[float]:
    if not isinstance(value, (list, tuple)):
        _fail(path, f"expected an array of numbers, got {value!r}")
    return [_norm_float(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _norm_alpha(value, path: str):
    return value if isinstance(value, str) else _norm_float(value, path)


def _norm_str(value, path: str) -> str:
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {value!r}")
    return value


class SequenceKind(NamedTuple):
    """``build(**params, interval=...)`` plus a {parameter: coercer(value,
    path)} schema in normalized order, and defaults for absent parameters."""

    build: Callable[..., BoundedSequence]
    params: dict
    defaults: dict = {}


def normalize_spec(obj, where: str = "sequence") -> dict:
    """Check a sequence's JSON description; return its normalized form.

    That is ``{"kind", "interval": [a, b], "params"}`` with float endpoints
    (default [0, 1]) and the parameters coerced, in schema order, defaults
    filled in.  Unknown fields and parameters are rejected; errors cite the
    JSON path.  Only shapes and types are checked here: range checks belong
    to the constructors.  Normalizing twice gives the same dict.
    """
    if not isinstance(obj, dict):
        _fail(where, f"expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in ("kind", "interval", "params"):
            _fail(f"{where}.{key}", "unknown field")
    kind = obj.get("kind")
    if kind is None:
        _fail(f"{where}.kind", "missing")
    if not isinstance(kind, str) or kind not in SEQUENCE_KINDS:
        _fail(f"{where}.kind", f"unknown generator {kind!r}")
    raw_interval = obj.get("interval", [0.0, 1.0])
    if not isinstance(raw_interval, (list, tuple)) or len(raw_interval) != 2:
        _fail(f"{where}.interval", "expected [a, b]")
    ends = [_norm_float(v, f"{where}.interval[{i}]")
            for i, v in enumerate(raw_interval)]
    try:
        interval = Interval(*ends)
    except IntervalError as exc:
        raise SpecError(f"{where}.interval: {exc}") from None
    params = obj.get("params", {})
    if not isinstance(params, dict):
        _fail(f"{where}.params", "expected an object")

    schema = SEQUENCE_KINDS[kind]
    out = {}
    for key, coerce in schema.params.items():
        path = f"{where}.params.{key}"
        if key in params:
            out[key] = coerce(params[key], path)
        elif key in schema.defaults:
            out[key] = schema.defaults[key]
        else:
            _fail(path, "missing")
    for key in params:
        if key not in schema.params:
            _fail(f"{where}.params.{key}", f"unknown parameter for kind {kind!r}")
    return {"kind": kind, "interval": [interval.a, interval.b], "params": out}


def from_spec(obj, where: str = "sequence") -> BoundedSequence:
    """Build a sequence from its JSON description; the one spec-to-sequence path.

    ``obj`` is checked by :func:`normalize_spec`, a nested ``source`` spec is
    built first, and errors cite the JSON path: a constructor's ValueError
    or TypeError (its own :class:`SpecError` included) is cited at
    ``<where>.params``.
    """
    spec = normalize_spec(obj, where)
    params = {key: from_spec(value, f"{where}.params.{key}")
              if isinstance(value, dict) else value
              for key, value in spec["params"].items()}
    try:
        return SEQUENCE_KINDS[spec["kind"]].build(
            **params, interval=Interval(*spec["interval"]))
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{where}.params: {exc}") from None


SEQUENCE_KINDS: dict[str, SequenceKind] = {
    "kronecker": SequenceKind(KroneckerSequence, {"alpha": _norm_alpha}),
    "van_der_corput": SequenceKind(VanDerCorputSequence, {"base": _norm_int},
                                   {"base": 2}),
    "periodic": SequenceKind(PeriodicSequence, {"values": _norm_floats}),
    "constant": SequenceKind(ConstantSequence, {"value": _norm_float}),
    "block": SequenceKind(BlockSequence, dict(
        low=_norm_float, high=_norm_float, growth=_norm_int)),
    "affine_image": SequenceKind(AffineImageSequence, dict(
        c=_norm_float, d=_norm_float, source=normalize_spec)),
    "file": SequenceKind(load_sequence, {"path": _norm_str}),
}
