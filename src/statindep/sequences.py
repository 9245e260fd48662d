"""Bounded deterministic sequences and their generators.

Every analysis in this package consumes sequences through
:class:`BoundedSequence`: a pure, re-entrant evaluator ``v(n)`` whose values
are confined to a declared closed interval.  Out-of-interval values are a
hard error, never clamped.

Values are read one way, through :meth:`BoundedSequence.chunks`: in
blocks of ``_CHUNK`` indices aligned to absolute positions, each block
range-checked when it is reached.  ``eval`` and ``prefix`` read through
it, and so does :func:`forkwalk.steps`, which walks several sequences in
step and may give every other step to one forked worker process.  Each
value depends on its own index only, so no bit depends on which process
reads which step.  No prefix is kept between reads: a caller that reads
one twice (an empirical CDF, a count grid's heavy atoms, a walk) has it
generated twice.
"""

from __future__ import annotations

import bisect
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

from ._pcg64 import _MASK64, _MASK128, _mul_add, _split
from .errors import (
    CheckpointError,
    IntervalError,
    RangeViolation,
    SequenceExhausted,
    SequenceFileError,
    SpecError,
)
from .subsequence import SubsequenceIndex, _check_index


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

# Names of the usual irrational rotations, kept as floor(alpha 2^128)
# from integer square roots.
ALPHA_SQRT2, ALPHA_SQRT3, ALPHA_GOLDEN = "sqrt2-1", "sqrt3-1", "golden"

_NAMED_ALPHAS = {"sqrt2-1": math.isqrt(2 << 256) - (1 << 128),
                 "sqrt3-1": math.isqrt(3 << 256) - (1 << 128),
                 "sqrt5-1": math.isqrt(5 << 256) - (1 << 128),
                 "golden": (math.isqrt(5 << 256) - (1 << 128)) >> 1}

# Indices evaluated per batch, in blocks aligned to multiples of _CHUNK.
# A chunk's arrays (8-byte limbs and values for Kronecker) take 64 KiB
# each, below glibc's default 128 KiB mmap threshold; at 2^16 they are
# mapped and unmapped per chunk, and 4M terms take 60x the page faults and
# are slower than evaluating them at once.
_CHUNK = 1 << 13


class BoundedSequence:
    """Deterministic real sequence v(1), v(2), ... inside a fixed interval.

    Evaluation is pure and nothing is cached: instances may be shared
    across concurrent readers with no synchronization, and a prefix read
    twice is generated twice.  Every value is read through
    :meth:`chunks`, a block of ``_CHUNK`` indices at a time; :meth:`eval`
    reads one value and :meth:`prefix` a whole prefix as one array.
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
        """Raw values for an int64 array of consecutive indices n >= 1, as
        :meth:`_block` passes them, unchecked.

        Each value depends on its own index only, so evaluating a range in
        pieces gives the same bits as evaluating it at once.
        """
        raise NotImplementedError

    def _check_range(self, ns: np.ndarray, values: np.ndarray) -> None:
        # NaN fails both comparisons, so it is out of range too
        bad = ~((values >= self._interval.a) & (values <= self._interval.b))
        if bad.any():
            i = int(np.argmax(bad))
            raise RangeViolation(
                f"{self.label}: value {float(values[i])!r} at n={int(ns[i])} "
                f"lies outside [{self._interval.a}, {self._interval.b}]")

    def eval(self, n: int) -> float:
        """v(n) for n >= 1: the one value of ``chunks(n - 1, n)``."""
        if _check_index(n, "n") < 1:
            raise IndexError(f"sequence index must be >= 1, got {n}")
        return float(next(self.chunks(n - 1, n))[0])

    def chunks(self, lo: int, hi: int) -> Iterator[np.ndarray]:
        """Range-checked values v(lo+1) ... v(hi), one block at a time.

        Blocks are aligned to absolute positions: every block but the
        first and last covers indices j*_CHUNK+1 .. (j+1)*_CHUNK, so the
        same indices fall in the same block whoever reads them.  Each
        block is evaluated when it is reached; a RangeViolation cites its
        index then.  SequenceExhausted is raised at once when ``hi`` lies
        past a finite sequence's end; TypeError unless both bounds are
        integers.
        """
        if not 0 <= _check_index(lo, "lo") <= _check_index(hi, "hi"):
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
            yield self._block(lo, stop)
            lo = stop

    def _block(self, lo: int, hi: int) -> np.ndarray:
        """Range-checked v(lo+1) ... v(hi), within one aligned block."""
        # A function of its own, so that a suspended chunk generator holds
        # neither the indices nor the values it has yielded.
        ns = np.arange(lo + 1, hi + 1, dtype=np.int64)
        values = np.asarray(self._eval_batch(ns), dtype=np.float64)
        self._check_range(ns, values)
        return values

    def value_set(self) -> np.ndarray | None:
        """The sorted, finite set of values the sequence can take, or None
        when it is not known to be small.  Distinct bit patterns are
        distinct values, so -0.0 and 0.0 both stay."""
        return None

    def prefix(self, n: int) -> np.ndarray:
        """Read-only float64 v(1) ... v(n), elementwise equal to ``eval``.

        Uncached: each call reads the n values again, through
        :meth:`chunks`, into one new array.
        """
        if _check_index(n, "n") < 1:
            raise IndexError(f"prefix length must be >= 1, got {n}")
        chunks = self.chunks(0, n)  # SequenceExhausted before any memory
        values = np.empty(n, dtype=np.float64)
        _copy_chunks(chunks, values)
        values.setflags(write=False)
        return values

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.label}>"


def _copy_chunks(chunks: Iterator[np.ndarray], out: np.ndarray) -> np.ndarray:
    """``out`` filled from its start with ``chunks``, none of which is held
    while the next is generated; returns the filled part of ``out``."""
    filled = 0
    for chunk in chunks:
        out[filled:filled + chunk.size] = chunk
        filled += chunk.size
        del chunk
    return out[:filled]


# A Kronecker block is evaluated as rows of _ROW indices.
_ROW = 64
_DECIMAL = re.compile(r"([+-]?[0-9]*)(?:\.([0-9]*))?(?:[eE]([+-]?[0-9]+))?")


class KroneckerSequence(BoundedSequence):
    """v(n) = frac(n * alpha), from the integer A = floor(frac(alpha) 2^128).

    v(n) = ((n A mod 2^128) >> 75) 2^-53, in exact integer arithmetic: a
    multiple of 2^-53 in [0, 1), within 2^-53 + n 2^-128 of frac(n alpha),
    with the same bits on every platform, for every n < 2^63.  A
    fractional part below 2^-128 reads as 0.  ``alpha`` is read exactly:
    a float or int (Python or numpy), a decimal string
    ``[+-]digits[.digits][e[+-]digits]``, or one of the named constants
    "sqrt2-1", "sqrt3-1", "sqrt5-1", "golden" (``ALPHA_SQRT2``,
    ``ALPHA_SQRT3`` and ``ALPHA_GOLDEN`` are three of these names).
    ``alpha`` is then the integer A; the label shows alpha as given.
    """

    def __init__(self, alpha, interval: Interval = UNIT):
        self.alpha, value = _parse_alpha(alpha)
        # w A mod 2^128 for w < _ROW: its high limbs, and the complements
        # of its low limbs (a low limb added to w A's carries iff it
        # exceeds the complement)
        cols = [w * self.alpha & _MASK128 for w in range(_ROW)]
        self._col_hi = np.array([c >> 64 for c in cols], np.uint64)
        self._col_carry = np.array([~c & _MASK64 for c in cols], np.uint64)
        super().__init__(interval, "kronecker", f"kronecker({value:.12g})")

    def _eval_batch(self, ns: np.ndarray) -> np.ndarray:
        # ns is n0 .. n0 + k - 1, laid out as rows of _ROW: n = n0 + j + w
        # for j a multiple of _ROW and w < _ROW, so n A mod 2^128 is the
        # row's n0 A + j A, from _mul_add, plus the column's w A
        start = int(ns[0]) * self.alpha & _MASK128
        row_hi, row_lo = _mul_add(_split(np.uint64(0), np.arange(
            0, ns.size, _ROW, dtype=np.uint64)[:, None]), self.alpha,
            np.uint64(start >> 64), np.uint64(start & _MASK64))
        hi = row_hi + self._col_hi
        hi += self._col_carry < row_lo
        hi >>= np.uint64(11)
        return (hi * 2.0 ** -53).ravel()[:ns.size]


def _parse_alpha(alpha) -> tuple[int, float]:
    """(A, alpha as a float) for a Kronecker ``alpha``, A being
    floor(frac(alpha) 2^128) of alpha read exactly."""
    if isinstance(alpha, str) and alpha in _NAMED_ALPHAS:
        scaled = _NAMED_ALPHAS[alpha]
        return scaled & _MASK128, scaled / (1 << 128)
    try:
        value = float(alpha)
    except (TypeError, ValueError):
        raise SpecError(f"cannot parse kronecker alpha {alpha!r}") from None
    if not math.isfinite(value):
        raise SpecError(f"kronecker alpha must be finite, got {alpha!r}")
    if isinstance(alpha, str):
        match = _DECIMAL.fullmatch(alpha)
        if match is None:
            raise SpecError(f"cannot parse kronecker alpha {alpha!r}")
        # p / 10^places; past len(digits) + 39 places |p| 2^128 < 10^places,
        # so floor(p 2^128 / 10^places) is 0 or -1 at any larger places too
        whole, frac, exp = match.groups(default="")
        digits, places = whole + frac, len(frac) - _decimal_int(exp or "0")
        p, q = _decimal_int(digits), 10 ** max(0, min(places,
                                                      len(digits) + 39))
    else:  # a numpy int has no ratio of its own; its float is an integer
        p, q = getattr(alpha, "as_integer_ratio", value.as_integer_ratio)()
    return (p << 128) // q & _MASK128, value


def _decimal_int(text: str) -> int:
    """int(text) for a decimal digit string, signed or not, of any length.

    Read 640 digits at a time: Python's int-from-string digit limit is
    either off or at least 640, so no limit in force refuses a piece.
    """
    digits, value = text.lstrip("+-"), 0
    for i in range(0, len(digits), 640):
        piece = digits[i:i + 640]
        value = value * 10 ** len(piece) + int(piece)
    return -value if text.startswith("-") else value


class VanDerCorputSequence(BoundedSequence):
    """Radical-inverse (digit reversal) sequence in an integer base >= 2."""

    def __init__(self, base: int = 2, interval: Interval = UNIT):
        if int(base) != base or base < 2:
            raise SpecError(f"van der Corput base must be an integer >= 2, got {base}")
        self.base = int(base)
        super().__init__(interval, "van_der_corput",
                         f"van_der_corput(base={self.base})")

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
        # Masked in place by ``where``: an index whose digits are all
        # taken keeps its numer and denom.
        remaining = ns.copy()
        numer = np.zeros(ns.shape, dtype=np.int64)
        denom = np.ones(ns.shape, dtype=np.int64)
        digits = np.empty(ns.shape, dtype=np.int64)
        active = np.empty(ns.shape, dtype=bool)
        while remaining.max(initial=0) > 0:
            np.greater(remaining, 0, out=active)
            np.divmod(remaining, self.base, out=(remaining, digits))
            np.multiply(numer, self.base, out=numer, where=active)
            numer += digits
            np.multiply(denom, self.base, out=denom, where=active)
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

    def value_set(self) -> np.ndarray:
        return _distinct(self.values)


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

    def value_set(self) -> np.ndarray:
        return _distinct([self.value])


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
        super().__init__(
            interval, "block",
            f"block(low={low:g},high={high:g},growth={self.growth})")

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
        # Block b (0-based) holds the indices after its b block ends; a
        # chunk past the first few blocks holds at most one end.
        if ns.size == 0:
            return np.empty(0)
        ends = self._boundaries_upto(int(ns.max()) - 1)
        block = bisect.bisect_left(ends, int(ns.min()))
        if block == len(ends):
            return np.full(ns.shape, self.high if block % 2 else self.low)
        block = np.searchsorted(np.asarray(ends, dtype=np.int64), ns,
                                side="left")
        return np.where(block % 2 == 0, self.low, self.high)

    def value_set(self) -> np.ndarray:
        return _distinct([self.low, self.high])


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

    def value_set(self) -> np.ndarray | None:
        values = self.source.value_set()
        # the arithmetic of _eval_batch, elementwise on float64
        return None if values is None else _distinct(self.c * values + self.d)


class FileSequence(BoundedSequence):
    """Finite sequence backed by a one-value-per-line text file."""

    def __init__(self, values: np.ndarray, interval: Interval, path: str):
        vals = np.asarray(values, dtype=np.float64)
        vals.setflags(write=False)
        self.values = vals
        self.path = path
        super().__init__(interval, "file", f"file({path})", length=int(vals.size))

    def _eval_batch(self, ns: np.ndarray) -> np.ndarray:
        return self.values[ns - 1]


def _distinct(values) -> np.ndarray:
    """The distinct float64 bit patterns of ``values``, sorted, read-only."""
    bits = np.sort(np.asarray(values, dtype=np.float64).ravel()
                   .view(np.uint64))
    keep = np.append(True, bits[1:] != bits[:-1])
    out = np.sort(bits[keep].view(np.float64))
    out.setflags(write=False)
    return out


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


def _check_keys(obj, where: str, known, message: str = "unknown field") -> dict:
    """``obj``, checked to be a JSON object whose keys all lie in ``known``:
    the first other key is cited at its own path, ``<where>.<key>`` (the
    key alone at the top level, where ``where`` is empty)."""
    if not isinstance(obj, dict):
        _fail(where, f"expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in known:
            _fail(f"{where}.{key}" if where else key, message)
    return obj


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
    _check_keys(obj, where, ("kind", "interval", "params"))
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
    _check_keys(params, f"{where}.params", schema.params,
                f"unknown parameter for kind {kind!r}")
    return {"kind": kind, "interval": [interval.a, interval.b], "params": out}


def from_spec(obj, where: str = "sequence") -> BoundedSequence:
    """Build a sequence from its JSON description; the one spec-to-sequence path.

    ``obj`` is checked by :func:`normalize_spec`, a nested ``source`` spec is
    built first, and errors cite the JSON path: a constructor's ValueError
    or TypeError (its own :class:`SpecError` included) is cited at
    ``<where>.params``, and an OSError (an unreadable file) at its ``path``.
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
    except OSError as exc:  # only a file sequence reads anything
        raise SpecError(f"{where}.params.path: {exc}") from None


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
