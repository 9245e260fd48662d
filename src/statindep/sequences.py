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


class BoundedSequence:
    """Deterministic real sequence v(1), v(2), ... inside a fixed interval.

    Evaluation is pure: instances may be shared across concurrent readers
    with no synchronization.  ``prefix`` caches the longest materialized
    prefix; the cache write is idempotent (re-computation yields the
    identical array), so a racing write is harmless.
    """

    def __init__(self, interval: Interval, kind: str, label: str,
                 length: int | None = None):
        self._interval = interval
        self.kind = kind
        self.label = label
        self.length = length
        self._cache: np.ndarray | None = None

    @property
    def interval(self) -> Interval:
        return self._interval

    def _eval_batch(self, ns: np.ndarray) -> np.ndarray:
        """Raw values for an int64 array of indices (n >= 1), unchecked."""
        raise NotImplementedError

    def _check_range(self, ns: np.ndarray, values: np.ndarray) -> None:
        bad = (values < self._interval.a) | (values > self._interval.b)
        if bad.any():
            i = int(np.argmax(bad))
            raise RangeViolation(
                f"{self.label}: value {values[i]!r} at n={int(ns[i])} lies outside "
                f"[{self._interval.a}, {self._interval.b}]")

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

    def prefix(self, n: int) -> "PrefixView":
        """Materialized view of v(1) ... v(n), elementwise equal to ``eval``."""
        if n < 1:
            raise IndexError(f"prefix length must be >= 1, got {n}")
        if self.length is not None and n > self.length:
            raise SequenceExhausted(
                f"{self.label}: prefix of length {n} beyond sequence length {self.length}")
        cache = self._cache
        if cache is None or cache.size < n:
            ns = np.arange(1, n + 1, dtype=np.int64)
            values = np.asarray(self._eval_batch(ns), dtype=np.float64)
            self._check_range(ns, values)
            values.setflags(write=False)
            self._cache = cache = values
        return PrefixView(values=cache[:n], source=self, n=n)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.label}>"


@dataclass(frozen=True)
class PrefixView:
    """Read-only materialization of the first ``n`` terms of ``source``."""

    values: np.ndarray
    source: BoundedSequence
    n: int


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
        vals = (ns.astype(np.longdouble) * self.alpha) % np.longdouble(1.0)
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
                    f"periodic value {v!r} outside [{interval.a}, {interval.b}]")
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
            raise RangeViolation(f"constant {value!r} outside [{interval.a}, {interval.b}]")
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

    Values are validated against ``interval`` on load; parse and range
    errors cite the 1-based line number.
    """
    text = Path(path).read_text()
    lines = text.splitlines()
    values = np.empty(len(lines), dtype=np.float64)
    for i, raw in enumerate(lines):
        stripped = raw.strip()
        try:
            values[i] = float(stripped)
        except ValueError:
            raise SequenceFileError(
                f"{path}: line {i + 1}: cannot parse {raw!r} as a real number") from None
        if not interval.contains(values[i]):
            raise RangeViolation(
                f"{path}: line {i + 1}: value {values[i]!r} outside "
                f"[{interval.a}, {interval.b}]")
    if values.size == 0:
        raise SequenceFileError(f"{path}: file contains no values")
    return FileSequence(values, interval, str(path))


def from_spec(obj: dict, where: str = "sequence") -> BoundedSequence:
    """Build a sequence from its JSON description.

    The wire format is ``{"kind": ..., "interval": [a, b], "params": {...}}``;
    validation errors cite the JSON path of the offending field.
    """
    if not isinstance(obj, dict):
        raise SpecError(f"{where}: expected an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind is None:
        raise SpecError(f"{where}.kind: missing")
    raw_interval = obj.get("interval", [0.0, 1.0])
    if (not isinstance(raw_interval, (list, tuple)) or len(raw_interval) != 2):
        raise SpecError(f"{where}.interval: expected [a, b]")
    try:
        interval = Interval(float(raw_interval[0]), float(raw_interval[1]))
    except (TypeError, ValueError, IntervalError) as exc:
        raise SpecError(f"{where}.interval: {exc}") from None
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise SpecError(f"{where}.params: expected an object")

    def need(key):
        if key not in params:
            raise SpecError(f"{where}.params.{key}: missing")
        return params[key]

    try:
        if kind == "kronecker":
            return KroneckerSequence(need("alpha"), interval)
        if kind == "van_der_corput":
            return VanDerCorputSequence(int(params.get("base", 2)), interval)
        if kind == "periodic":
            return PeriodicSequence(need("values"), interval)
        if kind == "constant":
            return ConstantSequence(float(need("value")), interval)
        if kind == "block":
            return BlockSequence(float(need("low")), float(need("high")),
                                 int(need("growth")), interval)
        if kind == "affine_image":
            source = from_spec(need("source"), where=f"{where}.params.source")
            return AffineImageSequence(source, float(need("c")), float(need("d")),
                                       interval)
        if kind == "file":
            return load_sequence(need("path"), interval)
    except SpecError:
        raise
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{where}.params: {exc}") from None
    raise SpecError(f"{where}.kind: unknown generator {kind!r}")
