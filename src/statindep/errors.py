"""Exception types shared across the package."""


class StatIndepError(Exception):
    """Base class for all library errors."""


class IntervalError(StatIndepError, ValueError):
    """Malformed interval, or a point that must lie inside one does not."""


class RangeViolation(StatIndepError, ValueError):
    """A generator produced a value outside its declared interval."""


class SequenceExhausted(StatIndepError, IndexError):
    """A finite (file-backed) sequence was evaluated beyond its length."""


class SequenceFileError(StatIndepError, ValueError):
    """A sequence file is empty or contains an unparseable line."""


class CheckpointError(StatIndepError, ValueError):
    """A checkpoint sequence is too shallow for the requested diagnostic."""


class GridError(StatIndepError, ValueError):
    """A continuity grid of the requested size cannot be placed."""

    def __init__(self, message: str, achievable: int = 0):
        super().__init__(message)
        self.achievable = achievable


class EnvelopeError(StatIndepError, RuntimeError):
    """Step-envelope refinement exceeded its breakpoint budget."""

    def __init__(self, message: str, best_gap: float):
        super().__init__(message)
        self.best_gap = best_gap


class MeasurabilityError(StatIndepError, ValueError):
    """A sequence failed a measurability check it was required to pass.

    ``report`` is the failing ``selection.MeasurabilityReport``.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ExtractionError(StatIndepError, RuntimeError):
    """Greedy subsequence extraction exhausted its checkpoint pool."""


class SpecError(StatIndepError, ValueError):
    """An experiment spec failed validation; the message cites the JSON path."""
