"""Statistical-independence and selective-density analysis of bounded sequences.

The package computes finite-prefix diagnostics for two notions of
independence of real sequences on a common interval: the gap between the
average of products and the product of averages over a battery of test
functions, and the factorization of selective rectangle densities into
marginal empirical CDFs.  Supporting machinery includes checkpoint
subsequences, empirical step CDFs with exact Stieltjes sums, indicator
sandwiches, step envelopes, and a greedy diagonal checkpoint extraction.
"""

from .errors import (
    CheckpointError,
    EnvelopeError,
    ExtractionError,
    GridError,
    IntervalError,
    MeasurabilityError,
    RangeViolation,
    SequenceExhausted,
    SequenceFileError,
    SpecError,
    StatIndepError,
)
from .sequences import (
    ALPHA_GOLDEN,
    ALPHA_SQRT2,
    ALPHA_SQRT3,
    AffineImageSequence,
    BlockSequence,
    BoundedSequence,
    ConstantSequence,
    FileSequence,
    Interval,
    KroneckerSequence,
    PeriodicSequence,
    PrefixView,
    UNIT,
    VanDerCorputSequence,
    from_spec,
    load_sequence,
    make_block,
)
from .subsequence import SubsequenceIndex
from .density import DensityEstimate
from .distribution import (
    FunctionSandwich,
    PiecewiseLinear,
    StepCDF,
    StepEnvelope,
    StepFunction,
    cdf_eval,
    continuity_grid,
    empirical_cdf,
    sandwich_indicator,
    step_envelope,
    stieltjes,
)
from .independence import (
    EquivalenceReport,
    FunctionBattery,
    IndependenceReport,
    KappaOutcome,
    NamedFunction,
    RectangleReport,
    TupleTrace,
    default_battery,
    delta_form,
    equivalence_harness,
    indicator_below,
    kappa_independence_test,
    product_form,
    statind_test,
)
from .selection import (
    Extraction,
    MeasurabilityReport,
    detect_measurable,
    helly_extract,
    kappa_family_builder,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHA_GOLDEN", "ALPHA_SQRT2", "ALPHA_SQRT3", "AffineImageSequence",
    "BlockSequence", "BoundedSequence", "CheckpointError", "ConstantSequence",
    "DensityEstimate", "EnvelopeError", "EquivalenceReport", "Extraction",
    "ExtractionError", "FileSequence", "FunctionBattery", "FunctionSandwich",
    "GridError", "IndependenceReport", "Interval", "IntervalError",
    "KappaOutcome", "KroneckerSequence", "MeasurabilityError",
    "MeasurabilityReport", "NamedFunction", "PeriodicSequence",
    "PiecewiseLinear", "PrefixView", "RangeViolation", "RectangleReport",
    "SequenceExhausted", "SequenceFileError", "SpecError", "StatIndepError",
    "StepCDF", "StepEnvelope", "StepFunction", "SubsequenceIndex",
    "TupleTrace", "UNIT", "VanDerCorputSequence", "cdf_eval",
    "continuity_grid", "default_battery", "delta_form", "detect_measurable",
    "empirical_cdf", "equivalence_harness", "from_spec", "helly_extract",
    "indicator_below", "kappa_family_builder", "kappa_independence_test",
    "load_sequence", "make_block", "product_form", "sandwich_indicator",
    "statind_test", "step_envelope", "stieltjes",
]
