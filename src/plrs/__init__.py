"""Positive linear recurrence sequences and their legal decompositions.

Exact-arithmetic tools for the numeration systems attached to recurrences
``H_{n+1} = c_1 H_n + ... + c_L H_{n+1-L}`` (non-negative coefficients,
``c_1, c_L > 0``): sequence generation, block catalogs, greedy
decomposition and legality checking, exhaustive and sampled views of the
fixed-length outcome spaces, exact summand-count moments via a
raw-moment recurrence and full distributions via a polynomial dynamic
program, and a numerical verifier for the linear growth of the
summand-count variance.

Quick start::

    >>> from plrs import validate_spec, sequence_terms, decompose
    >>> spec = validate_spec([1, 1])          # Zeckendorf / Fibonacci
    >>> table = sequence_terms(spec, 10)
    >>> str(decompose(table, 12))
    '1 0 1 0 1'
"""

from .errors import (
    BoundViolated,
    CapExceeded,
    DegenerateRecurrence,
    DegenerateVariance,
    EmptyCoefficients,
    EmptyConditionalEvent,
    EmptyDistribution,
    IllegalDecomposition,
    IndexTooSmall,
    LeadingCoefficientZero,
    MissingFValue,
    NegativeCoefficient,
    NonPositiveC,
    NonPositiveInput,
    NoThresholdInRange,
    PlrsError,
    SizeOutOfRange,
    SpecMismatch,
    TooFewBlocks,
    TrailingCoefficientZero,
    WindowTooSmall,
)
from .rationals import decimal_str, format_fraction, parse_fraction, round_to_bits
from .recurrence import (
    Block,
    BlockCatalog,
    BlockKind,
    RecurrenceSpec,
    SequenceTable,
    block_catalog,
    sequence_terms,
    validate_spec,
)
from .decomposition import (
    BlockParse,
    Decomposition,
    LegalityResult,
    decompose,
    insert_block_before_last,
    is_legal,
    parse_blocks,
    remove_second_to_last_block,
    second_to_last_block_size,
    value,
)
from .ensemble import (
    DEFAULT_ENUM_CAP,
    EnsembleStats,
    SummandPolynomial,
    SummandTable,
    ZDistribution,
    conditional_mean_check,
    conditional_tally,
    enumerate_by_integer_walk,
    enumerate_omega,
    sample_uniform,
    stats_from_polynomial,
    z_distribution,
)
from .theorem import (
    DEFAULT_PRECISION_BITS,
    ConstantChoice,
    GaussianRow,
    GrowthEstimate,
    PerIndexVerdict,
    TheoremReport,
    compute_c,
    estimate_growth,
    find_threshold_N,
    first_moment_identity,
    gaussian_diagnostics,
    gaussian_trend_ok,
    second_moment_identity,
    verify_variance_bound,
    y_statistics,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # recurrence
    "RecurrenceSpec",
    "SequenceTable",
    "Block",
    "BlockKind",
    "BlockCatalog",
    "validate_spec",
    "sequence_terms",
    "block_catalog",
    # decomposition
    "Decomposition",
    "BlockParse",
    "LegalityResult",
    "decompose",
    "value",
    "is_legal",
    "parse_blocks",
    "second_to_last_block_size",
    "remove_second_to_last_block",
    "insert_block_before_last",
    # ensemble
    "DEFAULT_ENUM_CAP",
    "SummandPolynomial",
    "EnsembleStats",
    "ZDistribution",
    "SummandTable",
    "enumerate_omega",
    "enumerate_by_integer_walk",
    "stats_from_polynomial",
    "z_distribution",
    "conditional_tally",
    "conditional_mean_check",
    "sample_uniform",
    # theorem
    "DEFAULT_PRECISION_BITS",
    "GrowthEstimate",
    "ConstantChoice",
    "PerIndexVerdict",
    "GaussianRow",
    "TheoremReport",
    "estimate_growth",
    "y_statistics",
    "find_threshold_N",
    "compute_c",
    "verify_variance_bound",
    "gaussian_diagnostics",
    "gaussian_trend_ok",
    "first_moment_identity",
    "second_moment_identity",
    # rationals
    "format_fraction",
    "parse_fraction",
    "decimal_str",
    "round_to_bits",
    # errors
    "PlrsError",
    "EmptyCoefficients",
    "LeadingCoefficientZero",
    "TrailingCoefficientZero",
    "NegativeCoefficient",
    "DegenerateRecurrence",
    "SizeOutOfRange",
    "NonPositiveInput",
    "SpecMismatch",
    "IllegalDecomposition",
    "TooFewBlocks",
    "CapExceeded",
    "EmptyDistribution",
    "IndexTooSmall",
    "EmptyConditionalEvent",
    "WindowTooSmall",
    "MissingFValue",
    "NoThresholdInRange",
    "NonPositiveC",
    "BoundViolated",
    "DegenerateVariance",
]
