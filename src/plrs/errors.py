"""Exception types raised across the library.

Every error is a subclass of :class:`PlrsError`, so callers can catch the
whole family at once.  Validation errors double as ``ValueError`` and
out-of-range errors as ``IndexError`` where that matches how built-in code
would fail.
"""

__all__ = [
    "PlrsError",
    "EmptyCoefficients",
    "LeadingCoefficientZero",
    "TrailingCoefficientZero",
    "NonIntegerCoefficient",
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
    "NoThresholdInRange",
    "NonPositiveC",
    "BoundViolated",
    "DegenerateVariance",
]


class PlrsError(Exception):
    """Base class for all errors raised by this package."""


# -- recurrence specs ------------------------------------------------------

class EmptyCoefficients(PlrsError, ValueError):
    """The coefficient list is empty."""


class LeadingCoefficientZero(PlrsError, ValueError):
    """The first recurrence coefficient must be positive."""


class TrailingCoefficientZero(PlrsError, ValueError):
    """The last recurrence coefficient must be positive."""


class NonIntegerCoefficient(PlrsError, ValueError):
    """Recurrence coefficients must be ints (a ``bool`` counts as one)."""


class NegativeCoefficient(PlrsError, ValueError):
    """Recurrence coefficients must be non-negative."""


class DegenerateRecurrence(PlrsError, ValueError):
    """The recurrence produces a constant sequence (coefficients (1,))."""


class SizeOutOfRange(PlrsError, IndexError):
    """A block size outside [0, S-1] was requested."""


# -- decompositions --------------------------------------------------------

class NonPositiveInput(PlrsError, ValueError):
    """Only positive integers have a decomposition."""


class SpecMismatch(PlrsError, ValueError):
    """A decomposition was paired with a table built from a different spec."""


class IllegalDecomposition(PlrsError, ValueError):
    """A coefficient string that does not satisfy the legality conditions."""


class TooFewBlocks(PlrsError, ValueError):
    """Block removal needs at least two blocks to act on."""


# -- ensembles and distributions -------------------------------------------

class CapExceeded(PlrsError):
    """An exhaustive sweep would exceed the configured enumeration cap."""

    def __init__(self, needed: int, cap: int):
        super().__init__(f"enumeration needs {needed} items, cap is {cap}")
        self.needed = needed
        self.cap = cap


class EmptyDistribution(PlrsError, ValueError):
    """Statistics of an identically-zero count polynomial are undefined."""


class IndexTooSmall(PlrsError, ValueError):
    """The operation needs a larger sequence index (usually n > 2L)."""


class EmptyConditionalEvent(PlrsError, ValueError):
    """No enumerated outcome matched the conditioning event."""


# -- growth estimation and the variance bound -------------------------------

class WindowTooSmall(PlrsError, ValueError):
    """Growth estimation needs a longer index window to settle."""


class NoThresholdInRange(PlrsError):
    """No index threshold inside the sweep satisfied the variance bound."""


class NonPositiveC(PlrsError):
    """The computed lower-bound constant was not positive (implementation bug)."""


class BoundViolated(PlrsError):
    """The linear variance lower bound failed at some index."""

    def __init__(self, n: int, message: str):
        super().__init__(message)
        self.n = n


class DegenerateVariance(PlrsError, ValueError):
    """Skewness/kurtosis are undefined when the variance is zero."""
