"""The package re-exports exactly the names its submodules declare."""

import plrs
from plrs import decomposition, ensemble, errors, rationals, recurrence, theorem

SUBMODULES = (recurrence, decomposition, ensemble, theorem, rationals, errors)

# The public names, written out once here so that a change to the surface
# is a deliberate edit of this list.
PUBLIC = {
    "__version__",
    # recurrence
    "RecurrenceSpec", "SequenceTable", "Block", "BlockKind", "BlockCatalog",
    "validate_spec", "block_catalog",
    # decomposition
    "Decomposition", "BlockParse", "LegalityResult", "decompose", "value",
    "is_legal", "parse_blocks", "second_to_last_block_size",
    "remove_second_to_last_block", "insert_block_before_last",
    # ensemble
    "DEFAULT_ENUM_CAP", "SummandPolynomial", "EnsembleStats", "ZDistribution",
    "SummandTable", "enumerate_omega", "enumerate_by_integer_walk",
    "stats_from_polynomial", "z_distribution", "conditional_tally",
    "conditional_mean_check", "sample_uniform",
    # theorem
    "DEFAULT_PRECISION_BITS", "GrowthEstimate", "ConstantChoice",
    "PerIndexVerdict", "GaussianRow", "TheoremReport", "estimate_growth",
    "y_statistics", "find_threshold_N", "compute_c", "verify_variance_bound",
    "gaussian_diagnostics", "first_moment_identity",
    "second_moment_identity",
    # rationals
    "format_fraction", "parse_fraction", "decimal_str", "round_to_bits",
    # errors
    "PlrsError", "EmptyCoefficients", "LeadingCoefficientZero",
    "TrailingCoefficientZero", "NonIntegerCoefficient", "NegativeCoefficient",
    "DegenerateRecurrence", "SizeOutOfRange", "NonPositiveInput",
    "SpecMismatch", "IllegalDecomposition", "TooFewBlocks", "CapExceeded",
    "EmptyDistribution", "IndexTooSmall", "EmptyConditionalEvent",
    "WindowTooSmall", "NoThresholdInRange", "NonPositiveC",
    "BoundViolated", "DegenerateVariance",
}


def test_all_is_version_plus_the_submodule_lists():
    declared = [name for module in SUBMODULES for name in module.__all__]
    assert sorted(plrs.__all__) == sorted(["__version__", *declared])
    assert len(set(plrs.__all__)) == len(plrs.__all__)
    assert set(plrs.__all__) == PUBLIC


def test_each_name_is_the_submodules_own_object():
    for module in SUBMODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(plrs, name) is obj, (module.__name__, name)
            # defined there, not re-exported from a sibling
            assert getattr(obj, "__module__", module.__name__) == module.__name__, name


def test_imported_helpers_are_not_exported():
    assert "Fraction" not in plrs.__all__
    assert not hasattr(plrs, "Fraction")
    namespace = {}
    exec("from plrs import *", namespace)
    assert "Fraction" not in namespace
    assert set(namespace) - {"__builtins__"} == PUBLIC
