import sys
import threading

import pytest
from hypothesis import example, given, strategies as st

from plrs import (
    Block,
    BlockKind,
    DegenerateRecurrence,
    EmptyCoefficients,
    LeadingCoefficientZero,
    NegativeCoefficient,
    NonIntegerCoefficient,
    RecurrenceSpec,
    SequenceTable,
    SizeOutOfRange,
    TrailingCoefficientZero,
    block_catalog,
    validate_spec,
)

from conftest import FIXTURE_COEFFS, RANDOM_SPECS
from test_spec_box import SPEC_BOX


# -- validation --------------------------------------------------------------

def test_validate_golden_specs():
    fib = validate_spec((1, 1))
    assert (fib.length, fib.size) == (2, 2)
    h = validate_spec((2, 2, 0, 2))
    assert (h.length, h.size) == (4, 6)


@pytest.mark.parametrize(
    "coeffs, err",
    [
        ((), EmptyCoefficients),
        ((0, 1), LeadingCoefficientZero),
        ((1, 0), TrailingCoefficientZero),
        ((1, -1, 1), NegativeCoefficient),
        ((1,), DegenerateRecurrence),
    ],
)
def test_validate_rejects(coeffs, err):
    with pytest.raises(err):
        validate_spec(coeffs)


@pytest.mark.parametrize(
    "coeffs, index",
    [
        ([1.9, 1], 1),
        (["2", True], 1),
        ([1, 1.0], 2),
        ([2, None, 1], 2),
        ("11", 1),
        ([10**400, 1.5], 2),
    ],
    ids=["float", "str", "float-equal", "none", "text", "float-after-huge-int"],
)
def test_validate_rejects_non_integer_entries(coeffs, index):
    # nothing is converted: 1.9 is not read as 1, nor '2' as 2
    with pytest.raises(NonIntegerCoefficient, match=rf"^coefficient c_{index} = "):
        validate_spec(coeffs)


def test_validate_takes_bools_as_ints():
    spec = validate_spec([True, True])
    assert spec == validate_spec([1, 1]) and str(spec) == "1,1"
    assert all(type(c) is int for c in spec.coefficients)


def test_from_text():
    assert RecurrenceSpec.from_text("2,2,0,2").coefficients == (2, 2, 0, 2)
    with pytest.raises(ValueError):
        RecurrenceSpec.from_text("2,x")
    with pytest.raises(NegativeCoefficient):
        RecurrenceSpec.from_text("2,-1,2")


# -- sequence terms ----------------------------------------------------------

def test_fibonacci_terms():
    spec = validate_spec((1, 1))
    assert SequenceTable(spec, 6).terms(6) == (1, 2, 3, 5, 8, 13)


def test_length_four_terms():
    spec = validate_spec((2, 2, 0, 2))
    assert SequenceTable(spec, 7).terms(7) == (1, 3, 9, 25, 70, 196, 550)


def test_first_term_is_one(fixture_spec):
    assert SequenceTable(fixture_spec, 1).terms(1) == (1,)


def test_strictly_increasing_up_to_200():
    for coeffs in FIXTURE_COEFFS + [(4,), (1, 1, 1), (1, 0, 1)]:
        table = SequenceTable(validate_spec(coeffs), 201)
        terms = table.terms(201)
        assert all(b > a for a, b in zip(terms, terms[1:])), coeffs


def test_full_recurrence_holds_from_L(fixture_spec):
    # Past the ramp-up the terms must satisfy the full recurrence exactly.
    c = fixture_spec.coefficients
    L = fixture_spec.length
    terms = SequenceTable(fixture_spec, 120).terms(120)
    for n in range(L, 119):  # H_{n+1} with 1-indexed n
        expected = sum(c[i] * terms[n - 1 - i] for i in range(L))
        assert terms[n] == expected


def test_ramp_up_rule(fixture_spec):
    c = fixture_spec.coefficients
    L = fixture_spec.length
    terms = SequenceTable(fixture_spec, L).terms(L)
    for n in range(1, L):
        expected = sum(c[i] * terms[n - 1 - i] for i in range(n)) + 1
        assert terms[n] == expected


def test_table_extension_reuses_prefix():
    table = SequenceTable(validate_spec((1, 1)), 5)
    first = table.terms(5)
    table.extend(50)
    assert table.terms(5) == first
    assert table.term(50) > table.term(49)


def test_extend_beyond():
    table = SequenceTable(validate_spec((1, 1)))
    assert table.extend_beyond(12) == 5  # H_5 = 8 <= 12 < H_6 = 13
    assert table.extend_beyond(1) == 1


def _textbook_terms(c, value):
    """H_1, H_2, ... straight from the definition, up to the first term
    above ``value``: every H_{k+1} is c_1 H_k + ... + c_L H_{k+1-L}, with
    the missing terms of the ramp (k < L) read as 0 and 1 added there."""
    H = []
    while not H or H[-1] <= value:
        k = len(H)
        total = 0
        for i in range(min(k, len(c))):
            total += c[i] * H[k - 1 - i]
        H.append(total + 1 if k < len(c) else total)
    return H


@given(
    RANDOM_SPECS,
    st.integers(min_value=1, max_value=10**450 - 1),
    st.integers(min_value=0, max_value=12),
)
@example((3,), 10**450 - 1, 0)
@example((1, 0, 0, 0, 0, 1), 10**449, 5)
def test_table_matches_the_textbook_recurrence(coeffs, v, k):
    spec = validate_spec(coeffs)
    H = _textbook_terms(coeffs, v)
    assert SequenceTable(spec).terms(len(H)) == tuple(H)
    k = min(k, len(H) - 1)
    values = [x for x in (1, H[k] - 1, H[k], H[k] + 1, v) if x >= 1]
    H = _textbook_terms(coeffs, max(values))
    grown = SequenceTable(spec, len(H))
    for value in values:
        n = SequenceTable(spec).extend_beyond(value)
        assert H[n - 1] <= value < H[n], (value, n)
        assert grown.extend_beyond(value) == n


def test_concurrent_growth_appends_each_term_once(fixture_spec):
    # Four threads grow one table at once, two by index and two past a
    # value, with the interpreter switching threads every microsecond.
    # Two growers appending from the same last L terms would put a term
    # in twice and shift every later one.
    coeffs = fixture_spec.coefficients
    H = _textbook_terms(coeffs, 10**900)
    targets = [
        ("extend", len(H) // 2), ("extend_beyond", H[len(H) // 3] + 1),
        ("extend", len(H) - 1), ("extend_beyond", 10**900),
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            table = SequenceTable(fixture_spec)
            start = threading.Barrier(len(targets))
            found = {}

            def grow(i, method, arg):
                start.wait(timeout=60)
                found[i] = getattr(table, method)(arg)

            threads = [
                threading.Thread(target=grow, args=(i, *target))
                for i, target in enumerate(targets)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert table.terms(len(H)) == tuple(H)
            assert table.extend_beyond(10**900) == len(H) - 1
            assert found[1] == len(H) // 3 + 1 and found[3] == len(H) - 1
    finally:
        sys.setswitchinterval(interval)


def test_term_index_errors():
    table = SequenceTable(validate_spec((1, 1)))
    with pytest.raises(IndexError):
        table.term(0)
    with pytest.raises(IndexError):
        table.terms(-1)
    assert table.terms(0) == ()


def test_base_k_special_case():
    # A single coefficient k gives H_n = k^(n-1): base-k positional digits.
    spec = validate_spec((4,))
    assert SequenceTable(spec, 6).terms(6) == (1, 4, 16, 64, 256, 1024)


# -- block catalog -----------------------------------------------------------

def test_fibonacci_catalog():
    cat = block_catalog(validate_spec((1, 1)))
    assert [str(b) for b in cat.type1_blocks] == ["[1]"]
    assert [str(b) for b in cat.type2_by_size] == ["[0]", "[1 0]"]
    assert cat.length_table == (1, 2)


def test_length_four_catalog():
    cat = block_catalog(validate_spec((2, 2, 0, 2)))
    assert [str(b) for b in cat.type1_blocks] == ["[2]", "[2 2]", "[2 2 0]"]
    assert [str(b) for b in cat.type2_by_size] == [
        "[0]", "[1]", "[2 0]", "[2 1]", "[2 2 0 0]", "[2 2 0 1]",
    ]
    assert cat.length_table == (1, 1, 2, 2, 4, 4)


def test_size_zero_block_everywhere(fixture_spec):
    cat = block_catalog(fixture_spec)
    assert str(cat.type2_by_size[0]) == "[0]"
    assert cat.length_of(0) == 1


def test_catalog_contracts(fixture_spec):
    cat = block_catalog(fixture_spec)
    S, L = fixture_spec.size, fixture_spec.length
    assert len(cat.type2_by_size) == S
    # size reconstruction is the identity and blocks are distinct
    assert [b.size for b in cat.type2_by_size] == list(range(S))
    assert len({b.coefficients for b in cat.type2_by_size}) == S
    # lengths: start at 1, non-decreasing, at most L
    lens = cat.length_table
    assert lens[0] == 1
    assert all(a <= b for a, b in zip(lens, lens[1:]))
    assert lens[-1] <= L
    for b in cat.type2_by_size:
        assert b.kind is BlockKind.TYPE2
        assert b.length == cat.length_of(b.size)
    for m, b in enumerate(cat.type1_blocks, start=1):
        assert b.kind is BlockKind.TYPE1
        assert b.coefficients == fixture_spec.coefficients[:m]
        assert b.size > 0


def test_block_length_golden():
    assert block_catalog(validate_spec((1, 1))).length_of(1) == 2
    assert block_catalog(validate_spec((2, 2, 0, 2))).length_of(4) == 4


def test_block_length_out_of_range():
    cat = block_catalog(validate_spec((1, 1)))
    for t in (-1, 2, 99):
        with pytest.raises(SizeOutOfRange):
            cat.length_of(t)


def test_length_one_spec_has_no_type1_blocks():
    cat = block_catalog(validate_spec((4,)))
    assert cat.type1_blocks == ()
    assert cat.length_table == (1, 1, 1, 1)


# -- the per-size prefix walk, kept as the reference for the catalog's runs ----

def _reference_catalog(spec):
    """The type-1 blocks, the type-2 blocks by size and the length table,
    walking the coefficient prefix sums for every size t: its block ends at
    the first s with ``c_s > 0`` and ``t - (c_1 + ... + c_{s-1}) < c_s``."""
    c = spec.coefficients
    type1 = tuple(Block(BlockKind.TYPE1, c[:m]) for m in range(1, spec.length))
    type2 = []
    for t in range(spec.size):
        cum = 0
        for s, cs in enumerate(c, start=1):
            if cs > 0 and t - cum < cs:
                type2.append(Block(BlockKind.TYPE2, c[: s - 1] + (t - cum,)))
                break
            cum += cs
    return type1, tuple(type2), tuple(b.length for b in type2)


def _assert_catalog_matches_reference(coeffs):
    spec = validate_spec(coeffs)
    cat = block_catalog(spec)
    type1, type2, lengths = _reference_catalog(spec)
    assert cat.type1_blocks == type1, coeffs
    assert cat.type2_by_size == type2, coeffs
    assert cat.length_table == lengths, coeffs
    assert [cat.length_of(t) for t in range(spec.size)] == list(lengths), coeffs
    for t in (-1, spec.size):
        with pytest.raises(SizeOutOfRange):
            cat.length_of(t)


@given(RANDOM_SPECS)
def test_catalog_matches_prefix_walk_on_random_specs(coeffs):
    _assert_catalog_matches_reference(coeffs)


def test_catalog_matches_prefix_walk_on_the_spec_box():
    for coeffs in SPEC_BOX:
        _assert_catalog_matches_reference(coeffs)
