import os
import subprocess
import sys
from itertools import accumulate, product
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from plrs import (
    Decomposition,
    IllegalDecomposition,
    NonPositiveInput,
    PlrsError,
    SequenceTable,
    SizeOutOfRange,
    SpecMismatch,
    TooFewBlocks,
    block_catalog,
    decompose,
    enumerate_omega,
    insert_block_before_last,
    is_legal,
    parse_blocks,
    remove_second_to_last_block,
    second_to_last_block_size,
    validate_spec,
    value,
)

from plrs.decomposition import LegalityResult, _greedy

from conftest import FIXTURE_COEFFS, RANDOM_SPECS


# -- independent legality oracle ---------------------------------------------
# A direct transcription of the two defining conditions, recursing on the
# remainder after the first strict drop.  Deliberately naive (it tries every
# split point) so it shares nothing with the library's scanner.

def _condition_holds(c, a):
    if len(a) == 0:
        return True
    L, m = len(c), len(a)
    if m < L and tuple(a) == tuple(c[:m]):  # condition 1
        return True
    for s in range(1, min(L, m) + 1):  # condition 2
        if tuple(a[: s - 1]) == tuple(c[: s - 1]) and a[s - 1] < c[s - 1]:
            if _condition_holds(c, a[s:]):
                return True
    return False


def legal_by_definition(c, a):
    return (
        len(a) >= 1
        and all(x >= 0 for x in a)
        and a[0] >= 1
        and _condition_holds(c, tuple(a))
    )


@pytest.mark.parametrize("coeffs", FIXTURE_COEFFS)
def test_is_legal_matches_definition_exhaustively(coeffs):
    spec = validate_spec(coeffs)
    alphabet = range(max(coeffs) + 2)  # one above any coefficient, to cross the bound
    for length in range(1, 7):
        for a in product(alphabet, repeat=length):
            assert bool(is_legal(spec, a)) == legal_by_definition(coeffs, a), a


@given(
    RANDOM_SPECS,
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=14),
)
@example((2, 2, 0, 2), [1, 0, 0, 2, 0, 0, 1])
@example((2, 2, 0, 2), [2, 2, 0, 2, 1])
def test_is_legal_matches_definition_random(coeffs, a):
    spec = validate_spec(coeffs)
    legal = bool(is_legal(spec, a))
    assert legal == legal_by_definition(coeffs, a)
    if legal:
        blocks = parse_blocks(spec, Decomposition(spec, a)).blocks
        if len(blocks) >= 2:
            assert second_to_last_block_size(spec, a) == blocks[-2].size


@st.composite
def _block_built(draw, digits=lambda coeffs: st.integers(0, 5)):
    """A spec and a string glued from its catalog blocks: type-2 blocks of
    random sizes (the first positive), optionally closed by a type-1 block,
    with one entry overwritten half of the time (by a draw from
    ``digits(coeffs)``) so both verdicts occur."""
    coeffs = draw(RANDOM_SPECS)
    catalog = block_catalog(validate_spec(coeffs))
    size = st.integers(min_value=0, max_value=len(catalog.type2_by_size) - 1)
    sizes = [draw(size.filter(bool))] + draw(st.lists(size, max_size=6))
    a = [x for t in sizes for x in catalog.type2_by_size[t].coefficients]
    if catalog.type1_blocks and draw(st.booleans()):
        a += draw(st.sampled_from(catalog.type1_blocks)).coefficients
    if draw(st.booleans()):
        a[draw(st.integers(0, len(a) - 1))] = draw(digits(coeffs))
    return coeffs, a


@given(_block_built())
def test_is_legal_matches_definition_block_built(case):
    # the same assertions as the uniform test, on mostly legal strings
    test_is_legal_matches_definition_random.hypothesis.inner_test(*case)


# -- the nested-loop scanner, kept as the reference for the one-pass _scan -----

def _reference_scan(c, a, require_positive_leading):
    """The scanner as first written: from each block start, walk the prefix
    ``c_1, c_2, ...`` until a strict drop, the end of the string, or a
    failure.  Returns ``(ends, reason, position)``."""
    n = len(a)
    if n == 0:
        return None, "empty coefficient string", None
    if min(a) < 0:
        first = next(i for i, x in enumerate(a) if x < 0)
        return None, "negative coefficient", first
    if require_positive_leading and a[0] < 1:
        return None, "leading coefficient must be positive", 0
    ends = []
    pos = 0
    while pos < n:
        end = pos
        for ci in c:
            if end == n:
                break  # the string ends mid-prefix: a type-1 block closes it
            x = a[end]
            if x > ci:
                return None, "coefficient exceeds the recurrence coefficient", end
            end += 1
            if x < ci:
                break  # the first strict drop closes a type-2 block
        else:
            return None, "matches the full coefficient prefix with no strict drop", pos
        ends.append(end)
        pos = end
    return ends, None, None


def _scan_digits(coeffs):
    """One below zero up to two above the largest coefficient."""
    return st.integers(min_value=-1, max_value=max(coeffs) + 2)


@st.composite
def _uniform_case(draw):
    coeffs = draw(RANDOM_SPECS)
    return coeffs, draw(st.lists(_scan_digits(coeffs), max_size=14))


@given(st.one_of(_uniform_case(), _block_built(_scan_digits)))
@example(((1, 1), [1, 1, 0]))  # full prefix at the start
@example(((2, 2, 0, 2), [1, 2, 2, 0, 2, 0]))  # full prefix in the middle
@example(((1, 1), [1, 0, 1, 1]))  # full prefix at the end
@example(((2, 2, 0, 2), [2, 2, 1, 0]))  # exceeds
@example(((1, 1), [1, 0, -1]))  # negative
@example(((1, 1), []))  # empty
@example(((1, 1), [0, 1]))  # leading zero
@example(((2, 2, 0, 2), [1, 2, 2]))  # closed by a type-1 block
def test_scan_matches_nested_loop_reference(case):
    # The scanner through its public readers.  With a positive leading
    # coefficient required, is_legal gives the reference's reason and
    # position.  With leading zeros allowed, parse_blocks gives its block
    # ends, and second_to_last_block_size the size of the block before the
    # last one, or the reference's failure as its error.
    coeffs, a = case
    spec = validate_spec(coeffs)
    ends, reason, position = _reference_scan(coeffs, a, True)
    verdict = is_legal(spec, a)
    assert (verdict.ok, verdict.reason, verdict.position) == (ends is not None, reason, position)

    ends, reason, position = _reference_scan(coeffs, a, False)
    if ends is None:
        where = f" (position {position})" if position is not None else ""
        for reader in (
            lambda: Decomposition(spec, a, require_proper=False),
            lambda: second_to_last_block_size(spec, a),
        ):
            with pytest.raises(IllegalDecomposition) as raised:
                reader()
            assert str(raised.value) == f"{reason}{where}"
        return
    blocks = parse_blocks(spec, Decomposition(spec, a, require_proper=False)).blocks
    assert list(accumulate(b.length for b in blocks)) == ends
    if len(ends) < 2:
        with pytest.raises(TooFewBlocks):
            second_to_last_block_size(spec, a)
    else:
        start = ends[-3] if len(ends) > 2 else 0
        assert second_to_last_block_size(spec, a) == sum(a[start:ends[-2]])


def test_is_legal_goldens(fib, h2202):
    assert is_legal(fib, (1, 0, 1))
    assert not is_legal(fib, (1, 1))
    assert is_legal(h2202, (2, 2, 0))  # a full type-1 block alone
    verdict = is_legal(fib, (0, 1))
    assert not verdict and verdict.position == 0
    assert not is_legal(fib, ())
    bad = is_legal(fib, (1, -2))
    assert not bad and bad.reason == "negative coefficient" and bad.position == 1


@pytest.mark.parametrize(
    "coeffs, position",
    [
        ("101", 0),
        ([1, None], 1),
        ([1.5, 0], 0),
        ([1.0, 0], 0),
        ([1, 0, 1.0], 2),
        ([-1, "x"], 1),
        (lambda: (a for a in [1, 0, None]), 2),  # a fresh generator per read
        ([10**400, 1.5], 1),  # the int-sum fast path overflows to float
        ((1, 0.5, 1), 1),
    ],
    ids=["str", "none", "float-above", "float-equal", "float-last", "after-negative",
         "generator", "float-after-huge-int", "float-inside"],
)
def test_is_legal_reports_non_integer_entries(fib, coeffs, position):
    fresh = coeffs if callable(coeffs) else lambda: coeffs
    assert is_legal(fib, fresh()) == LegalityResult(
        False, "non-integer coefficient", position
    )
    # the constructor applies the same rule, and converts nothing
    with pytest.raises(
        IllegalDecomposition, match=rf"^non-integer coefficient \(position {position}\)$"
    ):
        Decomposition(fib, fresh())
    # and so does the block parse behind second_to_last_block_size
    with pytest.raises(
        IllegalDecomposition, match=rf"^non-integer coefficient \(position {position}\)$"
    ):
        second_to_last_block_size(fib, fresh())


def test_is_legal_takes_bools_as_ints(fib):
    assert is_legal(fib, [True, False, True])
    assert is_legal(fib, [True, True]) == is_legal(fib, [1, 1])
    for entries in ([True, False, True], (a for a in [True, False, True])):
        stored = Decomposition(fib, entries).coefficients
        assert stored == (1, 0, 1) and all(type(a) is int for a in stored)


# -- greedy decomposition ----------------------------------------------------

def test_decompose_goldens(fib, h2202):
    assert decompose(SequenceTable(fib), 12).coefficients == (1, 0, 1, 0, 1)
    assert decompose(SequenceTable(h2202), 601).coefficients == (1, 0, 0, 2, 0, 0, 1)
    # 8 = H_4 + H_3 is greedy but not legal for 1,0,2 (c_2 = 0 caps the digit)
    one_zero_two = SequenceTable(validate_spec((1, 0, 2)))
    assert decompose(one_zero_two, 8).coefficients == (1, 0, 1, 1)


def test_decompose_unit_vectors(fixture_spec):
    table = SequenceTable(fixture_spec)
    for n in range(1, 12):
        d = decompose(table, table.term(n))
        assert d.coefficients == (1,) + (0,) * (n - 1)


def test_decompose_rejects_non_positive(fib):
    table = SequenceTable(fib)
    for m in (0, -5):
        with pytest.raises(NonPositiveInput):
            decompose(table, m)


def test_decompose_rejects_non_integers(fib):
    # 2.5 tripped a bare assert, or under -O decomposed 2; "7" raised a raw
    # TypeError; 1e30 decomposed 1000000000000000019884624838656.
    table = SequenceTable(fib)
    for m in (2.5, 7.9, 1e30, 7.0, "7", None, False):
        with pytest.raises(NonPositiveInput):
            decompose(table, m)
    assert decompose(table, True).coefficients == (1,)  # a bool counts as an int


def test_greedy_checks_the_digits_are_worth_their_integer():
    # Weights that are not the terms leave a remainder; the check is no assert.
    with pytest.raises(PlrsError, match="fall short of their integer by 1"):
        _greedy((2,), (1, 1), 3, [])


def test_integer_checks_hold_under_optimization():
    # python -O strips asserts; both checks must still raise.
    script = """if True:
        from plrs import NonPositiveInput, PlrsError, SequenceTable, validate_spec
        from plrs.decomposition import _greedy, decompose
        table = SequenceTable(validate_spec((1, 1)))
        for m in (2.5, 7.9):
            try:
                decompose(table, m)
            except NonPositiveInput:
                pass
            else:
                raise SystemExit(f"decompose({m}) returned")
        try:
            _greedy((2,), (1, 1), 3, [])
        except PlrsError:
            print("ok")
    """
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stdout) == (0, "ok\n"), done.stderr


def test_round_trip_small(fixture_spec):
    table = SequenceTable(fixture_spec)
    for m in range(1, 10_001):
        d = decompose(table, m)
        assert value(table, d) == m
    # spot check legality on a thinner grid (construction already validates)
    for m in range(1, 10_001, 97):
        assert is_legal(fixture_spec, decompose(table, m).coefficients)


@given(RANDOM_SPECS, st.integers(min_value=1, max_value=10**450 - 1))
@example((2, 2, 0, 2), 3**940)  # 450 digits: query_mix's largest decompose
@example((1, 0, 0, 0, 0, 1), 10**450 - 1)  # interior zeros, a 4,000-digit string
def test_round_trip_large_random(coeffs, m):
    spec = validate_spec(coeffs)
    table = SequenceTable(spec)
    d = decompose(table, m)
    assert value(table, d) == m
    assert is_legal(spec, d.coefficients)


def test_uniqueness_against_definition_oracle():
    # Values of all definition-legal strings of length n tile the interval
    # [H_n, H_{n+1}) exactly; this validates both the grammar and greedy.
    limits = {(1, 1): 10, (2, 2, 0, 2): 9, (1, 2): 9, (3, 0, 1): 8}
    for coeffs, n_top in limits.items():
        spec = validate_spec(coeffs)
        table = SequenceTable(spec)
        for n in range(1, n_top + 1):
            H = table.terms(n + 1)
            values = []
            for a in product(range(max(coeffs) + 1), repeat=n):
                if legal_by_definition(coeffs, a):
                    values.append(
                        sum(x * H[n - 1 - i] for i, x in enumerate(a))
                    )
            assert sorted(values) == list(range(H[n - 1], H[n])), (coeffs, n)


# -- value --------------------------------------------------------------------

def test_value_goldens(fib, h2202):
    assert value(SequenceTable(fib), Decomposition(fib, (1, 0, 1, 0, 1))) == 12
    assert value(SequenceTable(h2202), Decomposition(h2202, (1, 0, 0, 2, 0, 1))) == 215
    assert value(SequenceTable(fib), Decomposition(fib, (1,))) == 1


def test_value_spec_mismatch(fib, h2202):
    with pytest.raises(SpecMismatch):
        value(SequenceTable(h2202), Decomposition(fib, (1, 0)))


# -- block parsing -------------------------------------------------------------

def test_parse_goldens(fib, h2202):
    assert str(parse_blocks(fib, Decomposition(fib, (1, 0, 1, 0, 1)))) == "[1 0][1 0][1]"
    assert (
        str(parse_blocks(h2202, Decomposition(h2202, (1, 0, 0, 2, 0, 0, 1))))
        == "[1][0][0][2 0][0][1]"
    )


def test_parse_single_coefficient(fib, h2202):
    from plrs import BlockKind

    assert parse_blocks(fib, Decomposition(fib, (1,))).blocks[0].kind is BlockKind.TYPE1
    assert (
        parse_blocks(h2202, Decomposition(h2202, (1,))).blocks[0].kind
        is BlockKind.TYPE2
    )


def test_parse_returns_the_catalog_blocks(fixture_spec):
    # Each block equals the one built from its own run and is the catalog's
    # object: type 2 by size, type 1 by length.
    from plrs import Block, BlockKind

    catalog = block_catalog(fixture_spec)
    c = fixture_spec.coefficients
    for n in range(1, 9):
        for d in enumerate_omega(fixture_spec, n):
            start = 0
            for b in parse_blocks(fixture_spec, d).blocks:
                run = d.coefficients[start:start + b.length]
                if run[-1] < c[len(run) - 1]:
                    assert b == Block(BlockKind.TYPE2, run)
                    assert b is catalog.type2_by_size[b.size]
                else:
                    assert b == Block(BlockKind.TYPE1, run)
                    assert b is catalog.type1_blocks[b.length - 1]
                start += b.length
            assert start == n


def test_parse_contracts_over_enumeration(fixture_spec):
    from plrs import BlockKind, second_to_last_block_size

    for n in range(1, 9):
        for d in enumerate_omega(fixture_spec, n):
            parse = parse_blocks(fixture_spec, d)
            assert sum((b.coefficients for b in parse.blocks), ()) == d.coefficients
            kinds = [b.kind for b in parse.blocks]
            assert all(k is BlockKind.TYPE2 for k in kinds[:-1])
            # the streaming size accessor agrees with the full parse
            if len(parse.blocks) >= 2:
                assert (
                    second_to_last_block_size(fixture_spec, d.coefficients)
                    == parse.blocks[-2].size
                )


def test_second_to_last_size_errors(fib):
    from plrs import TooFewBlocks, second_to_last_block_size
    from plrs.errors import IllegalDecomposition

    with pytest.raises(TooFewBlocks):
        second_to_last_block_size(fib, (1,))
    with pytest.raises(IllegalDecomposition):
        second_to_last_block_size(fib, (1, 1))
    with pytest.raises(IllegalDecomposition):
        second_to_last_block_size(fib, (2, 0))
    with pytest.raises(IllegalDecomposition):
        second_to_last_block_size(fib, (1, -1, 1))


def test_summand_count():
    fib = validate_spec((1, 1))
    assert Decomposition(fib, (1, 0, 1, 0, 1)).summand_count == 3
    h = validate_spec((2, 2, 0, 2))
    assert Decomposition(h, (1, 0, 0, 2, 0, 0, 1)).summand_count == 4
    assert Decomposition(fib, (1, 0, 0, 0)).summand_count == 1


def test_illegal_construction_raises(fib):
    with pytest.raises(IllegalDecomposition):
        Decomposition(fib, (1, 1))
    with pytest.raises(IllegalDecomposition):
        Decomposition(fib, (0, 1))  # padded needs require_proper=False
    Decomposition(fib, (0, 1), require_proper=False)
    with pytest.raises(IllegalDecomposition):
        Decomposition(fib, (), require_proper=False)


def test_text_round_trip(fib):
    d = Decomposition(fib, (1, 0, 1, 0, 1))
    assert str(d) == "1 0 1 0 1"


# -- block surgery -------------------------------------------------------------

def test_remove_golden_fibonacci(fib):
    table = SequenceTable(fib)
    d = decompose(table, 12)
    shorter, t = remove_second_to_last_block(fib, d)
    assert t == 1
    assert str(parse_blocks(fib, shorter)) == "[1 0][1]"
    assert value(table, shorter) == 4  # H_3 + H_1

    again, t2 = remove_second_to_last_block(fib, shorter)
    assert t2 == 1 and again.coefficients == (1,)


def test_remove_golden_length_four(h2202):
    table = SequenceTable(h2202)
    d = decompose(table, 601)
    shorter, t = remove_second_to_last_block(h2202, d)
    assert t == 0
    assert str(parse_blocks(h2202, shorter)) == "[1][0][0][2 0][1]"
    assert value(table, shorter) == 215  # H_6 + 2 H_3 + H_1


def test_remove_single_block_fails(fib):
    with pytest.raises(TooFewBlocks):
        remove_second_to_last_block(fib, Decomposition(fib, (1,)))


def test_insert_goldens(fib, h2202):
    d = Decomposition(fib, (1, 0, 1))  # [1 0][1]
    grown = insert_block_before_last(fib, d, 1)
    assert grown.coefficients == (1, 0, 1, 0, 1)

    padded = insert_block_before_last(fib, Decomposition(fib, (1,)), 0)
    assert padded.coefficients == (0, 1)
    assert padded.m == 2 and not padded.coefficients[0] >= 1

    d6 = Decomposition(h2202, (1, 0, 0, 2, 0, 1))
    assert insert_block_before_last(h2202, d6, 0).coefficients == (1, 0, 0, 2, 0, 0, 1)


def test_insert_size_out_of_range(fib):
    with pytest.raises(SizeOutOfRange):
        insert_block_before_last(fib, Decomposition(fib, (1,)), 2)
    with pytest.raises(SizeOutOfRange):
        insert_block_before_last(fib, Decomposition(fib, (1,)), -1)


def test_remove_insert_round_trip(fixture_spec):
    # Over every outcome with at least three blocks, removal then insertion
    # of the same size is the identity, and the count/length shifts match.
    from plrs import block_catalog

    cat = block_catalog(fixture_spec)
    L = fixture_spec.length
    for n in range(2 * L + 1, 2 * L + 4):
        for d in enumerate_omega(fixture_spec, n):
            shorter, t = remove_second_to_last_block(fixture_spec, d)
            ell = cat.length_of(t)
            assert shorter.m == d.m - ell
            assert shorter.summand_count == d.summand_count - t
            assert insert_block_before_last(fixture_spec, shorter, t) == d


def test_insertion_keeps_legality(fixture_spec):
    # Inserting any type-2 block before the last block of a legal
    # decomposition yields a legal decomposition.
    L = fixture_spec.length
    n = 2 * L + 1
    for d in enumerate_omega(fixture_spec, n):
        for t in range(fixture_spec.size):
            grown = insert_block_before_last(fixture_spec, d, t)
            assert is_legal(fixture_spec, grown.coefficients)


def test_insert_then_remove_is_identity(fixture_spec):
    table = SequenceTable(fixture_spec)
    for m in range(2, 200, 7):
        d = decompose(table, m)
        if len(parse_blocks(fixture_spec, d).blocks) < 2:
            continue
        for t in range(fixture_spec.size):
            grown = insert_block_before_last(fixture_spec, d, t)
            back, t_back = remove_second_to_last_block(fixture_spec, grown)
            assert t_back == t and back == d
