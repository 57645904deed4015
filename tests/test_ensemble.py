import math
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given

import plrs.ensemble
from plrs import (
    CapExceeded,
    EmptyDistribution,
    IndexTooSmall,
    SequenceTable,
    SizeOutOfRange,
    SpecMismatch,
    SummandPolynomial,
    SummandTable,
    block_catalog,
    conditional_mean_check,
    conditional_tally,
    decompose,
    enumerate_by_integer_walk,
    enumerate_omega,
    estimate_growth,
    find_threshold_N,
    first_moment_identity,
    gaussian_diagnostics,
    is_legal,
    parse_blocks,
    sample_uniform,
    second_moment_identity,
    stats_from_polynomial,
    validate_spec,
    value,
    verify_variance_bound,
    z_distribution,
)

from conftest import FIXTURE_COEFFS, RANDOM_SPECS


# -- enumeration ---------------------------------------------------------------

def test_enumerate_goldens(fib, h2202):
    assert [d.coefficients for d in enumerate_omega(fib, 3)] == [(1, 0, 0), (1, 0, 1)]
    assert [d.coefficients for d in enumerate_omega(fib, 1)] == [(1,)]
    assert [d.coefficients for d in enumerate_omega(h2202, 1)] == [(1,), (2,)]


def test_walk_goldens(fib, h2202):
    t = SequenceTable(fib)
    assert [d.coefficients for d in enumerate_by_integer_walk(t, 4)] == [
        (1, 0, 0, 0), (1, 0, 0, 1), (1, 0, 1, 0),
    ]
    assert [d.coefficients for d in enumerate_by_integer_walk(t, 2)] == [(1, 0)]
    assert len(list(enumerate_by_integer_walk(SequenceTable(h2202), 2))) == 6


def test_walk_cap(fib):
    with pytest.raises(CapExceeded):
        list(enumerate_by_integer_walk(SequenceTable(fib), 12, cap=10))
    # cap=None disables the guard; |interval| = H_13 - H_12 = 377 - 233
    assert len(list(enumerate_by_integer_walk(SequenceTable(fib), 12, cap=None))) == 144


def test_enumerators_agree(fixture_spec):
    table = SequenceTable(fixture_spec)
    for n in range(1, 10):
        grammar = {d.coefficients for d in enumerate_omega(fixture_spec, n)}
        walk = {d.coefficients for d in enumerate_by_integer_walk(table, n)}
        assert grammar == walk


@given(RANDOM_SPECS)
@example((9,))  # RANDOM_SPECS has c_i <= 4; these hold runs of 5 to 12 sizes
@example((1, 7))
@example((5, 0, 6))
@example((2, 12, 1))
def test_enumerators_agree_on_random_specs(coeffs):
    # Every index whose space holds at most 500 outcomes.
    spec = validate_spec(coeffs)
    table = SequenceTable(spec)
    n = 1
    while (width := table.term(n + 1) - table.term(n)) <= 500:
        grammar = [d.coefficients for d in enumerate_omega(spec, n)]
        assert len(grammar) == width, n
        assert all(is_legal(spec, c) for c in grammar), n
        walk = [d.coefficients for d in enumerate_by_integer_walk(table, n)]
        assert grammar == walk, n  # the same strings in the same order
        n += 1


@given(RANDOM_SPECS)
def test_integer_walk_is_greedy_decompose(coeffs):
    # The walk shares decompose's digit loop but reads the terms once per
    # index; it must still give decompose's answer for every integer, and
    # value must agree with the sum written out term by term.
    spec = validate_spec(coeffs)
    table = SequenceTable(spec)
    n = 1
    while (hi := table.term(n + 1)) - (lo := table.term(n)) <= 500:
        walk = list(enumerate_by_integer_walk(table, n))
        assert walk == [decompose(table, m) for m in range(lo, hi)], n
        for m, d in zip(range(lo, hi), walk):
            a = d.coefficients
            direct = sum(a[i] * table.term(d.m - i) for i in range(d.m))
            assert value(table, d) == direct == m
        n += 1


def test_deep_strings_enumerate_without_recursion():
    # 1, then 998 zeros, then 1: at n = 2010 most outcomes hold about a
    # thousand [0] blocks, more than the recursion limit allows frames.
    spec = validate_spec((1,) + (0,) * 998 + (1,))
    table = SequenceTable(spec)
    count = sum(1 for _ in enumerate_omega(spec, 2010))
    assert count == table.term(2011) - table.term(2010) == 1066


def test_integer_walk_carries_deep_strings_in_linear_time():
    # 1, then 998 zeros, then 1, at n = 2010: zeros in block states 1..999
    # hold their state's largest value, so a carry backs up over about 500
    # positions on average.  The walk must give decompose's string for
    # every integer, the interval's ends included, and beat decomposing
    # them one by one, which costs n digits each.  A back-up that re-sums
    # capacities per step (quadratic), or a precomputed n x L capacity
    # table, takes longer than that.
    spec = validate_spec((1,) + (0,) * 998 + (1,))
    table = SequenceTable(spec)
    lo, hi = table.term(2010), table.term(2011)
    t0 = time.perf_counter()
    expected = [decompose(table, m).coefficients for m in range(lo, hi)]
    greedy_s = time.perf_counter() - t0
    walk_s = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        walk = [d.coefficients for d in enumerate_by_integer_walk(table, 2010)]
        walk_s = min(walk_s, time.perf_counter() - t0)
    assert walk == expected
    assert len(walk) == 1066
    assert walk_s < greedy_s, (walk_s, greedy_s)


def test_cardinality_four_ways(fixture_spec):
    table = SequenceTable(fixture_spec)
    engine = SummandTable(fixture_spec)
    for n in range(1, 12):
        expected = table.term(n + 1) - table.term(n)
        assert sum(1 for _ in enumerate_omega(fixture_spec, n)) == expected
        assert sum(1 for _ in enumerate_by_integer_walk(table, n)) == expected
        assert engine.polynomial(n).total == expected


def test_enumeration_is_sorted_by_block_sizes(fixture_spec):
    # The documented order: lexicographic in block-size sequences, with a
    # closing type-1 block (the shorter sequence) first on ties.
    for n in range(1, 9):
        keys = []
        for d in enumerate_omega(fixture_spec, n):
            parse = parse_blocks(fixture_spec, d)
            keys.append(tuple(b.size for b in parse.blocks))
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


# -- the dynamic program -------------------------------------------------------

def test_polynomial_goldens(fib):
    assert SummandTable(fib).polynomial(3).coeffs == (0, 1, 1)  # x + x^2
    assert SummandTable(fib).polynomial(1).coeffs == (0, 1)  # x
    assert SummandTable(fib).polynomial(4).coeffs == (0, 1, 2)  # x + 2x^2


def test_polynomial_matches_enumeration_tally(fixture_spec):
    engine = SummandTable(fixture_spec)
    for n in range(1, 10):
        tally = Counter(d.summand_count for d in enumerate_omega(fixture_spec, n))
        coeffs = engine.polynomial(n).coeffs
        assert coeffs == tuple(tally[k] for k in range(max(tally) + 1))


def test_polynomial_never_counts_zero_summands(fixture_spec):
    engine = SummandTable(fixture_spec)
    for n in range(1, 25):
        assert engine.polynomial(n).coeffs[0] == 0


def test_binary_system_is_binomial():
    # For coefficients (1,2) the terms are 2^(n-1), decompositions are plain
    # binary digits, so the count with k summands is C(n-1, k-1).
    spec = validate_spec((1, 2))
    engine = SummandTable(spec)
    for n in range(1, 31):
        coeffs = engine.polynomial(n).coeffs
        expected = [0] + [math.comb(n - 1, k - 1) for k in range(1, n + 1)]
        assert list(coeffs) == expected


def test_stats_goldens(fib):
    engine = SummandTable(fib)
    s4 = engine.stats(4)
    assert (s4.mean, s4.variance) == (Fraction(5, 3), Fraction(2, 9))
    s3 = engine.stats(3)
    assert (s3.mean, s3.variance) == (Fraction(3, 2), Fraction(1, 4))


def test_stats_single_term_polynomial():
    s = stats_from_polynomial(SummandPolynomial(1, (0, 0, 0, 7)))
    assert (s.mean, s.variance) == (3, 0)
    assert (s.central3, s.central4) == (0, 0)


def test_stats_empty_distribution():
    with pytest.raises(EmptyDistribution):
        stats_from_polynomial(SummandPolynomial(1, (0, 0)))


def test_stats_invariants(fixture_spec):
    engine = SummandTable(fixture_spec)
    table = SequenceTable(fixture_spec)
    for n in range(1, 31):
        s = engine.stats(n)
        assert s.variance >= 0
        assert s.cardinality == engine.polynomial(n).total
        assert s.cardinality == table.term(n + 1) - table.term(n)


@given(RANDOM_SPECS)
def test_moment_engine_matches_polynomial_dp(coeffs):
    spec = validate_spec(coeffs)
    engine = SummandTable(spec)
    for n in range(1, 41):
        poly = engine.polynomial(n)
        assert poly.coeffs[-1] != 0
        expected = stats_from_polynomial(poly)
        got = engine.stats(n)
        assert got == expected
        assert got.central3 == expected.central3
        assert got.central4 == expected.central4
        assert engine.second_raw_moment(n) == got.variance + got.mean**2


def test_statistics_never_build_tail_polynomials(fixture_spec, monkeypatch):
    asked = []

    def refuse(self, n):
        asked.append(n)
        raise AssertionError(f"a statistic asked for the histogram of {n}")

    monkeypatch.setattr(SummandTable, "polynomial", refuse)
    engine = SummandTable(fixture_spec)
    for n in range(1, 401):
        engine.stats(n)
        engine.second_raw_moment(n)
    engine = SummandTable(fixture_spec)
    verify_variance_bound(engine, 200)
    engine = SummandTable(fixture_spec)
    for n in range(2 * fixture_spec.length + 1, 201):
        first_moment_identity(engine, n)
        second_moment_identity(engine, n)
    growth = estimate_growth(engine, 200)
    find_threshold_N(engine, growth, 200)
    assert asked == []


def test_stats_memory_stays_small_at_large_n(h2202):
    # The tail-polynomial DP needed about 5 GB for this index.
    engine = SummandTable(h2202)
    tracemalloc.start()
    try:
        s = engine.stats(4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    table = SequenceTable(h2202)
    assert s.cardinality == table.term(4001) - table.term(4000)
    assert s.variance > 0


def test_stats_are_views_that_keep_nothing(h2202):
    # A per-index cache of the views kept about 339 KB here; the moment rows
    # are the only store, so reading every view leaves next to nothing.
    engine = SummandTable(h2202)
    engine.extend(400)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in range(1, 401):
            engine.stats(n).variance
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 2**10


def test_polynomial_any_order_matches_a_fresh_table(fixture_spec):
    # Ascending, repeated and descending requests on one table must match a
    # fresh table.
    engine = SummandTable(fixture_spec)
    for n in (1, 2, 3, 9, 9, 30, 31, 29, 12, 3, 1, 30):
        assert engine.polynomial(n) == SummandTable(fixture_spec).polynomial(n), n


def _reference_polynomials(spec, n_max):
    """P_1, ..., P_{n_max} by the tail recurrence on coefficient lists, one
    Python addition per size and per coefficient, each read as
    Q_n - Q_{n-1}: the oracle of the packed table."""
    catalog = block_catalog(spec)

    def shift_add(acc, src, t):  # acc += x^t * src
        need = t + len(src)
        acc.extend([0] * (need - len(acc)))
        acc[t:need] = [a + b for a, b in zip(acc[t:need], src)]

    def tail(r, tails):  # Q_r from the last L tails, which end at Q_{r-1}
        acc = []
        for t, ell in enumerate(catalog.length_table):
            if ell > r:
                break
            shift_add(acc, tails[-ell], t)
        if r < spec.length:
            shift_add(acc, [1], catalog.type1_blocks[r - 1].size)
        return acc

    tails = [[1]]
    for n in range(1, n_max + 1):
        q = tail(n, tails)
        p = q[:]
        for k, c in enumerate(tails[-1]):
            p[k] -= c
        yield SummandPolynomial(n, tuple(p))
        tails = (tails + [q])[-spec.length :]


def _reference_polynomial(spec, n):
    """P_n by the list oracle."""
    *_, poly = _reference_polynomials(spec, n)
    return poly


def test_reference_polynomial_goldens(fib):
    assert _reference_polynomial(fib, 4).coeffs == (0, 1, 2)
    assert _reference_polynomial(validate_spec((1, 2)), 5).coeffs == (0, 1, 4, 6, 4, 1)


@given(RANDOM_SPECS)
@example((9,))  # RANDOM_SPECS has c_i <= 4; these hold runs of 5 to 12 sizes
@example((1, 7))
@example((5, 0, 6))
@example((2, 12, 1))
def test_packed_polynomial_matches_the_list_oracle(coeffs):
    spec = validate_spec(coeffs)
    engine = SummandTable(spec)
    for n, expected in enumerate(_reference_polynomials(spec, 60), 1):
        assert engine.polynomial(n) == expected, n


def test_packed_polynomial_matches_the_list_oracle_at_large_n(fixture_spec):
    engine = SummandTable(fixture_spec)
    for expected in _reference_polynomials(fixture_spec, 616):
        if expected.n in (208, 416, 616):
            assert engine.polynomial(expected.n) == expected, expected.n


def _spy_slot_widths(monkeypatch):
    """Record the slot width of every ``_slots`` call; the last call of a
    ``polynomial(n)`` is its unpack, at the final width."""
    widths = []
    slots = plrs.ensemble._slots

    def spy(packed, bits):
        widths.append(bits)
        return slots(packed, bits)

    monkeypatch.setattr(plrs.ensemble, "_slots", spy)
    return widths


def _least_slot_width(count):
    """The least multiple of 64 bits that holds ``count``."""
    return -(-count.bit_length() // 64) * 64


def test_packed_polynomial_across_slot_widths(h2202, monkeypatch):
    # The slots widen with the tail count Q_r(1) = H_{r+1}, and narrow again
    # on a lower request, since every call starts over from Q_0.
    spied = _spy_slot_widths(monkeypatch)
    engine = SummandTable(h2202)
    table = SequenceTable(h2202)
    widths = []
    for n in (5, 40, 43, 302, 616, 200, 3):  # 43 and 302 cross a step
        assert engine.polynomial(n) == _reference_polynomial(h2202, n), n
        assert spied[-1] == _least_slot_width(table.term(n + 1)), n
        widths.append(spied[-1])
    assert len(set(widths)) >= 4, widths
    assert widths[-2] < widths[-3]


@pytest.mark.parametrize(
    "coeffs, n_max",
    [((2,), 140), ((4,), 70), ((2, 2, 0, 2), 300), ((1, 1), 300), ((3, 0, 1), 300)],
    ids=["2", "4", "2,2,0,2", "1,1", "3,0,1"],
)
def test_slot_boundaries(coeffs, n_max, monkeypatch):
    # Every n up to past several 64-bit slot steps, each on a fresh table:
    # the histogram matches the list oracle, and the final slot width is
    # the least that holds H_{n+1}, widened at n itself too.
    spec = validate_spec(coeffs)
    spied = _spy_slot_widths(monkeypatch)
    table = SequenceTable(spec)
    for expected in _reference_polynomials(spec, n_max):
        n = expected.n
        assert SummandTable(spec).polynomial(n) == expected, n
        assert spied[-1] == _least_slot_width(table.term(n + 1)), n


def test_removal_rows_read_no_moment_row(fixture_spec):
    # Reading the raw sums at each r here extended a fresh table to n - 1.
    engine = SummandTable(fixture_spec)
    rows = engine.removal_rows(400)
    assert engine._moments == [(1, 0, 0, 0, 0)]
    assert [r for *_, r in rows] == [400 - ell for ell, _, _ in engine._by_length]


@given(RANDOM_SPECS)
@example((10**6,))
def test_run_power_sums_match_the_sizes(coeffs):
    # The closed forms per run against sum t^m over every size t of the
    # run; on base 10^6 the size-by-size sums were the whole cost of a
    # SummandTable.
    by_length = plrs.ensemble._by_length(validate_spec(coeffs))
    assert [ell for ell, _, _ in by_length] == [s for s, a in enumerate(coeffs, 1) if a]
    for ell, power, _ in by_length:
        sizes = range(sum(coeffs[: ell - 1]), sum(coeffs[:ell]))
        assert power == tuple(sum(t**m for t in sizes) for m in range(5)), ell


def _no_block_catalog(spec):
    raise AssertionError(f"the block catalog of {spec} was built")


@pytest.mark.parametrize(
    "coeffs", [*FIXTURE_COEFFS, (1, 99999)], ids=lambda c: ",".join(map(str, c))
)
def test_statistics_build_no_block_catalog(coeffs, monkeypatch):
    # The moment engine, the closed-form z-distribution and the conditional
    # check read the size runs, never a per-size block: on (1, 99999),
    # S = 10^5, the catalog made 10^5 blocks per table.  Each module that
    # holds the name gets the raising stand-in.  The tally walks the grammar,
    # so it is taken first, at the least index with a second-to-last block,
    # where the space is small enough to walk.
    spec = validate_spec(coeffs)
    n, first = 2 * spec.length + 11, 2 * spec.length + 1
    small = spec.size < 10
    tally = conditional_tally(spec, first) if small else None
    for name, module in list(sys.modules.items()):
        if name.startswith("plrs") and hasattr(module, "block_catalog"):
            monkeypatch.setattr(module, "block_catalog", _no_block_catalog)
    table = SequenceTable(spec)
    engine = SummandTable(spec)
    assert engine.stats(n).cardinality == table.term(n + 1) - table.term(n)
    assert sum(k for k, *_ in engine.removal_rows(n)) == spec.size
    assert sum(z_distribution(spec, n, table=table, cross_check=False).probs) == 1
    m = 30 if small else 1  # P_m of (1, 99999) spans about m * S / 2 slots
    assert engine.polynomial(m).total == table.term(m + 1) - table.term(m)
    assert verify_variance_bound(engine, n + 20).all_pass
    assert len(gaussian_diagnostics(engine, [n, n + 1])) == 2
    for identity in (first_moment_identity, second_moment_identity):
        lhs, rhs = identity(engine, n)
        assert lhs == rhs
    for t in range(spec.size if small else 0):
        for moment in (1, 2):
            lhs, rhs = conditional_mean_check(engine, first, t, tally=tally, moment=moment)
            assert lhs == rhs, (t, moment)


def test_histogram_steps_once_per_run_of_sizes():
    # Base 10^5: one run of 10^5 sizes.  Adding one shifted tail per size
    # re-added the whole accumulator each time, about 22 s for P_1 alone.
    b = 10**5
    spec = validate_spec((b,))
    engine, table = SummandTable(spec), SequenceTable(spec)
    assert engine.polynomial(1).coeffs == (0,) + (1,) * (b - 1)
    poly = engine.polynomial(2)
    assert poly.total == table.term(3) - table.term(2)
    # k summands: the digit pairs d_1 + d_2 = k with 1 <= d_1 < b, 0 <= d_2 < b.
    pairs = (min(k, b - 1) - max(1, k - b + 1) + 1 for k in range(2 * b - 1))
    assert poly.coeffs == tuple(pairs)


def test_a_table_keeps_nothing_after_a_histogram(fixture_spec):
    # Keeping the last L packed tails between calls retained 36-492 KB here.
    # The histogram reads H_1..H_617 from the process-wide term table, which
    # keeps them for later requests by design; grow it first, so only what
    # the SummandTable keeps is measured.
    engine = SummandTable(fixture_spec)
    plrs.recurrence._shared_table(fixture_spec).extend(617)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        engine.polynomial(616)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 16 * 2**10
    engine.stats(700)
    engine.polynomial(5)
    assert vars(engine).keys() == {"spec", "_by_length", "_moments"}


@pytest.mark.parametrize("coeffs", [(3, 0, 1), (2, 2, 0, 2)], ids=["3,0,1", "2,2,0,2"])
def test_reslot_holds_one_old_tail_at_a_time(coeffs):
    # A call holds the last L packed tails, the one it builds and one tail's
    # bytes while it unpacks or widens them: about L + 3 tails the size of
    # P_n packed.  Widening every held tail while all the old ones were kept
    # peaked at 2L + 1.6 to 2L + 1.9 of those here; one at a time, at
    # L + 3.4 to L + 3.5.
    spec = validate_spec(coeffs)
    n = 616
    tracemalloc.start()
    try:
        histogram = SummandTable(spec).polynomial(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    width = _least_slot_width(SequenceTable(spec).term(n + 1))
    packed = len(histogram.coeffs) * width // 8
    assert peak < (spec.length + 4) * packed


@pytest.mark.parametrize("coeffs", [(3, 0, 1), (2, 2, 0, 2)], ids=["3,0,1", "2,2,0,2"])
def test_polynomial_memory_is_quadratic(coeffs):
    # Keeping every tail polynomial (O(n^3) bits) held 26-37 MB at n = 600
    # and 9-12 MB at n = 400 for these specs; the last L need a fraction.
    spec = validate_spec(coeffs)
    engine = SummandTable(spec)
    tracemalloc.start()
    try:
        total = engine.polynomial(400).total
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    table = SequenceTable(spec)
    assert total == table.term(401) - table.term(400)


def test_polynomial_coefficients_exceed_float_range():
    # Exactness must survive far past 2^53 and even past float overflow.
    spec = validate_spec((3, 0, 1))
    engine = SummandTable(spec)
    total = engine.polynomial(800).total
    table = SequenceTable(spec)
    assert total == table.term(801) - table.term(800)
    assert total > 10**390


# -- distribution of the second-to-last block size ------------------------------

def test_z_distribution_golden(fib):
    zd = z_distribution(fib, 5)
    assert zd.probs == (Fraction(3, 5), Fraction(2, 5))
    assert zd.empirical_counts == (3, 2)


def test_z_distribution_contracts(fixture_spec):
    L, S = fixture_spec.length, fixture_spec.size
    table = SequenceTable(fixture_spec)
    for n in range(2 * L + 1, 19):
        zd = z_distribution(fixture_spec, n, table=table, cross_check=False)
        assert sum(zd.probs) == 1
        assert all(a >= b for a, b in zip(zd.probs, zd.probs[1:]))
        assert zd.probs[0] >= Fraction(1, S)


def test_z_distribution_bijection_cardinality(fixture_spec):
    # The tally of each block size equals the cardinality of the shorter
    # space reached by deleting the block.
    L = fixture_spec.length
    table = SequenceTable(fixture_spec)
    n = 2 * L + 2
    zd = z_distribution(fixture_spec, n, table=table, cross_check=True)
    assert zd.empirical_counts is not None
    for t, count in enumerate(zd.empirical_counts):
        shorter = n - zd.lengths[t]
        assert count == table.term(shorter + 1) - table.term(shorter)


@pytest.mark.parametrize("cross_check", [None, False])
def test_z_distribution_refuses_another_specs_table(fib, h2202, cross_check):
    # Fibonacci's sizes weighed by 2,2,0,2's terms summed to 629/1300, or,
    # with the cross-check on, failed it as a verification error.
    with pytest.raises(SpecMismatch):
        z_distribution(fib, 9, table=SequenceTable(h2202), cross_check=cross_check)
    equal = SequenceTable(validate_spec((1, 1)))  # an equal spec, not the same object
    assert sum(z_distribution(fib, 9, table=equal, cross_check=cross_check).probs) == 1


def test_z_distribution_index_too_small(fixture_spec):
    with pytest.raises(IndexTooSmall):
        z_distribution(fixture_spec, 2 * fixture_spec.length)


# -- conditional moments ---------------------------------------------------------

def test_conditional_mean_goldens(fib):
    engine = SummandTable(fib)
    tally = conditional_tally(fib, 5)
    assert conditional_mean_check(engine, 5, 0, tally=tally) == (
        Fraction(5, 3), Fraction(5, 3)
    )
    assert conditional_mean_check(engine, 5, 1, tally=tally) == (
        Fraction(5, 2), Fraction(5, 2)
    )
    assert conditional_mean_check(engine, 5, 0, tally=tally, moment=2) == (
        Fraction(3), Fraction(3)
    )


@pytest.mark.parametrize(
    "coeffs, ns",
    [
        ((1, 1), (5, 6, 7)),
        ((1, 2), (5, 6, 7)),
        ((2, 2, 0, 2), (9, 10)),
        ((3, 0, 1), (7, 8)),
    ],
)
def test_conditional_moments_exact(coeffs, ns):
    spec = validate_spec(coeffs)
    engine = SummandTable(spec)
    for n in ns:
        tally = conditional_tally(spec, n)
        for t in range(spec.size):
            for moment in (1, 2):
                lhs, rhs = conditional_mean_check(engine, n, t, tally=tally, moment=moment)
                assert lhs == rhs, (coeffs, n, t, moment)


def test_conditional_tally_serves_every_check(fixture_spec):
    spec = fixture_spec
    n = 2 * spec.length + 1
    expected = [[0, 0, 0] for _ in range(spec.size)]
    for d in enumerate_omega(spec, n):
        row = expected[parse_blocks(spec, d).blocks[-2].size]
        row[0] += 1
        row[1] += d.summand_count
        row[2] += d.summand_count**2
    tally = conditional_tally(spec, n)
    assert tally == tuple(map(tuple, expected))
    engine = SummandTable(spec)
    for t in range(spec.size):
        for moment in (1, 2):
            lhs, rhs = conditional_mean_check(engine, n, t, tally=tally, moment=moment)
            assert lhs == rhs, (t, moment)


def test_conditional_check_errors(fib):
    engine, tally = SummandTable(fib), conditional_tally(fib, 5)
    with pytest.raises(IndexTooSmall):
        conditional_mean_check(engine, 4, 0, tally=tally)
    with pytest.raises(SizeOutOfRange):
        conditional_mean_check(engine, 5, 9, tally=tally)
    with pytest.raises(ValueError):
        conditional_mean_check(engine, 5, 0, tally=tally, moment=3)
    with pytest.raises(TypeError):  # one tally serves every check; there is no default
        conditional_mean_check(engine, 5, 0)
    with pytest.raises(CapExceeded):
        conditional_tally(fib, 30, cap=10)
    with pytest.raises(IndexTooSmall):
        conditional_tally(fib, 4)


# -- sampling --------------------------------------------------------------------

def test_sampling_deterministic(fib):
    table = SequenceTable(fib)
    a = [d.coefficients for d in sample_uniform(table, 25, 50, seed=123)]
    b = [d.coefficients for d in sample_uniform(table, 25, 50, seed=123)]
    assert a == b
    c = [d.coefficients for d in sample_uniform(table, 25, 50, seed=124)]
    assert a != c


def test_sampling_values_in_range(fixture_spec):
    table = SequenceTable(fixture_spec)
    lo, hi = table.term(12), table.term(13)
    for d in sample_uniform(table, 12, 200, seed=9):
        assert d.m == 12
        v = value(table, d)
        assert lo <= v < hi


def test_sampling_single_draw(fib):
    table = SequenceTable(fib)
    (d,) = sample_uniform(table, 8, 1, seed=3)
    assert d.m == 8


def test_sampling_mean_close_to_exact(fib):
    # 10^4 draws at n=30; the sample mean sits within five standard errors
    # of the exact mean (a fixed seed keeps this deterministic).
    table = SequenceTable(fib)
    engine = SummandTable(fib)
    stats = engine.stats(30)
    n_samples = 10_000
    total = sum(d.summand_count for d in sample_uniform(table, 30, n_samples, seed=7))
    sample_mean = Fraction(total, n_samples)
    tolerance = 5 * math.sqrt(float(stats.variance) / n_samples)
    assert abs(float(sample_mean - stats.mean)) <= tolerance


def test_sampling_argument_validation(fib):
    table = SequenceTable(fib)
    with pytest.raises(ValueError):
        list(sample_uniform(table, 0, 1, seed=1))
    with pytest.raises(ValueError):
        list(sample_uniform(table, 1, 0, seed=1))


# -- single-coefficient recurrences: plain positional digits ----------------------

def test_length_one_spec_is_base_k():
    spec = validate_spec((4,))
    # strings are base-4 digit sequences with a leading nonzero digit
    got = [d.coefficients for d in enumerate_omega(spec, 2)]
    expected = [(a, b) for a in range(1, 4) for b in range(4)]
    assert sorted(got) == sorted(expected)
    # second-to-last digit is uniform once n > 2L = 2
    zd = z_distribution(spec, 3)
    assert zd.probs == (Fraction(1, 4),) * 4
    assert zd.lengths == (1, 1, 1, 1)
