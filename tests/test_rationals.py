import sys
from fractions import Fraction

import pytest

from plrs import decimal_str, format_fraction, round_to_bits
from plrs.rationals import _over


def test_format_and_parse_round_trip():
    for q in [Fraction(0), Fraction(5), Fraction(-7, 3), Fraction(10**40, 3**30)]:
        assert Fraction(format_fraction(q)) == q


def test_format_integer_has_no_slash():
    assert format_fraction(Fraction(8, 4)) == "2"
    assert format_fraction(Fraction(3, 7)) == "3/7"


def test_decimal_str_rounds_half_away():
    assert decimal_str(Fraction(1, 3), 6) == "0.333333"
    assert decimal_str(Fraction(2, 3), 6) == "0.666667"
    assert decimal_str(Fraction(1, 2), 0) == "1"
    assert decimal_str(Fraction(-1, 8), 3) == "-0.125"
    assert decimal_str(Fraction(5, 1), 2) == "5.00"


def test_decimal_str_huge_values_exact():
    q = Fraction(10**50 + 1, 10**50)
    assert decimal_str(q, 50) == "1." + "0" * 49 + "1"


def test_round_to_bits_identity_for_dyadics():
    x = Fraction(5, 16)
    assert round_to_bits(x, 20) == x


def test_round_to_bits_precision():
    x = Fraction(1, 3)
    for bits in (16, 53, 128):
        r = round_to_bits(x, bits)
        assert abs(r - x) <= Fraction(1, 2**bits)
        # dyadic: denominator is a power of two
        assert r.denominator & (r.denominator - 1) == 0


def test_round_to_bits_negative_symmetric():
    x = Fraction(-1, 3)
    assert round_to_bits(x, 40) == -round_to_bits(-x, 40)


def test_round_to_bits_zero_and_bad_bits():
    assert round_to_bits(Fraction(0), 10) == 0
    with pytest.raises(ValueError):
        round_to_bits(Fraction(1), 0)


@pytest.fixture
def unlimited_int_digits():
    """Lift CPython's int<->str digit limit (3.11+) for one test, as the CLI does."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def test_round_trips_past_the_int_digit_limit(unlimited_int_digits):
    q = Fraction(7**5917 + 1, 3**10480)  # about 5,000 digits on each side
    assert len(str(q.numerator)) > 5000 and len(str(q.denominator)) > 5000
    assert Fraction(format_fraction(q)) == q
    assert Fraction(format_fraction(-q)) == -q
    x = Fraction(10**5000 + 1, 3)
    text = decimal_str(x, 3)
    assert text == "3" * 5000 + ".667"
    assert Fraction(text) == Fraction(round(x * 1000), 1000)


def test_over_builds_a_plain_reduced_fraction():
    x = _over(6 * 10**40, 4 * 10**40, 2 * 10**40)
    assert type(x) is Fraction and (x.numerator, x.denominator) == (3, 2)
    assert x == Fraction(3, 2) and hash(x) == hash(Fraction(3, 2))
    assert format_fraction(_over(0, 7, 7)) == "0"
    assert (_over(-3, 7, 1).numerator, _over(-3, 7, 1).denominator) == (-3, 7)
