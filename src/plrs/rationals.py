"""Helpers for exact rationals: text forms and dyadic rounding.

JSON and CSV output never uses floats for exact quantities.  A rational is
serialized as the string ``"p/q"`` (or ``"p"`` when the denominator is 1),
which ``fractions.Fraction(text)`` parses back.  For human-readable reports,
:func:`decimal_str` renders a rational in decimal with a fixed number of
significant digits using integer arithmetic only.
"""

import math
from fractions import Fraction

__all__ = ["format_fraction", "decimal_str", "round_to_bits"]


def format_fraction(x: Fraction) -> str:
    """Render ``x`` as ``"p/q"`` (``"p"`` when q == 1), exact."""
    if not isinstance(x, Fraction):
        x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _over(p: int, q: int, g: int) -> Fraction:
    """``p/q`` in lowest terms, given ``q > 0`` and ``g = gcd(p, q)``.

    Divides by ``g`` (unless it is 1) and runs no gcd of its own: the
    caller knows the common factor, or knows it is 1.  Fraction keeps its
    two terms in ``__slots__``, so the result is an ordinary Fraction.
    """
    x = object.__new__(Fraction)
    x._numerator, x._denominator = (p, q) if g == 1 else (p // g, q // g)
    return x


def _minus(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """``a/b - c/d`` as an integer pair in lowest terms, given both
    operands in lowest terms with positive denominators.

    Fraction's own subtraction on bare integers: with ``g = gcd(b, d)``
    the only common factor left in the result divides g, so no gcd runs
    on the full-size numerator and denominator.
    """
    g = math.gcd(b, d)
    if g == 1:
        return a * d - b * c, b * d
    s = b // g
    t = a * (d // g) - c * s
    g2 = math.gcd(t, g)
    return t // g2, s * (d // g2)


def decimal_str(x: Fraction, digits: int = 12) -> str:
    """Decimal rendering of a rational with ``digits`` fractional digits.

    Rounds half away from zero; computed with integer arithmetic so the
    result is correct for arbitrarily large numerators and denominators.
    """
    x = Fraction(x)
    sign = "-" if x < 0 else ""
    p, q = abs(x.numerator), x.denominator
    scaled, rem = divmod(p * 10**digits, q)
    if 2 * rem >= q:
        scaled += 1
    whole, frac = divmod(scaled, 10**digits)
    if digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{digits}d}"


def round_to_bits(x: Fraction, bits: int) -> Fraction:
    """Round ``x`` to a dyadic rational with ``bits`` significant bits.

    The result is exactly representable in binary floating point of the given
    mantissa width, so later arithmetic on it can stay exact.  Rounds half
    away from zero.
    """
    if bits <= 0:
        raise ValueError("bits must be positive")
    x = Fraction(x)
    if x == 0:
        return Fraction(0)
    sign = -1 if x < 0 else 1
    p, q = abs(x.numerator), x.denominator
    # Exponent e with round(|x| / 2^e) holding `bits` significant bits.
    e = p.bit_length() - q.bit_length() - bits
    if e >= 0:
        m, rem = divmod(p, q << e)
        den = q << e
    else:
        m, rem = divmod(p << -e, q)
        den = q
    if 2 * rem >= den:
        m += 1
    return sign * Fraction(m) * Fraction(2) ** e
