import math
from fractions import Fraction

import pytest
from hypothesis import settings, strategies as st

from plrs import validate_spec

# Deterministic hypothesis runs so the suite is reproducible.  The tests
# check exact values, not speed, so no example has a deadline: a loaded host
# must not fail an example that is correct.
settings.register_profile("det", derandomize=True, max_examples=60, deadline=None)
settings.load_profile("det")

# The four fixture recurrences used throughout: Zeckendorf/Fibonacci, the
# size-6 length-4 example with an interior zero, the binary system
# (H_n = 2^(n-1), summand counts are shifted binomials), and a sparse
# length-3 recurrence.
FIXTURE_COEFFS = [(1, 1), (2, 2, 0, 2), (1, 2), (3, 0, 1)]


@pytest.fixture(params=FIXTURE_COEFFS, ids=lambda c: ",".join(map(str, c)))
def fixture_spec(request):
    return validate_spec(request.param)


@pytest.fixture
def fib():
    return validate_spec((1, 1))


@pytest.fixture
def h2202():
    return validate_spec((2, 2, 0, 2))


# Random valid specs: L <= 6, c_i <= 4, zeros in the middle allowed, and the
# base-k systems (k,).
_POSITIVE = st.integers(min_value=1, max_value=4)
RANDOM_SPECS = st.one_of(
    st.integers(min_value=2, max_value=4).map(lambda k: (k,)),
    st.tuples(
        _POSITIVE, st.lists(st.integers(min_value=0, max_value=4), max_size=4), _POSITIVE
    ).map(lambda p: (p[0], *p[1], p[2])),
)


def unreduced_y_pairs(engine, n_max):
    """Var[Y_n] for 2L < n <= n_max by the unreduced route, reduced once.

    Over ``P = prod_l T_r`` (r = n - l) the law of total variance gives the
    pair ``(V_n P - T_n sum_l k V_r P/T_r, T_n^2 P)`` with
    ``V = T A_2 - A_1^2``; ``Fraction`` reduces it with one full-size gcd.
    Reads only the raw sums and ``removal_rows`` of ``engine``.
    """
    L = engine.spec.length
    pairs = {}
    for n in range(2 * L + 1, n_max + 1):
        Tn, A1n, A2n = engine._low_sums(n)
        within, P = 0, 1
        for k, _, _, r in engine.removal_rows(n):
            Tr, A1, A2 = engine._low_sums(r)
            within = within * Tr + k * (Tr * A2 - A1 * A1) * P
            P *= Tr
        var = Fraction((Tn * A2n - A1n * A1n) * P - Tn * within, Tn * Tn * P)
        pairs[n] = var.numerator, var.denominator
    return pairs


def assert_y_pairs_match_the_unreduced_route(report, engine):
    """Every ``y_pairs`` entry is in lowest terms, with a positive
    denominator, and equals the unreduced route's pair."""
    for n, (num, den) in report.y_pairs.items():
        assert den > 0 and math.gcd(num, den) == 1, n
    assert report.y_pairs == unreduced_y_pairs(engine, report.growth.n_max)
