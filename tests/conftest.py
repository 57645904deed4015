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
