import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, strategies as st

from plrs import (
    ConstantChoice,
    DegenerateVariance,
    IndexTooSmall,
    NonPositiveC,
    NoThresholdInRange,
    PlrsError,
    SequenceTable,
    SpecMismatch,
    SummandTable,
    WindowTooSmall,
    block_catalog,
    compute_c,
    estimate_growth,
    find_threshold_N,
    first_moment_identity,
    gaussian_diagnostics,
    second_moment_identity,
    validate_spec,
    verify_variance_bound,
    y_statistics,
    z_distribution,
)
from plrs import theorem
from plrs.errors import BoundViolated
from plrs.rationals import round_to_bits

from conftest import FIXTURE_COEFFS, RANDOM_SPECS, assert_y_pairs_match_the_unreduced_route


# -- growth estimation ----------------------------------------------------------

def test_growth_fibonacci_slope():
    spec = validate_spec((1, 1))
    growth = estimate_growth(SummandTable(spec), 120)
    # classical value: the mean slope is (5 - sqrt 5)/10, computed here
    # independently of the engine
    target = (5 - math.sqrt(5)) / 10
    assert abs(float(growth.a_est) - target) < 1e-3
    assert float(growth.convergence_gap) < 1e-6


def test_growth_positive_slope_and_shrinking_residuals(fixture_spec):
    engine = SummandTable(fixture_spec)
    growth = estimate_growth(engine, 80)
    assert growth.a_est > 0
    f = [engine.mean(n) - growth.a_est * n - growth.b_est for n in range(1, 81)]
    quarter = len(f) // 4
    head = max(abs(x) for x in f[:quarter])
    tail = max(abs(x) for x in f[-quarter:])
    # residuals decay; for (1,2) and (3,0,1) the mean is exactly linear,
    # so both maxima are identically zero and there is nothing to shrink
    assert tail < head or (head == 0 and tail == 0)


def test_growth_window_too_small(fixture_spec):
    with pytest.raises(WindowTooSmall):
        estimate_growth(SummandTable(fixture_spec), 4 * fixture_spec.length)


def _secant_intercept(engine, n):
    """The exact intercept of the line through the means at n - 1 and n."""
    return n * engine.mean(n - 1) - (n - 1) * engine.mean(n)


def test_growth_intercept_is_the_last_secant(fixture_spec):
    # The residual of the mean decays geometrically, so the exact secant
    # intercept four times further out stands in for b.  The average of
    # E[K_n] - a*n over the top quarter of the window missed it by
    # 2^-124.3 on 1,1 and 2^-121.9 on 2,2,0,2.
    engine = SummandTable(fixture_spec)
    growth = estimate_growth(engine, 400)
    b_ref = _secant_intercept(engine, 1600)
    assert abs(growth.b_est - b_ref) <= Fraction(1, 2**127)
    if fixture_spec.coefficients in {(1, 2), (3, 0, 1)}:
        # exactly linear means: every secant meets the axis at the same b
        assert growth.b_est == round_to_bits(_secant_intercept(engine, 400), 128)
        assert growth.b_est == b_ref
    assert growth.n_max == 400


# -- the centered block statistic -------------------------------------------------

def test_y_mean_equals_residual(fixture_spec):
    engine = SummandTable(fixture_spec)
    growth = estimate_growth(engine, 80)
    for n in (2 * fixture_spec.length + 1, 40, 80):
        ey, var_y = y_statistics(SummandTable(fixture_spec), n, growth)
        assert ey == engine.mean(n) - growth.a_est * n - growth.b_est
        assert var_y >= 0


def test_y_variance_beats_bound_at_large_n(fib):
    growth = estimate_growth(SummandTable(fib), 80)
    _, var_y = y_statistics(SummandTable(fib), 60, growth)
    assert var_y > growth.a_est**2 / (2 * fib.size)  # S = 2: bound a^2/4


def test_y_statistics_errors(fib):
    growth = estimate_growth(SummandTable(fib), 40)
    with pytest.raises(IndexTooSmall):
        y_statistics(SummandTable(fib), 4, growth)


def _reference_y_statistics(engine, n, growth):
    """The statistic summed size by size over the block-size probabilities."""
    zd = z_distribution(engine.spec, n, cross_check=False)
    a, b = growth.a_est, growth.b_est
    ey = ey2 = Fraction(0)
    for t, p in enumerate(zd.probs):
        r = n - zd.lengths[t]
        y = t + (engine.mean(r) - a * r - b) - a * zd.lengths[t]
        ey += p * y
        ey2 += p * y * y
    return ey, ey2 - ey * ey


def _reference_verify(engine, growth, var_y):
    """The threshold and the rows of the verify chain in Fraction arithmetic,
    from ``var_y`` over ``2L < n <= n_max``: the bound a^2/(2S), N, c, and
    each row's mean, variance, c*n, margin and verdict, with the variance
    as E[K^2] - E[K]^2."""
    L, S = engine.spec.length, engine.spec.size
    n_max = max(var_y)
    y_bound = growth.a_est**2 / (2 * S)
    failures = [n for n, v in var_y.items() if v <= y_bound]
    N = failures[-1] if failures else 2 * L + 1
    moments = {}
    for n in range(L + 1, n_max + 1):
        T, A1, A2 = engine.stats(n).raw_sums[:3]
        mean = Fraction(A1, T)
        moments[n] = mean, Fraction(A2, T) - mean * mean
    c = min(
        [moments[n][1] / n for n in range(L + 1, N + 1)]
        + [growth.a_est**2 / (2 * S * L)]
    )
    rows = [
        (n, mean, var, c * n, var - c * n, var >= c * n)
        for n, (mean, var) in moments.items()
    ]
    return y_bound, N, rows


@given(RANDOM_SPECS)
def test_integer_sweep_matches_fraction_reference(coeffs):
    spec = validate_spec(coeffs)
    engine = SummandTable(spec)
    growth = estimate_growth(engine, 60)
    b_secant = _secant_intercept(engine, 60)
    assert growth.b_est == round_to_bits(b_secant, growth.precision_bits)
    # past the estimate's window too: the residual is read at any index
    reference = {}
    for n in range(2 * spec.length + 1, 71):
        reference[n] = _reference_y_statistics(engine, n, growth)
        assert y_statistics(engine, n, growth) == reference[n]
    # the whole chain: integer sweep and rows against Fraction arithmetic
    report = verify_variance_bound(engine, 60)
    assert report.growth == growth
    var_y = {n: var for n, (_, var) in reference.items() if n <= 60}
    y_bound, N, rows = _reference_verify(engine, growth, var_y)
    reduced = {n: Fraction(num, den) for n, (num, den) in report.y_pairs.items()}
    assert (reduced, report.y_bound, report.threshold_N) == (var_y, y_bound, N)
    assert_y_pairs_match_the_unreduced_route(report, SummandTable(spec))
    assert [
        (r.n, r.mean, r.variance, r.bound, r.margin, r.passed) for r in report.per_n
    ] == rows


def _terms(x):
    return x.numerator, x.denominator


def test_one_pass_chain_matches_the_per_index_path(fixture_spec):
    # The sweep and the rows read one (T, A_1, V) list per call.  The oracle
    # stays apart from it: y_statistics reads the removal rows at each n on
    # a second table, and stats(n) is a view of that table's moment rows.
    report = verify_variance_bound(SummandTable(fixture_spec), 400)
    oracle = SummandTable(fixture_spec)
    assert list(report.y_pairs) == list(range(2 * fixture_spec.length + 1, 401))
    for n, (num, den) in report.y_pairs.items():
        var_y = y_statistics(oracle, n, report.growth)[1]
        assert _terms(Fraction(num, den)) == _terms(var_y), n
    assert_y_pairs_match_the_unreduced_route(report, oracle)
    c = report.choice.value
    assert [row.n for row in report.per_n] == list(range(fixture_spec.length + 1, 401))
    for row in report.per_n:
        s = oracle.stats(row.n)
        cn = c * row.n
        assert _terms(row.mean) == _terms(s.mean), row.n
        assert _terms(row.variance) == _terms(s.variance), row.n
        assert _terms(row.bound) == _terms(cn), row.n
        assert _terms(row.margin) == _terms(s.variance - cn), row.n
        assert row.passed is (s.variance >= cn)


@given(
    st.integers(min_value=1, max_value=2**80),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.integers(min_value=0, max_value=2**80),
)
@example(12, 5, 7)
@example(2**40 * 3**5, 7**9, 11)
def test_a_coprime_mean_leaves_the_variance_reduced(T, A, B):
    # V/T^2 is in lowest terms when gcd(A_1, T) = 1: a prime dividing T and
    # V = T B - A^2 divides A^2, hence A.
    assume(math.gcd(A, T) == 1)
    assert math.gcd(T * B - A * A, T * T) == 1


_WIDE = st.integers(min_value=2**5000, max_value=2**5200)


@st.composite
def _wide_sums(draw):
    """``(T, A_1, A_2)`` of at least 5,000 bits each.

    T is ``2^i 3^j`` times a cofactor: either i and j in the thousands
    with a cofactor below 2^64, so that repeated primes make up nearly all
    of T (as on ``3,0,1``, where g holds nearly all of T), or small i and
    j with a wide cofactor.  A_1 is ``2^i' 3^j'`` times a wide integer,
    with i' and j' from 0 to twice T's exponents, so that g^2 falls short
    of, meets or passes T's power of 2 and of 3.
    """
    smooth = draw(st.booleans())
    i = draw(st.integers(2500, 4000) if smooth else st.integers(0, 64))
    j = draw(st.integers(1600, 2500) if smooth else st.integers(0, 64))
    T = 2**i * 3**j * draw(st.integers(1, 2**64) if smooth else _WIDE)
    i1, j1 = draw(st.integers(0, 2 * i)), draw(st.integers(0, 2 * j))
    return T, 2**i1 * 3**j1 * draw(_WIDE), draw(_WIDE)


@given(_wide_sums())
def test_v_shares_with_t_the_square_of_the_mean_gcd(sums):
    # gcd(T A_2 - A_1^2, T) = gcd(A_1^2, T) = gcd(g^2, T) with g = gcd(A_1, T),
    # so each index reduces V/T with no gcd of V.
    T, A1, A2 = sums
    V, g = T * A2 - A1 * A1, math.gcd(A1, T)
    assert math.gcd(V, T) == math.gcd(g * g, T)
    reduced = Fraction(V, T)
    assert theorem._with_v(T, A1, A2) == (T, A1, g, *_terms(reduced))


@given(_wide_sums())
def test_the_row_variance_reduces_by_gcd_of_p_and_t_over_q(sums):
    # For p/q = V/T in lowest terms, Var[K] = p/(q T) and
    # gcd(p, q T) = gcd(p, T/q), as p and q are coprime.
    T, A1, A2 = sums
    p, q = _terms(Fraction(T * A2 - A1 * A1, T))
    assert math.gcd(p, q * T) == math.gcd(p, T // q)


def test_find_threshold_small(fixture_spec):
    growth = estimate_growth(SummandTable(fixture_spec), 80)
    N = find_threshold_N(SummandTable(fixture_spec), growth, 80)
    assert 2 * fixture_spec.length < N <= 60


def test_y_bound_values():
    # S = 2 gives a^2/4; S = 6 gives a^2/12
    fib = validate_spec((1, 1))
    g = estimate_growth(SummandTable(fib), 40)
    assert g.a_est**2 / (2 * fib.size) == g.a_est**2 / 4
    h = validate_spec((2, 2, 0, 2))
    gh = estimate_growth(SummandTable(h), 40)
    assert gh.a_est**2 / (2 * h.size) == gh.a_est**2 / 12


def test_find_threshold_no_threshold(monkeypatch, fib):
    growth = estimate_growth(SummandTable(fib), 40)
    monkeypatch.setattr("plrs.theorem._y_variance", lambda *a, **k: (0, 1))
    with pytest.raises(NoThresholdInRange):
        find_threshold_N(SummandTable(fib), growth, 40)


def test_find_threshold_takes_the_last_failure_and_counts_equality(monkeypatch, fib):
    # Var[Y_n] <= bound fails an index, equality included, and N is the last
    # failing index: 9 fails below the bound, 17 at it, every other passes.
    # The sweep's pairs are unreduced, so the forced ones are too.
    growth = estimate_growth(SummandTable(fib), 40)
    bound = growth.a_est**2 / (2 * fib.size)
    p, q = bound.numerator, bound.denominator
    variances = {9: (p, 2 * q), 17: (3 * p, 3 * q)}  # bound / 2 and bound
    monkeypatch.setattr(
        "plrs.theorem._y_variance",
        lambda n, here, removed: variances.get(n, (p + q, q)),  # bound + 1
    )
    assert find_threshold_N(SummandTable(fib), growth, 40) == 17


def test_verify_needs_ten_indices_beyond_the_threshold(monkeypatch, fib):
    real = theorem._y_variance

    def y_fails_at_20(n, here, removed):
        pair = real(n, here, removed)
        return (0, 1) if n == 20 else pair

    monkeypatch.setattr("plrs.theorem._y_variance", y_fails_at_20)
    with pytest.raises(WindowTooSmall):
        verify_variance_bound(SummandTable(fib), 29)
    assert verify_variance_bound(SummandTable(fib), 30).threshold_N == 20


def test_growth_read_against_another_table_raises(fib, h2202):
    growth = estimate_growth(SummandTable(fib), 40)
    assert growth.spec == fib
    other = SummandTable(h2202)
    assert estimate_growth(other, 40).spec == h2202
    with pytest.raises(SpecMismatch):
        y_statistics(other, 20, growth)
    with pytest.raises(SpecMismatch):
        find_threshold_N(other, growth, 40)
    with pytest.raises(SpecMismatch):
        compute_c(other, growth, 20)


# -- the constant ------------------------------------------------------------------

def test_compute_c_fibonacci():
    spec = validate_spec((1, 1))
    engine = SummandTable(spec)
    growth = estimate_growth(engine, 80)
    N = find_threshold_N(engine, growth, 80)
    choice = compute_c(engine, growth, N)
    assert choice.value > 0
    labels = [s for s, _ in choice.candidates]
    assert f"var({spec.length + 1})/{spec.length + 1}" in labels
    assert "a_est^2/(2*S*L)" in labels
    assert choice.value == min(v for _, v in choice.candidates)
    assert (choice.source, choice.value) in choice.candidates


def test_compute_c_base_variances_positive(fixture_spec):
    engine = SummandTable(fixture_spec)
    growth = estimate_growth(engine, 80)
    N = find_threshold_N(engine, growth, 80)
    for n in range(fixture_spec.length + 1, N + 1):
        assert engine.stats(n).variance > 0


def test_compute_c_rejects_a_vanished_base_variance(monkeypatch, fib):
    # The per-index guard names the index; the guard on the minimum would
    # raise too, but without it.
    engine = SummandTable(fib)
    growth = estimate_growth(engine, 40)
    real = engine.stats
    monkeypatch.setattr(
        engine,
        "stats",
        lambda n: SimpleNamespace(variance=Fraction(0)) if n == 4 else real(n),
    )
    with pytest.raises(NonPositiveC, match="variance vanished at n=4"):
        compute_c(engine, growth, 10)


def test_compute_c_rejects_empty_window(fib):
    growth = estimate_growth(SummandTable(fib), 40)
    with pytest.raises(ValueError):
        compute_c(SummandTable(fib), growth, fib.length)


# -- identities --------------------------------------------------------------------

def test_removal_identities_exact(fixture_spec):
    engine = SummandTable(fixture_spec)
    for n in range(2 * fixture_spec.length + 1, 51):
        lhs, rhs = first_moment_identity(engine, n)
        assert lhs == rhs, n
        lhs2, rhs2 = second_moment_identity(engine, n)
        assert lhs2 == rhs2, n


def _reference_removal_moments(spec, n, engine, table):
    """Both removal right sides, summed size by size over the block-size
    probabilities of the closed form."""
    zd = z_distribution(spec, n, table=table, cross_check=False)
    m1 = m2 = Fraction(0)
    for t, p in enumerate(zd.probs):
        r = n - zd.lengths[t]
        m1 += p * (engine.mean(r) + t)
        m2 += p * (engine.second_raw_moment(r) + 2 * t * engine.mean(r) + t * t)
    return m1, m2


@given(RANDOM_SPECS)
def test_removal_identities_match_size_by_size_reference(coeffs):
    spec = validate_spec(coeffs)
    engine = SummandTable(spec)
    table = SequenceTable(spec)
    with pytest.raises(IndexTooSmall):
        engine.removal_rows(2 * spec.length)
    for n in range(2 * spec.length + 1, 41):
        lhs1, rhs1 = first_moment_identity(engine, n)
        lhs2, rhs2 = second_moment_identity(engine, n)
        assert lhs1 == rhs1 and lhs2 == rhs2, n
        assert (rhs1, rhs2) == _reference_removal_moments(spec, n, engine, table), n
        rows = engine.removal_rows(n)
        lengths = block_catalog(spec).length_table
        assert [r for *_, r in rows] == sorted({n - ell for ell in lengths}, reverse=True)
        c0 = sum(k * (table.term(r + 1) - table.term(r)) for k, _, _, r in rows)
        assert c0 == table.term(n + 1) - table.term(n), n


# -- full verification ---------------------------------------------------------------

def test_verify_fibonacci_full():
    spec = validate_spec((1, 1))
    report = verify_variance_bound(SummandTable(spec), 120)
    assert report.all_pass
    assert report.violations == ()
    assert report.threshold_N <= 60
    assert report.choice.value > 0
    assert report.slope_C_est > 0
    assert len(report.per_n) == 120 - spec.length
    assert all(row.margin >= 0 for row in report.per_n)


def test_verify_bound_violated_carries_report(monkeypatch):
    spec = validate_spec((1, 1))
    monkeypatch.setattr(
        "plrs.theorem.compute_c",
        lambda *a, **k: ConstantChoice(Fraction(10), "fake", ()),
    )
    with pytest.raises(BoundViolated) as exc_info:
        verify_variance_bound(SummandTable(spec), 60)
    exc = exc_info.value
    assert exc.n == spec.length + 1
    assert not exc.report.all_pass
    assert exc.report.violations[0] == exc.n


def test_verify_passes_a_row_with_zero_margin(monkeypatch, fib):
    # c at the smallest ratio Var[K_n]/n makes Var[K_n] = c*n at its index,
    # which passes: the bound is Var[K_n] >= c*n.
    engine = SummandTable(fib)
    c = min(engine.stats(n).variance / n for n in range(3, 41))
    monkeypatch.setattr(
        "plrs.theorem.compute_c", lambda *a, **k: ConstantChoice(c, "fake", ())
    )
    report = verify_variance_bound(engine, 40)
    assert report.all_pass
    assert any(row.margin == 0 for row in report.per_n)


@pytest.mark.parametrize("factor, undercut", [(20, True), (5, False)])
def test_verify_slope_check_allows_ten_times_the_difference_noise(
    monkeypatch, h2202, factor, undercut
):
    # c sits factor*|d2| above the last variance difference d1, where d2 is
    # the second difference (about 2.8e-21 here, far above the 2^-120 floor).
    # Every row passes (min Var[K_n]/n = 0.40301 > d1 = 0.40264), so only the
    # slope check decides, and its tolerance is 10*|d2|.
    engine = SummandTable(h2202)
    v2, v1, v0 = (engine.stats(n).variance for n in (58, 59, 60))
    d1 = v0 - v1
    c = d1 + factor * abs(d1 - (v1 - v2))
    monkeypatch.setattr(
        "plrs.theorem.compute_c", lambda *a, **k: ConstantChoice(c, "fake", ())
    )
    if undercut:
        with pytest.raises(PlrsError, match="undercuts"):
            verify_variance_bound(engine, 60)
    else:
        assert verify_variance_bound(engine, 60).all_pass


def test_report_holds_var_y_only_as_integer_pairs(h2202):
    # Caching the reduced fractions beside the pairs kept about 184 KB here.
    report = verify_variance_bound(SummandTable(h2202), 400)
    assert not hasattr(report, "var_y")
    assert list(report.y_pairs) == list(range(2 * h2202.length + 1, 401))
    for num, den in report.y_pairs.values():
        assert type(num) is int and type(den) is int
        assert den > 0 and math.gcd(num, den) == 1


def test_verify_all_fixture_specs_pass():
    for coeffs in FIXTURE_COEFFS:
        report = verify_variance_bound(SummandTable(validate_spec(coeffs)), 80)
        assert report.all_pass, coeffs


# -- shape diagnostics ----------------------------------------------------------------

def test_gaussian_trend_fibonacci():
    spec = validate_spec((1, 1))
    rows = gaussian_diagnostics(SummandTable(spec), [30, 90])
    assert rows[1].skewness_squared < rows[0].skewness_squared
    assert abs(rows[1].excess_kurtosis_exact) < abs(rows[0].excess_kurtosis_exact)
    assert rows[0].n == 30 and rows[1].n == 90


def test_gaussian_kurtosis_band(fixture_spec):
    (row,) = gaussian_diagnostics(SummandTable(fixture_spec), [120])
    assert Fraction(-1, 2) < row.excess_kurtosis_exact < Fraction(1, 2)


def test_gaussian_degenerate_variance(fib):
    with pytest.raises(DegenerateVariance):
        gaussian_diagnostics(SummandTable(fib), [1])


def test_gaussian_empty_list(fib):
    assert gaussian_diagnostics(SummandTable(fib), []) == ()


# -- internal consistency guard --------------------------------------------------------

def test_verify_forms_each_index_sums_once(monkeypatch, fib):
    # One pass over the moment rows per call: the Y sweep and the rows read
    # the same (T, A_1, V) list, and the sweep's removal_rows read no row.
    engine = SummandTable(fib)
    real, real_rows = engine._low_sums, engine.removal_rows
    calls, swept = {}, []

    def counted(n):
        calls[n] = calls.get(n, 0) + 1
        return real(n)

    def rows_only(n):
        held, engine._moments = engine._moments, None  # any row read fails
        try:
            rows = real_rows(n)
        finally:
            engine._moments = held
        swept.append(n)
        return rows

    monkeypatch.setattr(engine, "_low_sums", counted)
    monkeypatch.setattr(engine, "removal_rows", rows_only)
    growth = verify_variance_bound(engine, 40).growth
    assert calls == {n: 1 for n in range(fib.length + 1, 41)}
    assert swept == list(range(2 * fib.length + 1, 41))
    calls.clear()
    swept.clear()
    find_threshold_N(engine, growth, 40)
    assert calls == {n: 1 for n in range(fib.length + 1, 41)}
    assert swept == list(range(2 * fib.length + 1, 41))


def _corrupt_s1(monkeypatch, engine):
    """s1 + 1 on the shortest block length of every ``removal_rows``."""
    real = engine.removal_rows

    def corrupt(n):
        (k, s1, s2, r), *rest = real(n)
        return ((k, s1 + 1, s2, r), *rest)

    monkeypatch.setattr(engine, "removal_rows", corrupt)


def test_verify_stops_on_corrupt_removal_rows(monkeypatch, fib):
    # The first index of the sweep meets the corrupt row.
    engine = SummandTable(fib)
    _corrupt_s1(monkeypatch, engine)
    with pytest.raises(PlrsError, match="removal rows at n=5 "):
        verify_variance_bound(engine, 40)


def test_y_mean_check_detects_corrupt_removal_rows(monkeypatch, fib):
    # The variance never reads s1, so only the mean check sees this.
    engine = SummandTable(fib)
    growth = estimate_growth(engine, 40)
    _corrupt_s1(monkeypatch, engine)
    with pytest.raises(PlrsError):
        y_statistics(engine, 40, growth)
