import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given

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

from conftest import FIXTURE_COEFFS, RANDOM_SPECS


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


@given(RANDOM_SPECS)
def test_integer_sweep_matches_fraction_reference(coeffs):
    spec = validate_spec(coeffs)
    engine = SummandTable(spec)
    growth = estimate_growth(engine, 60)
    lo, hi = growth.window
    b_fold = sum(
        (engine.mean(n) - growth.a_est * n for n in range(lo, hi + 1)), Fraction(0)
    ) / (hi - lo + 1)
    assert growth.b_est == round_to_bits(b_fold, growth.precision_bits)
    # past the estimate's window too: the residual is read at any index
    for n in range(2 * spec.length + 1, 71):
        assert y_statistics(engine, n, growth) == _reference_y_statistics(
            engine, n, growth
        )


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
    monkeypatch.setattr(
        "plrs.theorem.y_statistics", lambda *a, **k: (Fraction(0), Fraction(0))
    )
    with pytest.raises(NoThresholdInRange):
        find_threshold_N(SummandTable(fib), growth, 40)


def test_find_threshold_takes_the_last_failure_and_counts_equality(monkeypatch, fib):
    # Var[Y_n] <= bound fails an index, equality included, and N is the last
    # failing index: 9 fails below the bound, 17 at it, every other passes.
    growth = estimate_growth(SummandTable(fib), 40)
    bound = growth.a_est**2 / (2 * fib.size)
    variances = {9: bound / 2, 17: bound}
    monkeypatch.setattr(
        "plrs.theorem.y_statistics",
        lambda engine, n, growth: (Fraction(0), variances.get(n, bound + 1)),
    )
    assert find_threshold_N(SummandTable(fib), growth, 40) == 17


def test_verify_needs_ten_indices_beyond_the_threshold(monkeypatch, fib):
    real = theorem.y_statistics

    def y_fails_at_20(engine, n, growth):
        ey, var_y = real(engine, n, growth)
        return ey, Fraction(0) if n == 20 else var_y

    monkeypatch.setattr("plrs.theorem.y_statistics", y_fails_at_20)
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
        c0 = sum(k * Tr for _, (k, _, _), (Tr, _, _) in engine.removal_rows(n))
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

def test_y_mean_check_detects_corrupt_removal_rows(monkeypatch, fib):
    # The variance never reads s1, so only the mean check sees this.
    engine = SummandTable(fib)
    growth = estimate_growth(engine, 40)
    real = engine.removal_rows

    def corrupt(n):
        (ell, (k, s1, s2), sums), *rest = real(n)
        return ((ell, (k, s1 + 1, s2), sums), *rest)

    monkeypatch.setattr(engine, "removal_rows", corrupt)
    with pytest.raises(PlrsError):
        y_statistics(engine, 40, growth)
