"""Growth constants and the linear variance lower bound.

The mean summand count grows like ``a*n + b`` up to a vanishing residual
``f(n)``.  This module estimates ``a`` and ``b`` by differencing the exact
means, tabulates ``f``, and then verifies the chain that yields a positive
constant ``c`` with ``Var[K_n] >= c*n`` for every ``n > L``:

1. the centered statistic of the second-to-last block,
   ``Y_n = Z_n + f(n - L_n) - a*L_n``, has mean exactly ``f(n)`` and
   eventually ``Var[Y_n] > a^2 / (2S)``;
2. past the threshold N where that bound holds, the constant
   ``c = min(Var[K_{L+1}]/(L+1), ..., Var[K_N]/N, a^2/(2SL))``
   is positive and ``Var[K_n] >= c*n`` holds everywhere above L.

Everything downstream of the estimation step is exact: ``a`` and ``b`` are
rounded once to dyadic rationals with a configurable number of bits
(default 128), after which residuals, the Y statistics, c and every
comparison are computed in exact rational arithmetic.  The only
approximation error is the distance between the differenced estimate and
the true limit slope, reported as ``convergence_gap``.

Two exact identities tie the distribution at index n to the shorter
spaces reached by deleting the second-to-last block; they avoid a and b
entirely and are the strongest regression checks in the package:

    E[K_n]   = sum_t P(Z_n = t) * (E[K_{n-len(t)}] + t)
    E[K_n^2] = sum_t P(Z_n = t) * (E[K_{n-len(t)}^2]
                                   + 2 t E[K_{n-len(t)}] + t^2)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .ensemble import SummandTable, z_distribution
from .errors import (
    BoundViolated,
    DegenerateVariance,
    IndexTooSmall,
    MissingFValue,
    NonPositiveC,
    NoThresholdInRange,
    PlrsError,
    WindowTooSmall,
)
from .rationals import decimal_str, format_fraction, round_to_bits
from .recurrence import RecurrenceSpec, SequenceTable, block_catalog

__all__ = [
    "DEFAULT_PRECISION_BITS",
    "GrowthEstimate",
    "ConstantChoice",
    "PerIndexVerdict",
    "GaussianRow",
    "TheoremReport",
    "estimate_growth",
    "y_statistics",
    "find_threshold_N",
    "compute_c",
    "verify_variance_bound",
    "gaussian_diagnostics",
    "gaussian_trend_ok",
    "first_moment_identity",
    "second_moment_identity",
]

DEFAULT_PRECISION_BITS = 128


@dataclass(frozen=True)
class GrowthEstimate:
    """Differenced growth constants and the residual table.

    ``a_est`` and ``b_est`` are dyadic rationals carrying
    ``precision_bits`` significant bits; ``f_values[n-1]`` is the exact
    residual ``E[K_n] - a_est*n - b_est``.  ``convergence_gap`` is the
    change between the last two slope differences, the natural scale for
    how far ``a_est`` may sit from the true slope.
    """

    spec: RecurrenceSpec
    n_max: int
    precision_bits: int
    a_est: Fraction
    b_est: Fraction
    f_values: tuple[Fraction, ...]
    window: tuple[int, int]
    convergence_gap: Fraction

    def f(self, n: int) -> Fraction:
        """Residual at index ``n``; raises :class:`MissingFValue` outside the table."""
        if not 1 <= n <= self.n_max:
            raise MissingFValue(f"f({n}) not tabulated (window is 1..{self.n_max})")
        return self.f_values[n - 1]


def estimate_growth(
    spec: RecurrenceSpec,
    n_max: int,
    *,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    engine: SummandTable | None = None,
) -> GrowthEstimate:
    """Estimate the slope and intercept of the mean summand count.

    The slope is the last first difference of the exact means,
    ``E[K_{n_max}] - E[K_{n_max - 1}]``; the intercept averages
    ``E[K_n] - a*n`` over the top quarter of the window, as
    ``(sum of the means - a * sum of the n) / width``.  The means have
    pairwise different denominators, so they are added in a balanced
    pairwise tree, which keeps the operands of every addition of similar
    size.  Both estimates are rounded to ``precision_bits`` bits, after
    which the residual table is exact.
    """
    L = spec.length
    if n_max < 4 * L + 8:
        raise WindowTooSmall(f"need n_max >= 4L + 8 = {4 * L + 8}, got {n_max}")
    engine = engine if engine is not None else SummandTable(spec)
    means = [engine.mean(n) for n in range(1, n_max + 1)]

    a_exact = means[-1] - means[-2]
    prev_diff = means[-2] - means[-3]
    gap = abs(a_exact - prev_diff)
    a_est = round_to_bits(a_exact, precision_bits)

    width = max(2, n_max // 4)
    window = (n_max - width + 1, n_max)
    index_sum = (window[0] + window[1]) * width // 2
    b_exact = (_pairwise_sum(means[window[0] - 1 :]) - a_est * index_sum) / width
    b_est = round_to_bits(b_exact, precision_bits)

    f_values = tuple(
        means[n - 1] - a_est * n - b_est for n in range(1, n_max + 1)
    )
    return GrowthEstimate(
        spec, n_max, precision_bits, a_est, b_est, f_values, window, gap
    )


def _pairwise_sum(values: list[Fraction]) -> Fraction:
    """Exact sum of a non-empty list, added in a balanced binary tree."""
    while len(values) > 1:
        paired = [a + b for a, b in zip(values[::2], values[1::2])]
        if len(values) % 2:
            paired.append(values[-1])
        values = paired
    return values[0]


def y_statistics(
    spec: RecurrenceSpec,
    n: int,
    growth: GrowthEstimate,
    *,
    table: SequenceTable | None = None,
) -> tuple[Fraction, Fraction]:
    """Exact mean and variance of the centered block statistic at index n.

    The statistic weighs each second-to-last block size t, of length
    ``l = len(t)``, by its exact probability ``T_r / T_n`` (``r = n - l``,
    ``T_m = H_{m+1} - H_m``) and evaluates ``t + f(r) - a*l``.  Its mean
    must equal ``f(n)`` identically (that is the removal identity in
    disguise); a mismatch means the distribution engine is broken, so it
    raises rather than returning.

    Everything stays an integer until the variance.  With ``a = alpha/D``
    and ``b = beta/D`` over a power of two D, ``F_m = D * T_m * f(m)`` is an
    integer, and size t contributes ``N_t / (D * T_r)`` with the integer
    ``N_t = T_r * (D*t - alpha*l) + F_r``.  Then

        mean check:  sum_t N_t == F_n
        Var[Y_n] = (sum_l G_l / T_r - F_n^2 / T_n) / (D^2 * T_n),

    where ``G_l`` sums ``N_t^2`` over the sizes of length l.  Per length,
    both sums follow from the size count and the sums of t and t^2 of that
    length, and the variance is reduced once, as one fraction.
    """
    L = spec.length
    if n <= 2 * L:
        raise IndexTooSmall(f"need n > 2L = {2 * L}, got {n}")
    table = table if table is not None else SequenceTable(spec)
    a, b = growth.a_est, growth.b_est
    D = math.lcm(a.denominator, b.denominator)  # a power of two
    alpha = a.numerator * (D // a.denominator)

    def weight(m: int) -> int:
        return table.term(m + 1) - table.term(m)

    def scaled_f(m: int, T: int) -> int | Fraction:
        f = growth.f(m)
        F, rem = divmod(D * T * f.numerator, f.denominator)
        return Fraction(D * T * f.numerator, f.denominator) if rem else F

    Tn = weight(n)
    Fn = scaled_f(n, Tn)
    mean_sum = 0
    parts = []  # (G_l, T_r) per block length
    for ell, (k, s1, s2) in _size_sums_by_length(spec):
        Tr = weight(n - ell)
        step = D * Tr  # N_t = step * t + base
        base = scaled_f(n - ell, Tr) - alpha * ell * Tr
        mean_sum += step * s1 + k * base
        parts.append((step * (step * s2 + 2 * base * s1) + k * base * base, Tr))
    if mean_sum != Fn:
        raise PlrsError(
            f"mean of the centered block statistic at n={n} is not f(n); "
            "the distribution engine and the residual table disagree"
        )
    den = Tn * math.prod(Tr for _, Tr in parts)
    num = sum(G * (den // Tr) for G, Tr in parts) - Fn * Fn * (den // Tn)
    return growth.f(n), Fraction(num, D * D * Tn * den)


def _size_sums_by_length(
    spec: RecurrenceSpec,
) -> tuple[tuple[int, tuple[int, int, int]], ...]:
    """Per type-2 block length l: the count of sizes of length l and the sums
    of t and t^2 over them, shortest length first."""
    sums: dict[int, tuple[int, int, int]] = {}
    for t, ell in enumerate(block_catalog(spec).length_table):
        k, s1, s2 = sums.get(ell, (0, 0, 0))
        sums[ell] = (k + 1, s1 + t, s2 + t * t)
    return tuple(sorted(sums.items()))


def _y_variance_sweep(
    spec: RecurrenceSpec,
    growth: GrowthEstimate,
    n_max: int,
    table: SequenceTable | None,
) -> dict[int, Fraction]:
    table = table if table is not None else SequenceTable(spec)
    return {
        n: y_statistics(spec, n, growth, table=table)[1]
        for n in range(2 * spec.length + 1, n_max + 1)
    }


def _pick_threshold(
    variances: dict[int, Fraction], bound: Fraction, n_max: int, L: int
) -> int:
    failures = [n for n, v in variances.items() if v <= bound]
    if not failures:
        return 2 * L + 1
    if failures[-1] == n_max:
        raise NoThresholdInRange(
            f"Var[Y] <= a^2/(2S) still at n_max={n_max}; nothing verified beyond it"
        )
    return failures[-1]


def find_threshold_N(
    spec: RecurrenceSpec,
    growth: GrowthEstimate,
    n_max: int,
    *,
    table: SequenceTable | None = None,
) -> int:
    """Smallest N > 2L with ``Var[Y_n] > a^2/(2S)`` for all n in (N, n_max].

    Returns ``2L + 1`` when the bound already holds on the whole sweep.
    Raises :class:`NoThresholdInRange` when the bound fails at ``n_max``
    itself, since then no threshold inside the window has a verified tail.
    """
    bound = growth.a_est**2 / (2 * spec.size)
    variances = _y_variance_sweep(spec, growth, n_max, table)
    return _pick_threshold(variances, bound, n_max, spec.length)


@dataclass(frozen=True)
class ConstantChoice:
    """The variance-growth constant with the provenance of the minimum."""

    value: Fraction
    source: str
    candidates: tuple[tuple[str, Fraction], ...]


def compute_c(
    spec: RecurrenceSpec,
    growth: GrowthEstimate,
    N: int,
    *,
    engine: SummandTable | None = None,
) -> ConstantChoice:
    """Take the minimum over the base-case ratios and the slope term.

    Candidates are ``Var[K_n]/n`` for ``L < n <= N`` plus
    ``a^2/(2*S*L)``.  Every base-case variance is positive (two integers
    with different summand counts always share the interval once n > L),
    so the minimum is positive; anything else raises
    :class:`NonPositiveC`.
    """
    L = spec.length
    if N <= L:
        raise ValueError(f"threshold N={N} leaves no base cases (need N > L={L})")
    engine = engine if engine is not None else SummandTable(spec)
    candidates: list[tuple[str, Fraction]] = []
    for n in range(L + 1, N + 1):
        var = engine.stats(n).variance
        if var <= 0:
            raise NonPositiveC(f"variance vanished at n={n}; engine bug")
        candidates.append((f"var({n})/{n}", var / n))
    candidates.append(
        ("a_est^2/(2*S*L)", growth.a_est**2 / (2 * spec.size * L))
    )
    source, value = min(candidates, key=lambda item: item[1])
    if value <= 0:
        raise NonPositiveC("minimum candidate is not positive; engine bug")
    return ConstantChoice(value, source, tuple(candidates))


@dataclass(frozen=True)
class PerIndexVerdict:
    """One row of the variance-bound sweep."""

    n: int
    mean: Fraction
    variance: Fraction
    bound: Fraction  # c * n
    margin: Fraction  # variance - c * n
    passed: bool


@dataclass(frozen=True)
class GaussianRow:
    """Shape diagnostics of the summand count at one index.

    ``skewness`` and ``excess_kurtosis`` are float views; the exact fields
    support zero-tolerance trend comparisons (skewness enters squared
    because its absolute value needs no square root that way).
    """

    n: int
    skewness: float
    excess_kurtosis: float
    skewness_squared: Fraction
    excess_kurtosis_exact: Fraction


def gaussian_diagnostics(
    spec: RecurrenceSpec,
    n_list,
    *,
    engine: SummandTable | None = None,
) -> tuple[GaussianRow, ...]:
    """Exact skewness and excess kurtosis at the given indices.

    Both shrink toward 0 as n grows when the distribution approaches a
    Gaussian; the caller compares rows across n.  Raises
    :class:`DegenerateVariance` when some index has a one-point
    distribution (possible only for n <= L).
    """
    ns = list(n_list)
    if not ns:
        return ()
    engine = engine if engine is not None else SummandTable(spec)
    engine.extend(max(ns) - 1)

    rows = []
    for n in ns:
        s = engine.stats(n)
        if s.variance == 0:
            raise DegenerateVariance(f"variance is zero at n={n}")
        skew_sq = s.central3**2 / s.variance**3
        skew = math.copysign(math.sqrt(float(skew_sq)), float(s.central3))
        exkurt = s.central4 / s.variance**2 - 3
        rows.append(GaussianRow(n, skew, float(exkurt), skew_sq, exkurt))
    return tuple(rows)


def gaussian_trend_ok(rows) -> bool:
    """Both shape magnitudes strictly smaller at the largest index.

    Compares the first row against the last (exact rationals, zero
    tolerance).  Identically-symmetric distributions have zero skewness at
    every index, so the strict comparison is falsified there even though
    the shape is already Gaussian-like; acceptance criterion 10 is the
    caller that treats 0 == 0 separately, as exact symmetry.
    """
    rows = list(rows)
    if len(rows) < 2:
        raise ValueError("need at least two rows to compare a trend")
    first, last = rows[0], rows[-1]
    return (
        last.skewness_squared < first.skewness_squared
        and abs(last.excess_kurtosis_exact) < abs(first.excess_kurtosis_exact)
    )


def first_moment_identity(
    spec: RecurrenceSpec,
    n: int,
    *,
    engine: SummandTable | None = None,
    table: SequenceTable | None = None,
) -> tuple[Fraction, Fraction]:
    """Mean at index n versus its reassembly from the shorter spaces.

    Deleting the second-to-last block (size t, length len(t)) maps the
    conditioned space bijectively onto the space at ``n - len(t)`` and
    drops the summand count by t, so the mean satisfies

        E[K_n] = sum_t P(Z_n = t) * (E[K_{n - len(t)}] + t).

    Returns (lhs, rhs) as exact rationals; they must be equal.
    """
    engine = engine if engine is not None else SummandTable(spec)
    zd = z_distribution(spec, n, table=table, cross_check=False)
    rhs = Fraction(0)
    for t, p in enumerate(zd.probs):
        rhs += p * (engine.mean(n - zd.lengths[t]) + t)
    return engine.mean(n), rhs


def second_moment_identity(
    spec: RecurrenceSpec,
    n: int,
    *,
    engine: SummandTable | None = None,
    table: SequenceTable | None = None,
) -> tuple[Fraction, Fraction]:
    """Second raw moment at index n versus its reassembly.

        E[K_n^2] = sum_t P(Z_n = t) * (E[K_{n-len(t)}^2]
                                       + 2 t E[K_{n-len(t)}] + t^2)

    Returns (lhs, rhs) as exact rationals; they must be equal.
    """
    engine = engine if engine is not None else SummandTable(spec)
    zd = z_distribution(spec, n, table=table, cross_check=False)
    rhs = Fraction(0)
    for t, p in enumerate(zd.probs):
        r = n - zd.lengths[t]
        rhs += p * (engine.second_raw_moment(r) + 2 * t * engine.mean(r) + t * t)
    return engine.second_raw_moment(n), rhs


@dataclass(frozen=True)
class TheoremReport:
    """Everything the variance-bound verification produced."""

    spec: RecurrenceSpec
    n_max: int
    size: int
    length: int
    precision_bits: int
    a_est: Fraction
    b_est: Fraction
    convergence_gap: Fraction
    threshold_N: int
    y_bound: Fraction  # a^2 / (2S)
    var_y: dict[int, Fraction]
    c: Fraction
    c_source: str
    c_candidates: tuple[tuple[str, Fraction], ...]
    slope_C_est: Fraction
    per_n: tuple[PerIndexVerdict, ...]
    gaussian: tuple[GaussianRow, ...]

    @property
    def all_pass(self) -> bool:
        return all(row.passed for row in self.per_n)

    @property
    def violations(self) -> tuple[int, ...]:
        return tuple(row.n for row in self.per_n if not row.passed)

    def to_json_dict(self) -> dict:
        return {
            "spec": str(self.spec),
            "n_max": self.n_max,
            "size": self.size,
            "length": self.length,
            "precision_bits": self.precision_bits,
            "a_est": format_fraction(self.a_est),
            "a_est_decimal": decimal_str(self.a_est, 12),
            "b_est": format_fraction(self.b_est),
            "b_est_decimal": decimal_str(self.b_est, 12),
            "convergence_gap": format_fraction(self.convergence_gap),
            "convergence_gap_decimal": decimal_str(self.convergence_gap, 40),
            "threshold_N": self.threshold_N,
            "y_bound": format_fraction(self.y_bound),
            "var_y": {str(n): format_fraction(v) for n, v in sorted(self.var_y.items())},
            "c": format_fraction(self.c),
            "c_decimal": decimal_str(self.c, 12),
            "c_source": self.c_source,
            "c_candidates": [
                {"source": s, "value": format_fraction(v)}
                for s, v in self.c_candidates
            ],
            "slope_C_est": format_fraction(self.slope_C_est),
            "slope_C_est_decimal": decimal_str(self.slope_C_est, 12),
            "all_pass": self.all_pass,
            "per_n": [
                {
                    "n": row.n,
                    "mean": format_fraction(row.mean),
                    "variance": format_fraction(row.variance),
                    "c_times_n": format_fraction(row.bound),
                    "margin": format_fraction(row.margin),
                    "pass": row.passed,
                }
                for row in self.per_n
            ],
            "gaussian": [
                {
                    "n": row.n,
                    "skewness": repr(row.skewness),
                    "excess_kurtosis": repr(row.excess_kurtosis),
                    "skewness_squared": format_fraction(row.skewness_squared),
                    "excess_kurtosis_exact": format_fraction(row.excess_kurtosis_exact),
                }
                for row in self.gaussian
            ],
        }


def verify_variance_bound(
    spec: RecurrenceSpec,
    n_max: int,
    *,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    gaussian_ns=None,
    engine: SummandTable | None = None,
) -> TheoremReport:
    """Run the whole verification chain up to ``n_max``.

    Estimates growth, sweeps the centered block statistic to find the
    threshold N, chooses c, and checks ``Var[K_n] >= c*n`` for every
    ``L < n <= n_max`` with exact rational comparisons.  Also estimates
    the variance slope from the last first difference and requires it not
    to undercut c beyond the differencing noise.

    Returns the full report; raises :class:`BoundViolated` (with the
    report attached as ``exc.report``) if any index fails, which cannot
    happen for a valid spec.
    """
    L = spec.length
    S = spec.size
    engine = engine if engine is not None else SummandTable(spec)
    seq = SequenceTable(spec)
    growth = estimate_growth(spec, n_max, precision_bits=precision_bits, engine=engine)
    var_y = _y_variance_sweep(spec, growth, n_max, seq)
    bound = growth.a_est**2 / (2 * S)
    N = _pick_threshold(var_y, bound, n_max, L)
    if n_max < N + 10:
        raise WindowTooSmall(
            f"n_max={n_max} leaves no room beyond the threshold N={N}; need N+10"
        )
    choice = compute_c(spec, growth, N, engine=engine)
    c = choice.value

    per_n = []
    for n in range(L + 1, n_max + 1):
        s = engine.stats(n)
        cn = c * n
        per_n.append(
            PerIndexVerdict(n, s.mean, s.variance, cn, s.variance - cn, s.variance >= cn)
        )

    last_diff = engine.stats(n_max).variance - engine.stats(n_max - 1).variance
    prev_diff = engine.stats(n_max - 1).variance - engine.stats(n_max - 2).variance
    slope_C_est = round_to_bits(last_diff, precision_bits) if last_diff else Fraction(0)
    slope_tolerance = 10 * abs(last_diff - prev_diff) + Fraction(
        1, 2 ** max(precision_bits - 8, 1)
    )

    if gaussian_ns is None:
        gaussian_ns = sorted(
            {max(L + 1, n_max // 8), max(L + 1, n_max // 4), max(L + 1, n_max // 2), n_max}
        )
    gaussian = gaussian_diagnostics(spec, gaussian_ns, engine=engine)

    report = TheoremReport(
        spec=spec,
        n_max=n_max,
        size=S,
        length=L,
        precision_bits=precision_bits,
        a_est=growth.a_est,
        b_est=growth.b_est,
        convergence_gap=growth.convergence_gap,
        threshold_N=N,
        y_bound=bound,
        var_y=var_y,
        c=c,
        c_source=choice.source,
        c_candidates=choice.candidates,
        slope_C_est=slope_C_est,
        per_n=tuple(per_n),
        gaussian=gaussian,
    )
    if not report.all_pass:
        first_bad = report.violations[0]
        exc = BoundViolated(
            first_bad, f"Var[K_n] < c*n at n={first_bad} (c={format_fraction(c)})"
        )
        exc.report = report
        raise exc
    if slope_C_est < c - slope_tolerance:
        raise PlrsError(
            f"variance slope estimate {float(slope_C_est):.6g} undercuts "
            f"c={float(c):.6g} beyond the differencing noise"
        )
    return report
