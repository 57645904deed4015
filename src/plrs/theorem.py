"""Growth constants and the linear variance lower bound.

The mean summand count grows like ``a*n + b`` up to a vanishing residual
``f(n)``.  This module estimates ``a`` and ``b`` by differencing the exact
means, and then runs the chain that yields a positive constant ``c`` with
``Var[K_n] >= c*n``:

1. the centered statistic of the second-to-last block,
   ``Y_n = Z_n + f(n - L_n) - a*L_n``, has mean exactly ``f(n)`` and
   eventually ``Var[Y_n] > a^2 / (2S)``;
2. past the threshold N where that bound holds, the constant
   ``c = min(Var[K_{L+1}]/(L+1), ..., Var[K_N]/N, a^2/(2SL))``
   is positive, and ``Var[K_n] >= c*n`` follows for every n above L.

What is checked is finite: ``Var[K_n] >= c*n`` is compared exactly for
``L < n <= n_max`` only.  The step to every larger n rests on the Y bound
of step 1, and that bound is observed only up to ``n_max``, not proved.

Everything downstream of the estimation step is exact: ``a`` and ``b`` are
rounded once to dyadic rationals with a configurable number of bits
(default 128), after which residuals, the Y statistics, c and every
comparison are computed in exact rational arithmetic.  The only
approximation error is the distance between the differenced estimate and
the true limit slope, reported as ``convergence_gap``.

Deleting the second-to-last block Z_n (size t, length len(t)) maps the
outcomes at index n that carry it onto the space at ``n - len(t)`` and
lowers their summand counts by t.  This gives two exact identities that
avoid a and b and are the strongest regression checks in the package:

    E[K_n]   = sum_t P(Z_n = t) * (E[K_{n-len(t)}] + t)
    E[K_n^2] = sum_t P(Z_n = t) * (E[K_{n-len(t)}^2]
                                   + 2 t E[K_{n-len(t)}] + t^2)

and, as ``Y_n = E[K_n | Z_n] - a*n - b``, the law of total variance

    Var[Y_n] = Var[K_n] - sum_t P(Z_n = t) * Var[K_{n-len(t)}].

Every function here that reads moment rows takes the
:class:`~plrs.ensemble.SummandTable` as its first argument and reads the
spec from ``engine.spec``; the grammar walkers of :mod:`plrs.ensemble`
(``enumerate_omega``, ``conditional_tally``, ``z_distribution``) take the
spec.  A :class:`GrowthEstimate` records the spec it was estimated for,
and the readers that take one raise :class:`SpecMismatch` when it names a
different spec than the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .ensemble import SummandTable
from .errors import (
    BoundViolated,
    DegenerateVariance,
    NonPositiveC,
    NoThresholdInRange,
    PlrsError,
    SpecMismatch,
    WindowTooSmall,
)
from .rationals import format_fraction, round_to_bits
from .recurrence import RecurrenceSpec

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
    "first_moment_identity",
    "second_moment_identity",
]

DEFAULT_PRECISION_BITS = 128


@dataclass(frozen=True)
class GrowthEstimate:
    """Differenced growth constants of the mean summand count.

    ``a_est`` and ``b_est`` are dyadic rationals carrying
    ``precision_bits`` significant bits; ``b_est`` averages over ``window``,
    which ends at the last index the estimate read.  ``convergence_gap`` is the
    change between the last two slope differences, the natural scale for
    how far ``a_est`` may sit from the true slope.
    """

    spec: RecurrenceSpec
    precision_bits: int
    a_est: Fraction
    b_est: Fraction
    window: tuple[int, int]
    convergence_gap: Fraction


def estimate_growth(
    engine: SummandTable, n_max: int, *, precision_bits: int = DEFAULT_PRECISION_BITS
) -> GrowthEstimate:
    """Estimate the slope and intercept of the mean summand count.

    The slope is the last first difference of the exact means,
    ``E[K_{n_max}] - E[K_{n_max - 1}]``; the intercept averages
    ``E[K_n] - a*n`` over the top quarter of the window, as
    ``(sum of the means - a * sum of the n) / width``.  The means have
    pairwise different denominators, so they are added in a balanced
    pairwise tree, which keeps the operands of every addition of similar
    size.  Both estimates are rounded to ``precision_bits`` bits, after
    which every residual is exact.
    """
    L = engine.spec.length
    if n_max < 4 * L + 8:
        raise WindowTooSmall(f"need n_max >= 4L + 8 = {4 * L + 8}, got {n_max}")

    a_exact = engine.mean(n_max) - engine.mean(n_max - 1)
    prev_diff = engine.mean(n_max - 1) - engine.mean(n_max - 2)
    gap = abs(a_exact - prev_diff)
    a_est = round_to_bits(a_exact, precision_bits)

    width = max(2, n_max // 4)
    window = (n_max - width + 1, n_max)
    index_sum = (window[0] + window[1]) * width // 2
    means = [engine.mean(n) for n in range(window[0], n_max + 1)]
    b_exact = (_pairwise_sum(means) - a_est * index_sum) / width
    b_est = round_to_bits(b_exact, precision_bits)
    return GrowthEstimate(engine.spec, precision_bits, a_est, b_est, window, gap)


def _pairwise_sum(values: list[Fraction]) -> Fraction:
    """Exact sum of a non-empty list, added in a balanced binary tree."""
    while len(values) > 1:
        paired = [a + b for a, b in zip(values[::2], values[1::2])]
        if len(values) % 2:
            paired.append(values[-1])
        values = paired
    return values[0]


def _require_same_spec(engine: SummandTable, growth: GrowthEstimate) -> None:
    if growth.spec != engine.spec:
        raise SpecMismatch(
            f"growth estimate of {growth.spec} read against a table of {engine.spec}"
        )


def y_statistics(
    engine: SummandTable, n: int, growth: GrowthEstimate
) -> tuple[Fraction, Fraction]:
    """Exact mean and variance of the centered block statistic at index n.

    The statistic weighs each second-to-last block size t, of length
    ``l = len(t)``, by its exact probability ``T_r / T_n`` (``r = n - l``,
    ``T_m = H_{m+1} - H_m``) and evaluates ``t + f(r) - a*l`` with
    ``f(m) = E[K_m] - a*m - b``.  As ``r + l = n``, its mean is ``f(n)``,
    for any a and b, exactly when the first removal identity holds: over
    the rows of :meth:`SummandTable.removal_rows`, ``sum_l k T_r = T_n``
    and ``sum_l (s1 T_r + k A_1(r)) = A_1(n)``.  Those integer checks run
    first, and a failure raises; the mean is then read from the moment row
    at n as ``E[K_n] - a*n - b``.

    The variance is the law of total variance, free of a and b; with
    ``P = prod_l T_r`` it is one fraction:

        Var[K_n] - sum_t P(Z_n = t) * Var[K_{n-len(t)}]
        = ((T_n A_2(n) - A_1(n)^2) P
           - T_n sum_l k (T_r A_2(r) - A_1(r)^2) P/T_r) / (T_n^2 P).
    """
    _require_same_spec(engine, growth)
    Tn, A1n, A2n = engine.stats(n).raw_sums[:3]
    if _removal_sums(engine, n)[:2] != (Tn, A1n):
        raise PlrsError(
            f"removal rows at n={n} do not reassemble T_n and A_1(n), so the "
            "mean of the centered block statistic is not f(n)"
        )
    rows = engine.removal_rows(n)
    P = math.prod(Tr for _, _, (Tr, _, _) in rows)
    within = sum(
        k * (Tr * A2 - A1 * A1) * (P // Tr) for _, (k, _, _), (Tr, A1, A2) in rows
    )
    num = (Tn * A2n - A1n * A1n) * P - Tn * within
    return engine.mean(n) - growth.a_est * n - growth.b_est, Fraction(num, Tn * Tn * P)


def _threshold(
    engine: SummandTable, growth: GrowthEstimate, n_max: int
) -> tuple[dict[int, Fraction], Fraction, int]:
    """The Y sweep over ``2L < n <= n_max``, the bound a^2/(2S) and N."""
    _require_same_spec(engine, growth)
    L = engine.spec.length
    bound = growth.a_est**2 / (2 * engine.spec.size)
    variances = {
        n: y_statistics(engine, n, growth)[1] for n in range(2 * L + 1, n_max + 1)
    }
    failures = [n for n, v in variances.items() if v <= bound]
    if failures and failures[-1] == n_max:
        raise NoThresholdInRange(
            f"Var[Y] <= a^2/(2S) still at n_max={n_max}; nothing verified beyond it"
        )
    return variances, bound, failures[-1] if failures else 2 * L + 1


def find_threshold_N(engine: SummandTable, growth: GrowthEstimate, n_max: int) -> int:
    """Smallest N > 2L with ``Var[Y_n] > a^2/(2S)`` for all n in (N, n_max].

    Returns ``2L + 1`` when the bound already holds on the whole sweep.
    Raises :class:`NoThresholdInRange` when the bound fails at ``n_max``
    itself, since then no threshold inside the window has a verified tail.
    """
    return _threshold(engine, growth, n_max)[2]


@dataclass(frozen=True)
class ConstantChoice:
    """The variance-growth constant with the provenance of the minimum."""

    value: Fraction
    source: str
    candidates: tuple[tuple[str, Fraction], ...]


def compute_c(engine: SummandTable, growth: GrowthEstimate, N: int) -> ConstantChoice:
    """Take the minimum over the base-case ratios and the slope term.

    Candidates are ``Var[K_n]/n`` for ``L < n <= N`` plus
    ``a^2/(2*S*L)``.  Every base-case variance is positive (two integers
    with different summand counts always share the interval once n > L),
    so the minimum is positive; anything else raises
    :class:`NonPositiveC`.
    """
    _require_same_spec(engine, growth)
    L = engine.spec.length
    if N <= L:
        raise ValueError(f"threshold N={N} leaves no base cases (need N > L={L})")
    candidates: list[tuple[str, Fraction]] = []
    for n in range(L + 1, N + 1):
        var = engine.stats(n).variance
        if var <= 0:
            raise NonPositiveC(f"variance vanished at n={n}; engine bug")
        candidates.append((f"var({n})/{n}", var / n))
    candidates.append(
        ("a_est^2/(2*S*L)", growth.a_est**2 / (2 * engine.spec.size * L))
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


def gaussian_diagnostics(engine: SummandTable, n_list) -> tuple[GaussianRow, ...]:
    """Exact skewness and excess kurtosis at the given indices.

    Both shrink toward 0 as n grows when the distribution approaches a
    Gaussian; the caller compares rows across n.  Raises
    :class:`DegenerateVariance` when some index has a one-point
    distribution (possible only for n <= L).
    """
    rows = []
    for n in n_list:
        s = engine.stats(n)
        if s.variance == 0:
            raise DegenerateVariance(f"variance is zero at n={n}")
        skew_sq = s.central3**2 / s.variance**3
        skew = math.copysign(math.sqrt(float(skew_sq)), float(s.central3))
        exkurt = s.central4 / s.variance**2 - 3
        rows.append(GaussianRow(n, skew, float(exkurt), skew_sq, exkurt))
    return tuple(rows)


def _removal_sums(engine: SummandTable, n: int) -> tuple[int, int, int]:
    """``C_j``, the sum of ``K^j`` over the space at n, from the removal rows:
    ``C_0 = sum_l k T_r``, ``C_1 = sum_l (s1 T_r + k A_1(r))`` and
    ``C_2 = sum_l (s2 T_r + 2 s1 A_1(r) + k A_2(r))``."""
    c0 = c1 = c2 = 0
    for _, (k, s1, s2), (Tr, A1, A2) in engine.removal_rows(n):
        c0 += k * Tr
        c1 += s1 * Tr + k * A1
        c2 += s2 * Tr + 2 * s1 * A1 + k * A2
    return c0, c1, c2


def first_moment_identity(engine: SummandTable, n: int) -> tuple[Fraction, Fraction]:
    """Mean at index n versus its reassembly from the shorter spaces.

    Deleting the second-to-last block (size t, length len(t)) maps the
    conditioned space bijectively onto the space at ``n - len(t)`` and
    drops the summand count by t, so the mean satisfies

        E[K_n] = sum_t P(Z_n = t) * (E[K_{n - len(t)}] + t) = C_1 / C_0.

    Returns (lhs, rhs) as exact rationals; they must be equal.
    """
    c0, c1, _ = _removal_sums(engine, n)
    return engine.mean(n), Fraction(c1, c0)


def second_moment_identity(engine: SummandTable, n: int) -> tuple[Fraction, Fraction]:
    """Second raw moment at index n versus its reassembly.

        E[K_n^2] = sum_t P(Z_n = t) * (E[K_{n-len(t)}^2]
                                       + 2 t E[K_{n-len(t)}] + t^2)
                 = C_2 / C_0

    Returns (lhs, rhs) as exact rationals; they must be equal.
    """
    c0, _, c2 = _removal_sums(engine, n)
    return engine.second_raw_moment(n), Fraction(c2, c0)


@dataclass(frozen=True)
class TheoremReport:
    """Everything the variance-bound verification produced.

    Each result of the chain is held once, where it was computed: ``size``
    and ``length`` are on ``spec``; ``precision_bits``, ``a_est``,
    ``b_est`` and ``convergence_gap`` on ``growth``; the constant c, the
    candidate it came from and every candidate on ``choice`` (``value``,
    ``source``, ``candidates``).  ``threshold_N``, ``y_bound`` (a^2/(2S)),
    ``var_y`` (Var[Y_n] over the sweep), ``slope_C_est``, the per-index
    rows and the Gaussian rows are the report's own.
    """

    spec: RecurrenceSpec
    n_max: int
    growth: GrowthEstimate
    threshold_N: int
    y_bound: Fraction  # a^2 / (2S)
    var_y: dict[int, Fraction]
    choice: ConstantChoice
    slope_C_est: Fraction
    per_n: tuple[PerIndexVerdict, ...]
    gaussian: tuple[GaussianRow, ...]

    @property
    def all_pass(self) -> bool:
        return all(row.passed for row in self.per_n)

    @property
    def violations(self) -> tuple[int, ...]:
        return tuple(row.n for row in self.per_n if not row.passed)


def verify_variance_bound(
    engine: SummandTable, n_max: int, *, precision_bits: int = DEFAULT_PRECISION_BITS
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
    spec = engine.spec
    L = spec.length
    growth = estimate_growth(engine, n_max, precision_bits=precision_bits)
    var_y, bound, N = _threshold(engine, growth, n_max)
    if n_max < N + 10:
        raise WindowTooSmall(
            f"n_max={n_max} leaves no room beyond the threshold N={N}; need N+10"
        )
    choice = compute_c(engine, growth, N)
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

    gaussian_ns = sorted(
        {max(L + 1, n_max // 8), max(L + 1, n_max // 4), max(L + 1, n_max // 2), n_max}
    )
    gaussian = gaussian_diagnostics(engine, gaussian_ns)

    report = TheoremReport(
        spec=spec,
        n_max=n_max,
        growth=growth,
        threshold_N=N,
        y_bound=bound,
        var_y=var_y,
        choice=choice,
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
