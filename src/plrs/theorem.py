"""Growth constants and the linear variance lower bound.

The mean summand count grows like ``a*n + b`` up to a vanishing residual
``f(n)``.  This module estimates ``a`` and ``b`` as the slope and the
intercept of the secant through the last two exact means, and then runs
the chain that yields a positive constant ``c`` with ``Var[K_n] >= c*n``:

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

The checks of the verify chain run on integers.  Each call makes one pass
over the moment rows up to n_max and builds, once per index m, the entry
``(T_m, A_1(m), g_m, p_m, q_m)``: ``g_m = gcd(A_1(m), T_m)`` and
``p_m/q_m = V_m/T_m`` in lowest terms, with ``V_m = T_m A_2(m) - A_1(m)^2``,
so that ``Var[K_m] = p_m/(q_m T_m)``.  Every common factor of V_m and T_m
comes from g_m, so no gcd runs on V_m.  The Y sweep and the per-index rows
read only that list.  At each index of the sweep one private helper, which
:func:`y_statistics` shares, checks the first removal identity and returns
Var[Y_n] as an integer pair in lowest terms, built from the p/q of the
shorter indices with gcds on numbers of T's size only; the pair is compared
with ``a^2/(2S)`` by cross-multiplication.  Each row reduces its mean by g_n
and its variance by ``gcd(p_n, T_n/q_n)``, and compares ``Var[K_n] >= c*n``
by cross-multiplication too.

Deleting the second-to-last block Z_n (size t, length len(t)) maps the
outcomes at index n that carry it onto the space at ``n - len(t)`` and
lowers their summand counts by t.  One engine lists those shorter spaces,
:meth:`~plrs.ensemble.SummandTable.removal_rows`, which reads no moment
row: the Y sweep pairs it with the one-pass list, and :func:`y_statistics`
and both identities below with the raw sums of each shorter index.  This
gives two exact identities that avoid a and b and are the strongest
regression checks in the package:

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
from .rationals import _minus, _over, format_fraction, round_to_bits
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
    ``precision_bits`` significant bits: the slope and the intercept of
    the secant through the last two exact means, those at ``n_max - 1``
    and ``n_max``.  ``convergence_gap`` is the change between the last two
    slope differences (the third mean read is the one at ``n_max - 2``),
    the natural scale for how far ``a_est`` may sit from the true slope.
    """

    spec: RecurrenceSpec
    precision_bits: int
    a_est: Fraction
    b_est: Fraction
    n_max: int
    convergence_gap: Fraction


def estimate_growth(
    engine: SummandTable, n_max: int, *, precision_bits: int = DEFAULT_PRECISION_BITS
) -> GrowthEstimate:
    """Estimate the slope and intercept of the mean summand count.

    Both come from the secant through the last two exact means: the slope
    is ``E[K_{n_max}] - E[K_{n_max - 1}]`` and the intercept is
    ``n_max E[K_{n_max - 1}] - (n_max - 1) E[K_{n_max}]``, the value at 0
    of the same line, taken with the unrounded slope.  The residual of the
    mean decays like theta^n for some theta < 1, so the slope sits within
    O(theta^n) of a and the intercept within O(n theta^n) of b.  Each is
    rounded once to ``precision_bits`` bits, after which every residual is
    exact.  ``n_max`` must be at least 2L + 11, the least that ``verify``
    can accept: its threshold N exceeds 2L and it needs ten indices past N.
    """
    L = engine.spec.length
    if n_max < 2 * L + 11:
        raise WindowTooSmall(f"need n_max >= 2L + 11 = {2 * L + 11}, got {n_max}")

    m2, m1, m0 = (engine.mean(n) for n in range(n_max - 2, n_max + 1))
    a_exact = m0 - m1
    gap = abs(a_exact - (m1 - m2))
    a_est = round_to_bits(a_exact, precision_bits)
    b_est = round_to_bits(n_max * m1 - (n_max - 1) * m0, precision_bits)
    return GrowthEstimate(engine.spec, precision_bits, a_est, b_est, n_max, gap)


def _require_same_spec(engine: SummandTable, growth: GrowthEstimate) -> None:
    if growth.spec != engine.spec:
        raise SpecMismatch(
            f"growth estimate of {growth.spec} read against a table of {engine.spec}"
        )


def _with_v(T: int, A1: int, A2: int) -> tuple[int, int, int, int, int]:
    """``(T, A_1, g, p, q)`` with ``g = gcd(A_1, T)`` and ``p/q = V/T`` in
    lowest terms, where ``V = T A_2 - A_1^2``, so that Var[K] = p/(q T).

    The common factor costs no gcd of V: ``gcd(V, T) = gcd(A_1^2, T) =
    gcd(g^2, T) = g gcd(g, T/g)``, which is 1 when g is, and then p and q
    are V and T themselves.
    """
    g, V = math.gcd(A1, T), T * A2 - A1 * A1
    if g == 1:
        return T, A1, g, V, T
    h = g * math.gcd(g, T // g)
    return T, A1, g, V // h, T // h


def _index_sums(engine: SummandTable, n_max: int) -> list:
    """The :func:`_with_v` entry ``(T_m, A_1(m), g_m, p_m, q_m)`` at list
    position m for ``L < m <= n_max``.

    One pass over the moment rows; the positions up to L hold None, as
    neither the Y sweep (which reads ``r = n - l >= L + 1``) nor the rows
    read them.
    """
    L = engine.spec.length
    return [None] * (L + 1) + [
        _with_v(*engine._low_sums(m)) for m in range(L + 1, n_max + 1)
    ]


def _y_variance(n: int, here: tuple, removed) -> tuple[int, int]:
    """Var[Y_n] as an integer pair ``(num, den)`` in lowest terms.

    ``here`` is the :func:`_with_v` entry at n; ``removed`` yields, per
    block length l, ``(k, s1, entry)`` with the entry at ``r = n - l`` and
    k sizes of length l summing to s1.  One pass over it checks the first
    removal identity, ``sum_l k T_r = T_n`` and
    ``sum_l (s1 T_r + k A_1(r)) = A_1(n)``, and raises on a mismatch.  The
    same pass builds the law of total variance from each ``V/T = p/q``:

        Var[K_n] - sum_t P(Z_n = t) * Var[K_{n-len(t)}]
        = (p_n/q_n - sum_l k p_r/q_r) / T_n,

    as ``P(Z_n = t) = T_r/T_n`` and ``Var[K_r] = p_r/(q_r T_r)``.  Each
    ``k p_r/q_r`` enters in lowest terms, k and q_r divided by their gcd,
    and the difference x stays in lowest terms after each subtraction,
    whose gcds run on denominators of T's size; x/T_n then reduces by
    ``gcd(num(x), T_n)`` alone, as num(x) and den(x) are coprime.
    """
    Tn, A1n, _, a, b = here
    c0 = c1 = 0
    for k, s1, (Tr, A1, _, p, q) in removed:
        c0 += k * Tr
        c1 += s1 * Tr + k * A1
        gk = math.gcd(k, q)
        a, b = _minus(a, b, p * (k // gk), q // gk)
    if (c0, c1) != (Tn, A1n):
        raise PlrsError(
            f"removal rows at n={n} do not reassemble T_n and A_1(n), so the "
            "mean of the centered block statistic is not f(n)"
        )
    g = math.gcd(a, Tn)
    return a // g, b * (Tn // g)


def y_statistics(
    engine: SummandTable, n: int, growth: GrowthEstimate
) -> tuple[Fraction, Fraction]:
    """Exact mean and variance of the centered block statistic at index n.

    The statistic weighs each second-to-last block size t, of length
    ``l = len(t)``, by its exact probability ``T_r / T_n`` (``r = n - l``,
    ``T_m = H_{m+1} - H_m``) and evaluates ``t + f(r) - a*l`` with
    ``f(m) = E[K_m] - a*m - b``.  As ``r + l = n``, its mean is ``f(n)``,
    for any a and b, exactly when the first removal identity holds.  The
    integer helper of the Y sweep checks that identity (a failure raises)
    and returns the variance, free of a and b, as an integer pair in
    lowest terms; here it pairs :meth:`SummandTable.removal_rows` at n with
    the raw sums of each shorter index, read one index at a time apart from
    the sweep's one-pass list.  This function reads the mean from the
    moment row at n as ``E[K_n] - a*n - b`` and returns the variance as
    that pair's Fraction.
    """
    _require_same_spec(engine, growth)
    rows = engine.removal_rows(n)
    removed = ((k, s1, _with_v(*engine._low_sums(r))) for k, s1, _, r in rows)
    num, den = _y_variance(n, _with_v(*engine._low_sums(n)), removed)
    return engine.mean(n) - growth.a_est * n - growth.b_est, _over(num, den, 1)


def _threshold(
    engine: SummandTable, growth: GrowthEstimate, sums: list
) -> tuple[dict[int, tuple[int, int]], Fraction, int]:
    """The Y sweep over ``2L < n <= n_max``, the bound a^2/(2S) and N.

    ``sums`` is the :func:`_index_sums` list up to n_max, the only moment
    data the sweep reads; each index pairs it with its
    :meth:`SummandTable.removal_rows`.  Each Var[Y_n] is an integer pair
    ``(num, den)`` in lowest terms.  With ``a_est = alpha/D``, index n fails
    when ``num 2S D^2 <= alpha^2 den``.
    """
    _require_same_spec(engine, growth)
    L, S, n_max = engine.spec.length, engine.spec.size, len(sums) - 1
    alpha, D = growth.a_est.numerator, growth.a_est.denominator
    scale, top = 2 * S * D * D, alpha * alpha
    pairs = {
        n: _y_variance(
            n, sums[n], ((k, s1, sums[r]) for k, s1, _, r in engine.removal_rows(n))
        )
        for n in range(2 * L + 1, n_max + 1)
    }
    failures = [n for n, (num, den) in pairs.items() if num * scale <= top * den]
    if failures and failures[-1] == n_max:
        raise NoThresholdInRange(
            f"Var[Y] <= a^2/(2S) still at n_max={n_max}; nothing verified beyond it"
        )
    bound = growth.a_est**2 / (2 * S)
    return pairs, bound, failures[-1] if failures else 2 * L + 1


def find_threshold_N(engine: SummandTable, growth: GrowthEstimate, n_max: int) -> int:
    """Smallest N > 2L with ``Var[Y_n] > a^2/(2S)`` for all n in (N, n_max].

    Returns ``2L + 1`` when the bound already holds on the whole sweep.
    Raises :class:`NoThresholdInRange` when the bound fails at ``n_max``
    itself, since then no threshold inside the window has a verified tail.
    """
    return _threshold(engine, growth, _index_sums(engine, n_max))[2]


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
    for k, s1, s2, r in engine.removal_rows(n):
        Tr, A1, A2 = engine._low_sums(r)
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

    Each result of the chain is held once, where it was computed, in eight
    fields: the spec, ``precision_bits``, ``a_est``, ``b_est``,
    ``convergence_gap`` and ``n_max`` on ``growth``;
    the constant c, the candidate it came from and every candidate on
    ``choice`` (``value``, ``source``, ``candidates``).  ``threshold_N``,
    ``y_bound`` (a^2/(2S)), ``y_pairs`` (Var[Y_n] over the sweep as
    integer pairs in lowest terms), ``slope_C_est``, the per-index rows and
    the Gaussian rows are the report's own.  Var[Y_n] is held only as those
    pairs; a reader takes one as ``Fraction(num, den)``.
    """

    growth: GrowthEstimate
    threshold_N: int
    y_bound: Fraction  # a^2 / (2S)
    y_pairs: dict[int, tuple[int, int]]
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

    Estimates growth, builds each index's :func:`_with_v` entry once,
    sweeps the centered block statistic over that list to find the
    threshold N, chooses c, and checks ``Var[K_n] >= c*n`` for every
    ``L < n <= n_max`` by integer cross-multiplication on the same list.
    Also estimates the variance slope from the last first difference and
    requires it not to undercut c beyond the differencing noise.

    Returns the full report; raises :class:`BoundViolated` (with the
    report attached as ``exc.report``) if any index fails, which cannot
    happen for a valid spec.
    """
    L = engine.spec.length
    growth = estimate_growth(engine, n_max, precision_bits=precision_bits)
    sums = _index_sums(engine, n_max)
    y_pairs, bound, N = _threshold(engine, growth, sums)
    if n_max < N + 10:
        raise WindowTooSmall(
            f"n_max={n_max} leaves no room beyond the threshold N={N}; need N+10"
        )
    choice = compute_c(engine, growth, N)
    c = choice.value

    # Each row from the list: Var[K_n] = p/(q T) reduces by gcd(p, T/q), as
    # p and q are coprime, and is checked by cross-multiplication against
    # c*n, which reduces by gcd(n, c_q), as c_p and c_q are coprime.  The
    # mean is reduced by g = gcd(A_1, T).
    cp, cq = c.numerator, c.denominator
    per_n = []
    for n in range(L + 1, n_max + 1):
        T, A1, g, p, q = sums[n]
        variance = _over(p, q * T, math.gcd(p, T // q))
        vp, vq = variance.numerator, variance.denominator
        cn = _over(cp * n, cq, math.gcd(n, cq))
        per_n.append(
            PerIndexVerdict(
                n, _over(A1, T, g), variance, cn, variance - cn, vp * cq >= cp * n * vq
            )
        )

    v2, v1, v0 = (row.variance for row in per_n[-3:])
    last_diff, prev_diff = v0 - v1, v1 - v2
    slope_C_est = round_to_bits(last_diff, precision_bits)
    slope_tolerance = 10 * abs(last_diff - prev_diff) + Fraction(
        1, 2 ** max(precision_bits - 8, 1)
    )

    gaussian_ns = sorted(
        {max(L + 1, n_max // 8), max(L + 1, n_max // 4), max(L + 1, n_max // 2), n_max}
    )
    gaussian = gaussian_diagnostics(engine, gaussian_ns)

    report = TheoremReport(
        growth=growth,
        threshold_N=N,
        y_bound=bound,
        y_pairs=y_pairs,
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
