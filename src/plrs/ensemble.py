"""The outcome spaces of fixed-length decompositions, exactly.

For each index n, the outcome space collects the legal decompositions of
the integers in ``[H_n, H_{n+1})``; those are exactly the legal coefficient
strings of length n with a positive leading coefficient, and there are
``H_{n+1} - H_n`` of them.  This module describes that space three ways:

* :func:`enumerate_omega` walks the block grammar directly;
* :func:`enumerate_by_integer_walk` decomposes every integer in the
  interval, stepping from each integer's digits to the next one's by a
  carry and the greedy digit loop (the independent oracle, kept forever in
  the test suite);
* :class:`SummandTable` follows the same grammar without enumerating
  anything: one recurrence over the legal tails of each length (leading
  zeros allowed) serves both views, since the outcomes at n are the tails
  of length n less the tails that start with the size-0 block ``[0]``,
  P_n = Q_n - Q_{n-1}.  Integer raw-moment sums of the tails give the
  exact statistics of every n, and a dynamic program over tail
  polynomials, run from Q_0 on each histogram request and stored nowhere,
  gives the full summand-count distribution.

Counts are exact integers, probabilities and moments exact rationals.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import comb
from operator import sub
from typing import Iterator

from .decomposition import Decomposition, _greedy, decompose
from .errors import (
    CapExceeded,
    EmptyConditionalEvent,
    EmptyDistribution,
    IndexTooSmall,
    PlrsError,
    SizeOutOfRange,
    SpecMismatch,
)
from .recurrence import RecurrenceSpec, SequenceTable, _shared_table, block_catalog

__all__ = [
    "DEFAULT_ENUM_CAP",
    "SummandPolynomial",
    "EnsembleStats",
    "ZDistribution",
    "SummandTable",
    "enumerate_omega",
    "enumerate_by_integer_walk",
    "stats_from_polynomial",
    "z_distribution",
    "conditional_tally",
    "conditional_mean_check",
    "sample_uniform",
]

# Exhaustive sweeps refuse to materialize more outcomes than this unless the
# caller raises the cap explicitly; the spaces grow geometrically in n.
DEFAULT_ENUM_CAP = 2_000_000


def enumerate_omega(spec: RecurrenceSpec, n: int) -> Iterator[Decomposition]:
    """Yield every legal coefficient string of length ``n``, exactly once.

    Walks the block grammar: a run of type-2 blocks, optionally closed by a
    type-1 block, total length n, where the first block must carry a
    positive leading coefficient (a type-2 block of size >= 1, or a type-1
    block filling the whole string, which needs n < L).

    Order is lexicographic in the sequence of block sizes; when a closing
    type-1 block ties with a type-2 block of equal size, the type-1 string
    comes first because it is the shorter size sequence.  That order is
    increasing value: it is lexicographic in the digits, and legal strings
    of one length compare by their first differing digit, so the k-th
    string yielded (from 0) is the decomposition of ``H_n + k``;
    ``test_enumerators_agree_on_random_specs`` pins the order against
    :func:`enumerate_by_integer_walk`.  Intended for small n; the yield
    count is ``H_{n+1} - H_n``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    trusted = Decomposition._trusted
    for coeffs, _ in _walk(spec, n):
        yield trusted(spec, coeffs)


def _walk(spec: RecurrenceSpec, n: int) -> Iterator[tuple[tuple[int, ...], int | None]]:
    """The walk of :func:`enumerate_omega`, yielding ``(coefficients, z)``.

    ``z`` is the size of the second-to-last block, the block appended just
    before the last one, or None for a single-block string.
    """
    c, sigma = spec.coefficients, spec._sigma
    type2 = block_catalog(spec).type2_by_size
    pairs = [(block.coefficients, t) for t, block in enumerate(type2)]

    # The walk order of every rest length r, built once per call.  For
    # r >= L every pair fits, and the list is shared.  For r < L the type-2
    # blocks of length at most r are the sizes below sigma_r, the first
    # sigma_r pairs, and the type-1 block (c_1, ..., c_r) of size sigma_r
    # comes after them.
    orders = [None] + [pairs] * n
    for r in range(1, min(n + 1, spec.length)):
        orders[r] = pairs[: sigma[r]] + [(c[:r], sigma[r])]

    # Depth-first over the block sequence with an explicit stack, so deep
    # strings (a long run of short blocks) never hit the recursion limit.
    # Each entry holds the string so far, the size of its last block and
    # the blocks still to try after it.  An outcome leads with a positive
    # block, so the top level skips the size-0 block [0], which sorts first.
    stack = [((), None, iter(orders[n][1:]))]
    while stack:
        head, last, pending = stack[-1]
        for block, t in pending:
            coeffs = head + block
            if len(coeffs) == n:
                yield coeffs, last
            else:
                stack.append((coeffs, t, iter(orders[n - len(coeffs)])))
                break
        else:
            stack.pop()


def enumerate_by_integer_walk(
    table: SequenceTable, n: int, cap: int | None = DEFAULT_ENUM_CAP
) -> Iterator[Decomposition]:
    """Decompose every integer in ``[H_n, H_{n+1})``, in order.

    The independent oracle for :func:`enumerate_omega` and the dynamic
    program: it reads the terms and coefficients, never the block grammar.
    ``H_n`` goes through ``decomposition._greedy``, the capped greedy digit
    loop of :func:`~plrs.decomposition.decompose`, which keeps the block
    state j and the value of the digits before each position.  Each next
    integer is a carry step: back up from the last position over every
    digit that already holds its state's largest value (``c_j``, or
    ``c_L - 1`` where j + 1 = L), and resume the greedy loop for the new
    integer at the first position that does not.  The loop's final
    ``rem == 0`` check makes every string worth its integer.  Raises
    :class:`CapExceeded` when the interval holds more than ``cap`` integers
    (pass ``cap=None`` to disable the guard).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lo, hi = table.term(n), table.term(n + 1)
    if cap is not None and hi - lo > cap:
        raise CapExceeded(hi - lo, cap)
    spec, trusted = table.spec, Decomposition._trusted
    c = spec.coefficients
    top = (*c[:-1], c[-1] - 1)  # the largest digit in each block state
    weights = table.terms(n)[::-1]  # H_n <= m < H_{n+1}: every m has n digits
    digits: list[int] = []
    states: list[int] = []
    prefixes: list[int] = []
    _greedy(weights, c, lo, digits, 0, 0, states, prefixes)
    yield trusted(spec, tuple(digits))
    for m in range(lo + 1, hi):
        i = n - 1
        while digits[i] == top[states[i]]:
            i -= 1
        prefix, j = prefixes[i], states[i]
        del digits[i:], states[i:], prefixes[i:]
        _greedy(weights, c, m, digits, prefix, j, states, prefixes)
        yield trusted(spec, tuple(digits))


@dataclass(frozen=True)
class SummandPolynomial:
    """Summand-count histogram of index ``n`` as an exact polynomial.

    ``coeffs[k]`` counts the outcomes with exactly k summands, so
    evaluating at 1 gives the cardinality ``H_{n+1} - H_n``.
    """

    n: int
    coeffs: tuple[int, ...]

    @property
    def total(self) -> int:
        """The cardinality: the polynomial evaluated at 1."""
        return sum(self.coeffs)


@dataclass(frozen=True)
class EnsembleStats:
    """Exact moments of the summand count at one index.

    ``raw_sums`` holds the integer sums ``A_j = sum_k k^j * count_k``,
    j = 0..4, that every moment is built from; with the cardinality
    ``A_0`` they determine the moments and back, so equality of two stats
    compares all four.  Each moment is built on first use as one fraction:
    an integer numerator over a power of ``T = A_0``.
    """

    n: int
    raw_sums: tuple[int, int, int, int, int]

    @property
    def cardinality(self) -> int:
        return self.raw_sums[0]

    @cached_property
    def mean(self) -> Fraction:
        T, s1 = self.raw_sums[:2]
        return Fraction(s1, T)

    @cached_property
    def variance(self) -> Fraction:
        T, s1, s2 = self.raw_sums[:3]
        return Fraction(T * s2 - s1 * s1, T * T)

    @cached_property
    def central3(self) -> Fraction:
        T, s1, s2, s3, _ = self.raw_sums
        T2 = T * T
        return Fraction(T2 * s3 - 3 * T * s1 * s2 + 2 * s1 * s1 * s1, T2 * T)

    @cached_property
    def central4(self) -> Fraction:
        T, s1, s2, s3, s4 = self.raw_sums
        T2 = T * T
        sq = s1 * s1
        return Fraction(
            T2 * T * s4 - 4 * T2 * s1 * s3 + 6 * T * sq * s2 - 3 * sq * sq, T2 * T2
        )


def _require_three_blocks(spec: RecurrenceSpec, n: int) -> None:
    """Past 2L every outcome has a second-to-last block, always type 2."""
    if n <= 2 * spec.length:
        raise IndexTooSmall(f"need n > 2L = {2 * spec.length}, got {n}")


def _power_sums(stop: int) -> tuple[int, int, int, int, int]:
    """``(sum t^0, ..., sum t^4)`` over ``0 <= t < stop``, by Faulhaber's
    formulas (``0^0 = 1``, so the first is ``stop``)."""
    n = stop - 1
    s1 = n * (n + 1) // 2
    s1_odd = s1 * (2 * n + 1)  # 3 sum t^2, always a multiple of 3
    return stop, s1, s1_odd // 3, s1 * s1, s1_odd * (3 * n * n + 3 * n - 1) // 15


def _by_length(spec: RecurrenceSpec) -> tuple:
    """The power sums of the type-2 sizes of each block length, shortest
    first.

    Per length l with a run of sizes: ``(l, (sum t^0, ..., sum t^4),
    weights)`` over the sizes t of length l.  Prepending a block of size t
    to a string of k summands gives k + t summands, and
    ``(k + t)^j = sum_i C(j, i) t^(j-i) k^i``, so summed over the sizes of
    one length the raw sums of the shorter tail enter ``A_j`` with weight
    ``C(j, i) * sum_t t^(j-i)``; ``weights`` holds the non-zero ones as
    ``(j, i, weight)``.  Each run's sums are two closed forms apart,
    so this costs O(L), not O(S).
    """
    out = []
    for ell, sizes in spec._runs:
        power = tuple(map(sub, _power_sums(sizes.stop), _power_sums(sizes.start)))
        weights = tuple(
            (j, i, comb(j, i) * power[j - i])
            for j in range(5)
            for i in range(j + 1)
            if power[j - i]
        )
        out.append((ell, power, weights))
    return tuple(out)


# Bits a packed tail's coefficient slots widen by, a whole number of bytes.
_SLOT_STEP = 64


def _slots(packed: int, bits: int) -> Iterator[bytes]:
    """The little-endian bytes of each ``bits``-wide slot of a packed
    polynomial, lowest degree first, up to its degree."""
    width = bits // 8
    size = -(-packed.bit_length() // bits) * width
    data = packed.to_bytes(size, "little")
    return (data[i : i + width] for i in range(0, size, width))


def _spread(q: int, k: int, B: int) -> int:
    """``k`` copies of the packed polynomial ``q``, one ``B``-bit slot
    apart: ``q * (1 + 2^B + ... + 2^((k-1)*B))``, by doubling, in
    O(log k) shift-adds (k - 1 of them for k <= 3), for k >= 1."""
    if k == 1:
        return q
    half = _spread(q, k // 2, B)
    out = half + (half << k // 2 * B)
    return out + (q << (k - 1) * B) if k & 1 else out


class SummandTable:
    """Exact summand-count statistics of every index, by block grammar.

    ``Q_r`` counts the legal *tail* strings of length r (leading zeros
    allowed) by summand count:

        Q_0 = 1
        Q_r = sum over type-2 sizes t with len(t) <= r of x^t Q_{r-len(t)}
              + x^{size of the type-1 block of length r}   (only if r < L)

    The type-1 term enters only when the block fills the rest of the
    string, which encodes "at most one type-1 block, always last".  The
    outcomes at index n are the tails of length n whose first block has a
    positive size, so their histogram is

        P_n = Q_n - Q_{n-1},

    because a tail of length n either starts with ``[0]``, the only block
    of size 0 (length 1, no summand), followed by any tail of length n - 1,
    or it is an outcome.

    The table reads the type-2 sizes as runs, one per block length l with
    ``c_l > 0``: the sizes ``sigma_{l-1} <= t < sigma_l``, where
    ``sigma_l = c_1 + ... + c_l`` and ``s_r = sigma_r``.  It builds no
    block and no per-size table, so the block catalog is never made here.

    Statistics never build these polynomials.  The table keeps, per tail
    length r, the five integer raw-moment sums
    ``A_j(r) = sum_k k^j [x^k] Q_r`` (j = 0..4), which obey the same
    recurrence with the binomial expansion of ``(k + t)^j``:

        A_j(r) = sum over t with len(t) <= r of
                     sum_{i <= j} C(j, i) t^(j-i) A_i(r - len(t))
                 + s_r^j   (type-1 block of size s_r, only if r < L)

    :meth:`stats` subtracts the rows of n - 1 from those of n on every call
    and returns the difference as a view that turns it into exact moments;
    the rows are the only statistics the table stores.  Each row holds
    O(n)-bit integers, so statistics up to n cost O(n^2) bits.

    The tail polynomials themselves are built only when :meth:`polynomial`
    asks for a histogram.  Each call builds ``Q_0, ..., Q_n`` in local
    variables, holding only the last L (no block is longer than L, so
    ``Q_r`` reads only ``Q_{r-1}, ..., Q_{r-L}``), and the table keeps
    none of them.  Each tail is one non-negative integer, ``Q_r(2^B)``
    (Kronecker substitution): coefficient k fills the B-bit slot k, so
    ``x^t Q`` is ``Q << t*B``.  The sizes of one length l form a run of
    k consecutive integers from t_0, so their terms add up to
    ``_spread(Q_{r-l}, k, B) << t_0*B``: k copies of the tail one slot
    apart, built by doubling.  Each step is one big-integer term per run,
    at O(log k) shift-adds, which is one shift-add per size for runs of
    at most 3 sizes:

        Q_r = Q_{r-1} + sum over runs (l, t_0, k) with l <= r of
                            _spread(Q_{r-l}, k, B) << t_0*B
              + 1 << s_r*B   (only if r < L)

    Size 0, the ``[0]`` block, enters as ``Q_{r-1}``, so the first run
    starts at size 1.  The sum over the runs at n is ``P_n`` itself, which
    :meth:`polynomial` unpacks slot by slot, with no subtraction.  All
    terms are non-negative, so every coefficient and partial sum of
    ``Q_r`` is at most the tail count ``Q_r(1) = H_{r+1}``.  The bit
    lengths of ``H_1, ..., H_{n+1}`` are read once before the loop, and
    each step widens B, in whole steps of ``_SLOT_STEP`` bits, to the bit
    length of its count, re-slotting the held tails one at a time when it
    grows.  A call holds O(n^2) bits, but a fixed slot width spends the
    full B bits on the thin outer coefficients too, up to about twice the
    bits the coefficients themselves need.
    """

    def __init__(self, spec: RecurrenceSpec):
        self.spec = spec
        self._by_length = _by_length(spec)
        self._moments: list[tuple[int, ...]] = [(1, 0, 0, 0, 0)]

    def extend(self, n: int) -> None:
        """Ensure the moment rows of tails up to length ``n`` exist."""
        rows = self._moments
        while len(rows) <= n:
            r = len(rows)
            acc = [0, 0, 0, 0, 0]
            for ell, _, weights in self._by_length:
                if ell > r:
                    break
                row = rows[r - ell]
                for j, i, w in weights:
                    acc[j] += w * row[i]
            if r < self.spec.length:
                size = self.spec._sigma[r]
                acc = [a + size**j for j, a in enumerate(acc)]
            rows.append(tuple(acc))

    def polynomial(self, n: int) -> SummandPolynomial:
        """The exact summand-count histogram of index ``n``, built from
        ``Q_0`` on each call."""
        if n < 1:
            raise ValueError("n must be >= 1")
        spec, B = self.spec, _SLOT_STEP
        L, sigma = spec.length, spec._sigma
        # Size 0 enters each step as Q_{r-1}: the first run starts at 1, and
        # goes when c_1 = 1.
        runs = [(ell, range(s.start or 1, s.stop)) for ell, s in spec._runs if s.stop > 1]
        # Q_r(1) = H_{r+1}; only its bit length is kept through the loop.
        bits = [h.bit_length() for h in _shared_table(spec).terms(n + 1)]
        tails = [1]  # Q_r(2^B) of the last L lengths r
        for r in range(1, n + 1):
            if bits[r] > B:  # re-slot: pad each slot with zero bytes
                width = -(-bits[r] // _SLOT_STEP) * _SLOT_STEP
                pad = bytes((width - B) // 8)
                for i, q in enumerate(tails):  # one at a time, each old one freed
                    tails[i] = int.from_bytes(pad.join(_slots(q, B)), "little")
                del q  # the last old tail
                B = width
            acc = tails[-1] if r < n else 0  # at n the sum is P_n itself
            for ell, sizes in runs:
                if ell > r:
                    break
                acc += _spread(tails[-ell], len(sizes), B) << sizes.start * B
            if r < L:
                acc += 1 << sigma[r] * B
            tails.append(acc)
            del tails[:-L]
        slots = _slots(acc, B)
        return SummandPolynomial(n, tuple(int.from_bytes(s, "little") for s in slots))

    def _low_sums(self, n: int) -> tuple[int, int, int]:
        """``(T_n, A_1(n), A_2(n))``: the first three raw sums of index n,
        the difference of the moment rows of n and n - 1, with no view."""
        self.extend(n)
        hi, lo = self._moments[n], self._moments[n - 1]
        return hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]

    def removal_rows(self, n: int) -> tuple:
        """The spaces left by removing the second-to-last block at index n.

        Removing a block of size t (0 included) and length l maps the
        outcomes at ``n > 2L`` that carry it onto the space at ``r = n - l``
        and lowers their summand counts by t.  Per length l, shortest first:
        ``(k, s1, s2, r)``, with k sizes of length l summing to s1 (their
        squares to s2).  It reads no moment row: each caller pairs r with
        the raw sums it holds for that index.
        """
        _require_three_blocks(self.spec, n)
        return tuple((*power[:3], n - ell) for ell, power, _ in self._by_length)

    def stats(self, n: int) -> EnsembleStats:
        """Exact moments at index ``n``, a view of the moment rows built on
        each call."""
        if n < 1:
            raise ValueError("n must be >= 1")
        self.extend(n)
        rows = self._moments
        return EnsembleStats(n, tuple(map(sub, rows[n], rows[n - 1])))

    def mean(self, n: int) -> Fraction:
        return self.stats(n).mean

    def second_raw_moment(self, n: int) -> Fraction:
        sums = self.stats(n).raw_sums
        return Fraction(sums[2], sums[0])


def stats_from_polynomial(poly: SummandPolynomial) -> EnsembleStats:
    """Exact mean, variance and central moments 3 and 4 of a histogram."""
    total = poly.total
    if total == 0:
        raise EmptyDistribution(f"histogram for n={poly.n} has no outcomes")
    r1 = r2 = r3 = r4 = 0
    for k, c in enumerate(poly.coeffs):
        if not c:
            continue
        kc = k * c
        r1 += kc
        kc *= k
        r2 += kc
        kc *= k
        r3 += kc
        r4 += kc * k
    return EnsembleStats(poly.n, (total, r1, r2, r3, r4))


@dataclass(frozen=True)
class ZDistribution:
    """Distribution of the size of the second-to-last block at index ``n``.

    ``probs[t]`` is the exact probability of size t under the uniform
    measure; ``lengths[t]`` is the block length that size implies.  When
    the space was small enough to enumerate, ``empirical_counts`` holds the
    tally that was checked against the closed form.
    """

    n: int
    probs: tuple[Fraction, ...]
    lengths: tuple[int, ...]
    cardinality: int
    empirical_counts: tuple[int, ...] | None = None


def z_distribution(
    spec: RecurrenceSpec,
    n: int,
    *,
    table: SequenceTable | None = None,
    cross_check: bool | None = None,
    cap: int = DEFAULT_ENUM_CAP,
) -> ZDistribution:
    """Exact distribution of the second-to-last block size.

    Valid for ``n > 2L`` (at least three blocks, so the second-to-last is
    always type 2).  The closed form weighs each size t by the cardinality
    of the space at index ``n - length(t)``:

        P(size = t) = (H_{n-len(t)+1} - H_{n-len(t)}) / (H_{n+1} - H_n)

    With ``cross_check`` unset, the space is also enumerated and tallied
    whenever it has at most ``cap`` outcomes; the tally must reproduce the
    closed form exactly.  Pass ``cross_check=False`` inside large sweeps or
    ``cross_check=True`` to force enumeration.  A ``table`` of another spec
    raises :class:`SpecMismatch`.
    """
    _require_three_blocks(spec, n)
    table = table if table is not None else _shared_table(spec)
    if table.spec is not spec and table.spec != spec:
        raise SpecMismatch(f"table spec {table.spec} does not match spec {spec}")
    omega = table.term(n + 1) - table.term(n)
    probs, lengths = [], []  # one fraction per block length, shared by its sizes
    for ell, sizes in spec._runs:
        prob = Fraction(table.term(n - ell + 1) - table.term(n - ell), omega)
        probs += [prob] * len(sizes)
        lengths += [ell] * len(sizes)
    counts = None
    if cross_check or (cross_check is None and omega <= cap):
        # enumeration is decided here, and a forced check ignores the cap
        tally = conditional_tally(spec, n, cap=omega)
        counts = tuple(count for count, _, _ in tally)
        if any(Fraction(c, omega) != p for c, p in zip(counts, probs)):
            raise PlrsError(
                f"empirical second-to-last block tally at n={n} disagrees "
                "with the closed form"
            )
    return ZDistribution(n, tuple(probs), tuple(lengths), omega, counts)


def conditional_tally(
    spec: RecurrenceSpec, n: int, *, cap: int = DEFAULT_ENUM_CAP
) -> tuple[tuple[int, int, int], ...]:
    """Tally the space at index n by second-to-last block size, in one walk.

    Entry t is ``(count, sum K, sum K^2)`` over the outcomes whose
    second-to-last block has size t.  Raises :class:`CapExceeded` when the
    space holds more than ``cap`` outcomes.
    """
    _require_three_blocks(spec, n)
    table = _shared_table(spec)
    omega = table.term(n + 1) - table.term(n)
    if omega > cap:
        raise CapExceeded(omega, cap)
    count = [0] * spec.size
    s1 = [0] * spec.size
    s2 = [0] * spec.size
    for coeffs, t in _walk(spec, n):
        k = sum(coeffs)
        count[t] += 1
        s1[t] += k
        s2[t] += k * k
    return tuple(zip(count, s1, s2))


def conditional_mean_check(
    engine: SummandTable,
    n: int,
    t: int,
    *,
    tally: tuple[tuple[int, int, int], ...],
    moment: int = 1,
) -> tuple[Fraction, Fraction]:
    """Conditional moment of the summand count, two independent ways.

    Left side: from ``tally``, the :func:`conditional_tally` of index n of
    ``engine.spec`` (one enumeration of the space serves every size and
    moment), average ``K^moment`` over the outcomes whose second-to-last
    block has size ``t``.  Right side, from the table's moment rows at the
    shorter index ``r = n - length(t)`` (removing the block drops the
    count by t):

        moment 1:  E[K_r] + t
        moment 2:  E[K_r^2] + 2 t E[K_r] + t^2

    Both sides are exact rationals and must be equal.
    """
    spec = engine.spec
    _require_three_blocks(spec, n)
    if not 0 <= t < spec.size:
        raise SizeOutOfRange(f"block size {t} outside [0, {spec.size - 1}]")
    if moment not in (1, 2):
        raise ValueError("moment must be 1 or 2")
    count = tally[t][0]
    if count == 0:
        raise EmptyConditionalEvent(f"no outcome at n={n} has block size {t}")
    lhs = Fraction(tally[t][moment], count)

    r = n - bisect_right(spec._sigma, t)  # len(t): the least l with sigma_l > t
    if moment == 1:
        rhs = engine.mean(r) + t
    else:
        rhs = engine.second_raw_moment(r) + 2 * t * engine.mean(r) + t * t
    return lhs, rhs


def sample_uniform(
    table: SequenceTable, n: int, count: int, seed: int
) -> Iterator[Decomposition]:
    """Decompose ``count`` integers drawn uniformly from ``[H_n, H_{n+1})``.

    Uniformity is exact at arbitrary precision (``random.Random.randrange``
    on the exact interval) and the stream is a pure function of the seed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = random.Random(seed)
    lo, hi = table.term(n), table.term(n + 1)
    for _ in range(count):
        yield decompose(table, rng.randrange(lo, hi))
