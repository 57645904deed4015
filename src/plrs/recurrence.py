"""Positive linear recurrence sequences and their block catalogs.

A sequence is fixed by non-negative integer coefficients ``c_1, ..., c_L``
with ``c_1 > 0`` and ``c_L > 0``.  Terms obey

    H_{n+1} = c_1 H_n + c_2 H_{n-1} + ... + c_L H_{n+1-L}        (n >= L)

with ``H_1 = 1`` and the ramp-up rule
``H_{n+1} = c_1 H_n + ... + c_n H_1 + 1`` for ``1 <= n < L``.  All terms are
exact Python integers; nothing here ever touches floating point.

The digit strings of the associated numeration system are built from two
kinds of blocks over the coefficient alphabet:

* a type-1 block is a strict prefix ``(c_1, ..., c_m)`` with ``m < L``; it
  can only close a string;
* a type-2 block is ``(c_1, ..., c_{s-1}, a_s)`` with ``a_s < c_s``; it is
  uniquely determined by its size ``t`` (the sum of its entries), which
  ranges over ``0 <= t < S`` where ``S = c_1 + ... + c_L``.

``length_of(t)`` tabulates the length of the unique type-2 block of size t.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from itertools import accumulate
from operator import mul
from threading import Lock

from .errors import (
    DegenerateRecurrence,
    EmptyCoefficients,
    LeadingCoefficientZero,
    NegativeCoefficient,
    NonIntegerCoefficient,
    SizeOutOfRange,
    TrailingCoefficientZero,
)

__all__ = [
    "RecurrenceSpec",
    "SequenceTable",
    "Block",
    "BlockKind",
    "BlockCatalog",
    "validate_spec",
    "block_catalog",
]


@dataclass(frozen=True)
class RecurrenceSpec:
    """Validated recurrence coefficients with derived size and length.

    Use :func:`validate_spec` to construct one; the constructor itself does
    not re-check the invariants.
    """

    coefficients: tuple[int, ...]

    @property
    def length(self) -> int:
        """Number of coefficients L."""
        return len(self.coefficients)

    @property
    def size(self) -> int:
        """Sum of the coefficients S."""
        return self._sigma[-1]

    @cached_property
    def _sigma(self) -> tuple[int, ...]:
        """The prefix sums ``(sigma_0, ..., sigma_L)``, ``sigma_r = c_1 + ... + c_r``.

        ``sigma_r`` is the size of the type-1 block of length r, and the
        type-2 block of size t has the least length s with ``sigma_s > t``.
        Computed on first use and kept, like ``Block._text``; not a field.
        """
        return (0, *accumulate(self.coefficients))

    @cached_property
    def _runs(self) -> tuple[tuple[int, range], ...]:
        """The type-2 block sizes by length: ``(s, range(sigma_{s-1}, sigma_s))``
        for each length s with ``c_s > 0``, shortest first.

        The block ``(c_1, ..., c_{s-1}, a)`` has size ``sigma_{s-1} + a`` for
        ``0 <= a < c_s``; together the runs cover ``0 <= t < S`` once, in
        increasing order.
        """
        sigma = self._sigma
        sizes = (range(lo, hi) for lo, hi in zip(sigma, sigma[1:]))
        return tuple((s, run) for s, run in enumerate(sizes, start=1) if run)

    def __str__(self) -> str:
        return ",".join(map(str, self.coefficients))

    @classmethod
    def from_text(cls, text: str) -> "RecurrenceSpec":
        """Parse a comma-separated coefficient list, e.g. ``"2,2,0,2"``."""
        try:
            coeffs = [int(part) for part in text.split(",")]
        except ValueError:
            raise ValueError(f"cannot parse coefficients {text!r}") from None
        return validate_spec(coeffs)


def _first_non_integer(entries) -> int | None:
    """Index of the first entry that is not an ``int``, or None.

    The integer-entry rule shared by :func:`validate_spec` and the legality
    checks of :mod:`plrs.decomposition`: a ``bool`` counts as an int, and
    nothing (a float, a numeric string) is converted.  ``entries`` is a
    tuple or a list.
    """
    try:
        if type(sum(entries)) is int:  # one C-level pass when all are ints
            return None
    except (TypeError, ArithmeticError):  # e.g. a float after a 400-digit int
        pass
    return next((i for i, a in enumerate(entries) if not isinstance(a, int)), None)


def validate_spec(coefficients) -> RecurrenceSpec:
    """Validate a coefficient list and return the spec.

    Every entry must be an ``int``; a ``bool`` counts as one and is stored
    as an ``int``, and nothing else is converted.  Raises
    :class:`NonIntegerCoefficient`, :class:`EmptyCoefficients`,
    :class:`LeadingCoefficientZero`, :class:`TrailingCoefficientZero` or
    :class:`NegativeCoefficient` on bad input, and
    :class:`DegenerateRecurrence` for ``(1,)``, whose sequence would be
    constant.
    """
    coeffs = tuple(coefficients)
    i = _first_non_integer(coeffs)
    if i is not None:
        raise NonIntegerCoefficient(
            f"coefficient c_{i + 1} = {coeffs[i]!r} is not an integer"
        )
    coeffs = tuple(map(int, coeffs))
    if not coeffs:
        raise EmptyCoefficients("need at least one coefficient")
    for i, c in enumerate(coeffs):
        if c < 0:
            raise NegativeCoefficient(f"coefficient c_{i + 1} = {c} is negative")
    if coeffs[0] == 0:
        raise LeadingCoefficientZero("c_1 must be positive")
    if coeffs[-1] == 0:
        raise TrailingCoefficientZero("c_L must be positive")
    if coeffs == (1,):
        raise DegenerateRecurrence(
            "coefficients (1,) give the constant sequence 1, 1, 1, ..."
        )
    return RecurrenceSpec(coeffs)


class SequenceTable:
    """Cached terms ``H_1, ..., H_n`` of a sequence.

    The table extends itself on demand and only ever appends, so a term
    once read never changes.  ``SequenceTable(spec)`` is a fresh table;
    the library's own request paths share one table per spec for the
    whole process instead, so terms grown by one request serve the next.
    Growth is serialized by a per-table lock, taken only when a call has
    to append; reads (:meth:`term`, :meth:`terms`, :meth:`weigh` and the
    bisection of :meth:`extend_beyond`) never wait.  One growth loop,
    ``_grow``, serves :meth:`extend` and :meth:`extend_beyond`; past the
    ramp each term is one C-level dot product of the reversed coefficients
    with the last L terms.
    """

    def __init__(self, spec: RecurrenceSpec, n: int = 1):
        self.spec = spec
        self._terms: list[int] = [1]
        self._lock = Lock()
        self.extend(n)

    def extend(self, n: int) -> None:
        """Ensure terms up to ``H_n`` are cached."""
        self._grow(n, 0)

    def _grow(self, n: int, value: int) -> None:
        """Append terms until the table holds ``H_n`` and its last term
        exceeds ``value``.

        A table that already does returns without the lock.  Otherwise the
        loop runs under it and re-reads the table there, so two growers
        never append the same term twice.
        """
        H = self._terms
        if len(H) >= n and H[-1] > value:
            return
        c = self.spec.coefficients
        L = len(c)
        with self._lock:
            # the ramp: H_{k+1} = c_1 H_k + ... + c_k H_1 + 1 for k < L
            while len(H) < L and (len(H) < n or H[-1] <= value):
                H.append(sum(map(mul, c, reversed(H))) + 1)
            reversed_c = c[::-1]  # H_{k+1} = c_L H_{k+1-L} + ... + c_1 H_k
            while len(H) < n or H[-1] <= value:
                H.append(sum(map(mul, reversed_c, H[-L:])))

    def term(self, i: int) -> int:
        """Return ``H_i`` (1-indexed), extending the cache if needed."""
        if i < 1:
            raise IndexError(f"term index {i} out of range (terms start at H_1)")
        self.extend(i)
        return self._terms[i - 1]

    def terms(self, n: int) -> tuple[int, ...]:
        """Return ``(H_1, ..., H_n)``; ``()`` for n = 0."""
        if n < 0:
            raise IndexError(f"term count {n} is negative")
        if len(self._terms) < n:
            self.extend(n)
        return tuple(self._terms[:n])

    def weigh(self, digits) -> int:
        """``digits[0] H_m + ... + digits[m-1] H_1`` for ``m = len(digits)``,
        read from the cache without copying it."""
        m = len(digits)
        if len(self._terms) < m:
            self.extend(m)
        return sum(map(mul, reversed(digits), self._terms))

    def extend_beyond(self, value: int) -> int:
        """Grow the table until ``H_{n+1} > value``; return that n.

        n is then the index of the largest term at or below ``value``
        (terms are strictly increasing, so a bisection finds it).  A table
        grown from a shorter one ends at ``H_{n+1}``.
        """
        if value < 1:
            raise ValueError("value must be >= 1")
        self._grow(0, value)
        return bisect_right(self._terms, value)


class BlockKind(Enum):
    TYPE1 = "type1"
    TYPE2 = "type2"


@dataclass(frozen=True)
class Block:
    """One block of a digit string: its kind and coefficient run.

    Its text ``[c_1 c_2 ...]`` is rendered on first use and kept, so the
    catalog's blocks, which every parse shares, render once each.  The
    text is not a field: equality, hash and repr read the kind and the
    coefficients only.
    """

    kind: BlockKind
    coefficients: tuple[int, ...]

    @property
    def size(self) -> int:
        return sum(self.coefficients)

    @property
    def length(self) -> int:
        return len(self.coefficients)

    @cached_property
    def _text(self) -> str:
        return "[" + " ".join(map(str, self.coefficients)) + "]"

    def __str__(self) -> str:
        return self._text


@dataclass(frozen=True)
class BlockCatalog:
    """All blocks of a spec plus the size-to-length table.

    ``type1_blocks[m-1]`` is the prefix block of length m (1 <= m < L).
    ``type2_by_size[t]`` is the unique type-2 block of size t (0 <= t < S),
    and ``length_table[t]`` is its length.
    """

    spec: RecurrenceSpec
    type1_blocks: tuple[Block, ...]
    type2_by_size: tuple[Block, ...]
    length_table: tuple[int, ...]

    def length_of(self, t: int) -> int:
        """Length of the type-2 block of size ``t``."""
        if not 0 <= t < self.spec.size:
            raise SizeOutOfRange(
                f"block size {t} outside [0, {self.spec.size - 1}]"
            )
        return self.length_table[t]


@cache
def block_catalog(spec: RecurrenceSpec) -> BlockCatalog:
    """Enumerate every block of the spec.  Cached per spec.

    The type-2 blocks and the size-to-length table are built run by run
    from the spec's ``_runs``: the run of length s holds the blocks
    ``(c_1, ..., c_{s-1}, a)`` for ``a = 0, ..., c_s - 1``.  A length with
    ``c_s = 0`` has no run, since nothing is strictly below zero, which is
    why e.g. a zero in the middle of the coefficients is always copied
    verbatim.
    """
    c, runs = spec.coefficients, spec._runs
    type1 = tuple(
        Block(BlockKind.TYPE1, c[:m]) for m in range(1, spec.length)
    )
    type2 = tuple(
        Block(BlockKind.TYPE2, c[: s - 1] + (a,))
        for s, _ in runs
        for a in range(c[s - 1])
    )
    lengths = tuple(s for s, sizes in runs for _ in sizes)
    return BlockCatalog(spec, type1, type2, lengths)


@cache
def _shared_table(spec: RecurrenceSpec) -> SequenceTable:
    """The process-wide term table of the spec, grown by every caller.
    Cached per spec, like :func:`block_catalog`."""
    return SequenceTable(spec)
