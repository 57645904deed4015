"""Legal decompositions: construction, validation, and block surgery.

A decomposition of a positive integer is a coefficient string
``a_1, ..., a_m`` standing for ``a_1 H_m + a_2 H_{m-1} + ... + a_m H_1``
(most significant first).  The string is *legal* when it parses left to
right into blocks from the spec's catalog: any run of type-2 blocks,
optionally closed by a single type-1 block.  The whole decomposition must
additionally start with a positive coefficient; remainders inside the
recursive legality condition need not, which is why interior ``[0]`` blocks
are fine.

The parse is deterministic: starting at any position, coefficients are
matched against the prefix ``c_1, c_2, ...`` until the first strict drop
(type-2 block ends there) or the end of the string (type-1 block).  A
coefficient above its ``c_i``, or a full ``L``-long match with no drop,
means the string is illegal at that point.  One scanner, ``_scan``,
applies the integer-entry rule and then reads the string once, left to
right, keeping only j, the position inside the current block: a digit
below ``c_j`` closes a type-2 block of length j + 1, one equal to it
moves j on (j reaching L fails), one above it fails, and a non-zero j at
the end closes a type-1 block of length j.
Legality checks read only its verdict and collect nothing per block.
:func:`parse_blocks` asks it for the length of every block;
:func:`second_to_last_block_size` and the block surgery read the last two
of those lengths and slice the string there.

:func:`decompose` runs the capped greedy digit loop, ``_greedy``, which
can resume at any position from the block state and the value of the
digits before it; the integer walk of :mod:`plrs.ensemble` steps from one
integer to the next that way.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from operator import length_hint

from .errors import (
    IllegalDecomposition,
    NonPositiveInput,
    PlrsError,
    SizeOutOfRange,
    SpecMismatch,
    TooFewBlocks,
)
from .recurrence import (
    Block,
    RecurrenceSpec,
    SequenceTable,
    _first_non_integer,
    block_catalog,
)

__all__ = [
    "LegalityResult",
    "Decomposition",
    "BlockParse",
    "decompose",
    "value",
    "is_legal",
    "parse_blocks",
    "second_to_last_block_size",
    "remove_second_to_last_block",
    "insert_block_before_last",
]


@dataclass(frozen=True)
class LegalityResult:
    """Verdict of a legality check; falsy results carry reason and position."""

    ok: bool
    reason: str | None = None
    position: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def _failure(coeffs, reason: str, position: int | None) -> LegalityResult:
    """A failed scan.  A negative entry anywhere outranks the failure the
    scan met, so the first one is reported instead."""
    if min(coeffs) < 0:
        reason = "negative coefficient"
        position = next(i for i, a in enumerate(coeffs) if a < 0)
    return LegalityResult(False, reason, position)


def _scan(spec: RecurrenceSpec, coeffs, require_positive_leading: bool, lengths=None):
    """Split ``coeffs`` into blocks; the one verdict every front door applies.

    The integer-entry rule comes first, then the parse.  Returns None when
    the string parses and the failing :class:`LegalityResult` otherwise,
    its position a 0-based index into ``coeffs``.  ``coeffs`` is a tuple or
    a list.  When ``lengths`` is a list, the length of each block is
    appended to it, left to right; verdict readers pass none and collect
    nothing.
    """
    i = _first_non_integer(coeffs)
    if i is not None:
        return LegalityResult(False, "non-integer coefficient", i)
    n = len(coeffs)
    if n == 0:
        return LegalityResult(False, "empty coefficient string", None)
    if require_positive_leading and coeffs[0] < 1:
        return _failure(coeffs, "leading coefficient must be positive", 0)

    c = spec.coefficients
    L = len(c)
    j = 0  # position inside the current block
    digits = iter(coeffs)
    for a in digits:
        cj = c[j]
        if a < cj:  # the first strict drop closes a type-2 block of length j + 1
            if a < 0:  # every c_j >= 0, so only this branch meets negatives
                return _failure(coeffs, "negative coefficient", None)
            if lengths is not None:
                lengths.append(j + 1)
            j = 0
        elif a == cj:
            j += 1
            if j == L:
                # the digit just read is at n - 1 - (digits still unread)
                return _failure(
                    coeffs,
                    "matches the full coefficient prefix with no strict drop",
                    n - length_hint(digits) - L,
                )
        else:
            return _failure(
                coeffs,
                "coefficient exceeds the recurrence coefficient",
                n - 1 - length_hint(digits),
            )
    if j and lengths is not None:
        lengths.append(j)  # the string ends mid-prefix: a type-1 block closes it
    return None


def _illegal(failure: LegalityResult) -> IllegalDecomposition:
    """The error for a failed scan: its reason and, if known, position."""
    where = f" (position {failure.position})" if failure.position is not None else ""
    return IllegalDecomposition(f"{failure.reason}{where}")


def _block_lengths(spec: RecurrenceSpec, coeffs) -> list[int]:
    """Block lengths of a string that must parse (leading zeros allowed)."""
    lengths: list[int] = []
    failure = _scan(spec, coeffs, False, lengths)
    if failure is not None:
        raise _illegal(failure)
    return lengths


def _decomposition_lengths(spec: RecurrenceSpec, d: Decomposition) -> list[int]:
    """Block lengths of a decomposition of ``spec``."""
    if d.spec != spec:
        raise SpecMismatch("decomposition belongs to a different spec")
    return _block_lengths(spec, d.coefficients)


def _second_to_last(lengths: list[int], n: int) -> tuple[int, int]:
    """Start and end offsets of the second-to-last block of a length-n string."""
    if len(lengths) < 2:
        raise TooFewBlocks("need at least two blocks")
    end = n - lengths[-1]
    return end - lengths[-2], end


_LEGAL = LegalityResult(True)  # frozen, so every legal verdict can share it


def is_legal(spec: RecurrenceSpec, coefficients) -> LegalityResult:
    """Check whether a coefficient string is a legal decomposition.

    The leading coefficient must be positive; the rest of the string must
    parse into blocks.  Malformed input (negative entries and the like) is
    reported as illegal with a reason, never raised; an entry that is not an
    ``int`` (a ``bool`` counts as one) reads "non-integer coefficient".
    :class:`Decomposition` applies the same verdict and raises it.
    """
    if not isinstance(coefficients, (tuple, list)):
        coefficients = list(coefficients)
    failure = _scan(spec, coefficients, True)
    return failure if failure is not None else _LEGAL


@dataclass(frozen=True)
class Decomposition:
    """An immutable, validated coefficient string for a given spec.

    ``coefficients[0]`` multiplies the largest term ``H_m``.  Construction
    applies :func:`is_legal`'s verdict and raises it as
    :class:`IllegalDecomposition` with the same reason and position: every
    entry must be an ``int`` (nothing is converted; a ``bool`` counts as
    one and is stored as an ``int``), and the string must parse into
    blocks.  Any iterable is stored as a tuple.  Decompositions of positive
    integers always start with a positive coefficient; block insertion in
    front of a single-block string can produce a *padded* string with a
    leading size-0 block, whose leading coefficient is 0.  Pass
    ``require_proper=False`` to build one.  ``str(d)`` is the space-separated
    coefficients, most significant first.
    """

    spec: RecurrenceSpec
    coefficients: tuple[int, ...]
    require_proper: InitVar[bool] = True

    def __post_init__(self, require_proper: bool):
        coeffs = self.coefficients
        if not isinstance(coeffs, (tuple, list)):
            coeffs = tuple(coeffs)
        failure = _scan(self.spec, coeffs, require_proper)
        if failure is not None:
            raise _illegal(failure)
        object.__setattr__(self, "coefficients", tuple(map(int, coeffs)))

    @classmethod
    def _trusted(cls, spec: RecurrenceSpec, coefficients: tuple[int, ...]):
        """Construct without re-scanning; only for strings a generator just
        built block-by-block (the validation would re-derive the same parse)."""
        self = object.__new__(cls)
        fields = self.__dict__  # frozen: fill the instance dict directly
        fields["spec"] = spec
        fields["coefficients"] = coefficients
        return self

    @property
    def m(self) -> int:
        """Length of the coefficient string."""
        return len(self.coefficients)

    @property
    def summand_count(self) -> int:
        """Total number of summands, the coefficient sum."""
        return sum(self.coefficients)

    def __str__(self) -> str:
        return " ".join(map(str, self.coefficients))


@dataclass(frozen=True)
class BlockParse:
    """Ordered blocks partitioning a coefficient string left to right."""

    blocks: tuple[Block, ...]

    def __str__(self) -> str:
        return "".join(map(str, self.blocks))


def _greedy(
    weights, c, m: int, digits: list, prefix: int = 0, j: int = 0,
    states=None, prefixes=None,
) -> None:
    """The capped greedy digit loop for ``m``, appending to ``digits``.

    ``weights`` is ``(H_n, ..., H_1)``: position i weighs ``H_{n-i}``.  The
    loop resumes at position ``len(digits)``; the digits already there are
    worth ``prefix`` and end in block state j.  When given, ``states`` and
    ``prefixes`` receive the state before each new position and the value
    of the digits before it, so that a later call can resume at any of them.
    A position whose weight exceeds the remainder takes a zero digit with
    one comparison and no big-int arithmetic; it continues the block where
    ``c_j = 0`` and closes it elsewhere.  Raises :class:`PlrsError` when
    the digits are not worth ``m``: the legal tails of length r cover
    ``[0, H_{r+1})`` exactly, so that takes weights that are not the terms.
    """
    rem = m - prefix
    for w in weights[len(digits):]:
        if states is not None:
            states.append(j)
            prefixes.append(m - rem)
        if rem < w:
            a = 0
            j = 0 if c[j] else j + 1
        else:
            a = rem // w
            if a >= c[j]:
                a, j = c[j], j + 1
            else:
                j = 0
            rem -= a * w
        digits.append(a)
    if rem:
        raise PlrsError(f"greedy digits fall short of their integer by {rem}")


def decompose(table: SequenceTable, m: int) -> Decomposition:
    """The legal decomposition of the positive integer ``m``, greedily.

    Each position, largest term first, takes the largest digit that fits
    but at most ``c_j``, j counting the positions of the current block: a
    digit equal to ``c_j`` continues the block, a smaller one closes it.
    (Uncapped greedy writes 8 = H_4 + H_3 for ``1,0,2``, which is not
    legal.)  The result round-trips through :func:`value` and passes
    :func:`is_legal`; the table grows on demand.  ``m`` must be an ``int``
    (a ``bool`` counts as one, as in the integer-entry rule); anything
    else, like a value below 1, raises :class:`NonPositiveInput`.
    """
    if not isinstance(m, int) or m < 1:
        raise NonPositiveInput(f"no decomposition for {m!r}; need a positive integer")
    digits: list[int] = []
    weights = table.terms(table.extend_beyond(m))[::-1]
    _greedy(weights, table.spec.coefficients, m, digits)
    return Decomposition._trusted(table.spec, tuple(digits))


def value(table: SequenceTable, d: Decomposition) -> int:
    """Exact value ``a_1 H_m + ... + a_m H_1`` of a decomposition."""
    if d.spec is not table.spec and d.spec != table.spec:
        raise SpecMismatch(
            f"decomposition spec {d.spec} does not match table spec {table.spec}"
        )
    return table.weigh(d.coefficients)


def parse_blocks(spec: RecurrenceSpec, d: Decomposition) -> BlockParse:
    """Split a decomposition into its unique block sequence.

    Every block but a closing type-1 one ends on a strict drop, so a block
    is type 2 exactly when its last coefficient is below its ``c_i``.  Each
    block is the catalog's own: a type-2 block of length l is the one of
    size ``sigma_{l-1} + a`` (``sigma_r = c_1 + ... + c_r``, a its last
    digit), a type-1 block the one of its length.
    """
    c, sigma = spec.coefficients, spec._sigma
    a = d.coefficients
    catalog = block_catalog(spec)
    type2 = catalog.type2_by_size
    blocks = []
    end = 0
    for length in _decomposition_lengths(spec, d):
        end += length
        last = a[end - 1]
        blocks.append(
            type2[sigma[length - 1] + last]
            if last < c[length - 1]
            else catalog.type1_blocks[length - 1]
        )
    return BlockParse(tuple(blocks))


def second_to_last_block_size(spec: RecurrenceSpec, coefficients) -> int:
    """Size of the second-to-last block of a string that parses.

    Equals ``parse_blocks(...).blocks[-2].size``, summed straight from the
    last two block lengths.  Leading zeros are allowed.  Raises
    :class:`TooFewBlocks` on single-block strings and
    :class:`IllegalDecomposition` on strings that do not parse.
    """
    if not isinstance(coefficients, (tuple, list)):
        coefficients = tuple(coefficients)
    lengths = _block_lengths(spec, coefficients)
    start, end = _second_to_last(lengths, len(coefficients))
    return sum(coefficients[start:end])


def remove_second_to_last_block(
    spec: RecurrenceSpec, d: Decomposition
) -> tuple[Decomposition, int]:
    """Delete the second-to-last block and shift the rest together.

    The second-to-last block of any multi-block string is type 2; removing
    it shortens the string by the block's length and lowers the summand
    count by its size ``t``, which is returned alongside the result.  With
    only two blocks the surviving last block may start with zero, giving a
    padded (non-proper) result; with three or more blocks the leading block
    is untouched.
    """
    a = d.coefficients
    start, end = _second_to_last(_decomposition_lengths(spec, d), len(a))
    return (
        Decomposition(spec, a[:start] + a[end:], require_proper=False),
        sum(a[start:end]),
    )


def insert_block_before_last(
    spec: RecurrenceSpec, d: Decomposition, t: int
) -> Decomposition:
    """Insert the type-2 block of size ``t`` just before the last block.

    Exact inverse of :func:`remove_second_to_last_block`: length grows by
    the block length of ``t`` and the summand count by ``t``.  Inserting in
    front of a single-block string makes the new block the leading one, so
    ``t = 0`` then yields a padded string.
    """
    if not 0 <= t < spec.size:
        raise SizeOutOfRange(f"block size {t} outside [0, {spec.size - 1}]")
    a = d.coefficients
    last = len(a) - _decomposition_lengths(spec, d)[-1]  # where the last block starts
    block = block_catalog(spec).type2_by_size[t].coefficients
    return Decomposition(spec, a[:last] + block + a[last:], require_proper=False)
