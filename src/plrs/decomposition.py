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
means the string is illegal at that point.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

from .errors import (
    IllegalDecomposition,
    NonPositiveInput,
    SizeOutOfRange,
    SpecMismatch,
    TooFewBlocks,
)
from .recurrence import (
    Block,
    BlockKind,
    RecurrenceSpec,
    SequenceTable,
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


def _scan(spec: RecurrenceSpec, coeffs, require_positive_leading: bool):
    """Parse ``coeffs`` into blocks.

    Returns ``(blocks, None)`` on success or ``(None, LegalityResult)`` on
    failure.  Positions in failures are 0-based indices into ``coeffs``.
    """
    c = spec.coefficients
    L = spec.length
    n = len(coeffs)
    if n == 0:
        return None, LegalityResult(False, "empty coefficient string", None)
    for i, a in enumerate(coeffs):
        if a < 0:
            return None, LegalityResult(False, "negative coefficient", i)
    if require_positive_leading and coeffs[0] < 1:
        return None, LegalityResult(False, "leading coefficient must be positive", 0)

    blocks: list[Block] = []
    pos = 0
    while pos < n:
        i = 0
        while True:
            if i == L:
                return None, LegalityResult(
                    False,
                    "matches the full coefficient prefix with no strict drop",
                    pos,
                )
            if pos + i == n:
                # String ends mid-prefix: a type-1 block (length i < L).
                blocks.append(Block(BlockKind.TYPE1, tuple(coeffs[pos:])))
                return blocks, None
            a = coeffs[pos + i]
            if a > c[i]:
                return None, LegalityResult(
                    False, "coefficient exceeds the recurrence coefficient", pos + i
                )
            if a < c[i]:
                blocks.append(
                    Block(BlockKind.TYPE2, tuple(coeffs[pos : pos + i + 1]))
                )
                pos += i + 1
                break
            i += 1
    return blocks, None


def is_legal(spec: RecurrenceSpec, coefficients) -> LegalityResult:
    """Check whether a coefficient string is a legal decomposition.

    The leading coefficient must be positive; the rest of the string must
    parse into blocks.  Malformed input (negative entries and the like) is
    reported as illegal with a reason, never raised.
    """
    coeffs = list(coefficients)
    _, failure = _scan(spec, coeffs, require_positive_leading=True)
    return failure if failure is not None else LegalityResult(True)


@dataclass(frozen=True)
class Decomposition:
    """An immutable, validated coefficient string for a given spec.

    ``coefficients[0]`` multiplies the largest term ``H_m``.  Construction
    validates the block grammar and raises :class:`IllegalDecomposition`
    otherwise.  Decompositions of positive integers always start with a
    positive coefficient; block insertion in front of a single-block string
    can produce a *padded* string with a leading size-0 block, in which case
    ``is_proper`` is False.  Pass ``require_proper=False`` to build one.
    """

    spec: RecurrenceSpec
    coefficients: tuple[int, ...]
    require_proper: InitVar[bool] = True

    def __post_init__(self, require_proper: bool):
        object.__setattr__(
            self, "coefficients", tuple(int(a) for a in self.coefficients)
        )
        _, failure = _scan(
            self.spec, self.coefficients, require_positive_leading=require_proper
        )
        if failure is not None:
            raise IllegalDecomposition(
                f"{failure.reason}"
                + (f" (position {failure.position})" if failure.position is not None else "")
            )

    @classmethod
    def _trusted(cls, spec: RecurrenceSpec, coefficients: tuple[int, ...]):
        """Construct without re-scanning; only for strings a generator just
        built block-by-block (the validation would re-derive the same parse)."""
        self = object.__new__(cls)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "coefficients", coefficients)
        return self

    @property
    def m(self) -> int:
        """Length of the coefficient string."""
        return len(self.coefficients)

    @property
    def summand_count(self) -> int:
        """Total number of summands, the coefficient sum."""
        return sum(self.coefficients)

    @property
    def is_proper(self) -> bool:
        """True when the leading coefficient is positive."""
        return self.coefficients[0] >= 1

    def to_text(self) -> str:
        """Space-separated coefficients, most significant first."""
        return " ".join(str(a) for a in self.coefficients)

    @classmethod
    def from_text(cls, spec: RecurrenceSpec, text: str) -> "Decomposition":
        return cls(spec, tuple(int(part) for part in text.split()))

    def __str__(self) -> str:
        return self.to_text()


@dataclass(frozen=True)
class BlockParse:
    """Ordered blocks partitioning a coefficient string left to right."""

    blocks: tuple[Block, ...]

    @property
    def coefficients(self) -> tuple[int, ...]:
        out: list[int] = []
        for b in self.blocks:
            out.extend(b.coefficients)
        return tuple(out)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(b.size for b in self.blocks)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.blocks)


def decompose(table: SequenceTable, m: int) -> Decomposition:
    """The legal decomposition of the positive integer ``m``, greedily.

    Each position, largest term first, takes the largest digit that fits
    but at most ``c_j``, j counting the positions of the current block: a
    digit equal to ``c_j`` continues the block, a smaller one closes it.
    (Uncapped greedy writes 8 = H_4 + H_3 for ``1,0,2``, which is not
    legal.)  The result round-trips through :func:`value` and passes
    :func:`is_legal`; the table grows on demand.
    """
    if m < 1:
        raise NonPositiveInput(f"no decomposition for {m}; need a positive integer")
    H = table.terms(table.extend_beyond(m))
    c = table.spec.coefficients
    coeffs = []
    rem, j = m, 0
    for w in reversed(H):  # H_n, largest first
        a = rem // w
        if a >= c[j]:
            a, j = c[j], j + 1
        else:
            j = 0
        rem -= a * w
        coeffs.append(a)
    assert rem == 0  # the legal length-r tails cover [0, H_{r+1}) exactly
    return Decomposition._trusted(table.spec, tuple(coeffs))


def value(table: SequenceTable, d: Decomposition) -> int:
    """Exact value ``a_1 H_m + ... + a_m H_1`` of a decomposition."""
    if d.spec != table.spec:
        raise SpecMismatch(
            f"decomposition spec {d.spec} does not match table spec {table.spec}"
        )
    H = table.terms(d.m)
    return sum(a * H[d.m - 1 - i] for i, a in enumerate(d.coefficients))


def parse_blocks(spec: RecurrenceSpec, d: Decomposition) -> BlockParse:
    """Split a decomposition into its unique block sequence."""
    if d.spec != spec:
        raise SpecMismatch("decomposition belongs to a different spec")
    blocks, failure = _scan(spec, d.coefficients, require_positive_leading=False)
    if failure is not None:  # pragma: no cover - constructor already validated
        raise IllegalDecomposition(failure.reason or "illegal decomposition")
    return BlockParse(tuple(blocks))


def second_to_last_block_size(spec: RecurrenceSpec, coefficients) -> int:
    """Size of the second-to-last block of a legal string, without building
    the block objects.

    Streaming-friendly version of ``parse_blocks(...).blocks[-2].size`` for
    tallies over whole outcome spaces; the two agree by the parse/serialize
    contract (tested over full enumerations).  Raises
    :class:`TooFewBlocks` on single-block strings and
    :class:`IllegalDecomposition` on strings that do not parse.
    """
    c = spec.coefficients
    L = spec.length
    n = len(coefficients)
    prev_size = -1
    last_size = -1
    pos = 0
    while pos < n:
        i = 0
        size = 0
        while True:
            if i == L:
                raise IllegalDecomposition(
                    f"matches the full coefficient prefix with no strict drop "
                    f"(position {pos})"
                )
            if pos + i == n:  # type-1 block closes the string
                return _second_of(last_size)
            a = coefficients[pos + i]
            if a > c[i]:
                raise IllegalDecomposition(
                    f"coefficient exceeds the recurrence coefficient (position {pos + i})"
                )
            size += a
            if a < c[i]:
                prev_size, last_size = last_size, size
                pos += i + 1
                break
            i += 1
    return _second_of(prev_size)


def _second_of(prev_size: int) -> int:
    if prev_size < 0:
        raise TooFewBlocks("need at least two blocks")
    return prev_size


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
    parse = parse_blocks(spec, d)
    if len(parse.blocks) < 2:
        raise TooFewBlocks("need at least two blocks to remove the second to last")
    removed = parse.blocks[-2]
    kept = parse.blocks[:-2] + (parse.blocks[-1],)
    coeffs: list[int] = []
    for b in kept:
        coeffs.extend(b.coefficients)
    return (
        Decomposition(spec, tuple(coeffs), require_proper=False),
        removed.size,
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
    catalog = block_catalog(spec)
    parse = parse_blocks(spec, d)
    new_block = catalog.type2_by_size[t]
    coeffs: list[int] = []
    for b in parse.blocks[:-1]:
        coeffs.extend(b.coefficients)
    coeffs.extend(new_block.coefficients)
    coeffs.extend(parse.blocks[-1].coefficients)
    return Decomposition(spec, tuple(coeffs), require_proper=False)
