#!/usr/bin/env python3
"""Greedy decompositions, legality, and surgery on the second-to-last block.

Every positive integer has exactly one legal representation over a
recurrence's terms.  The greedy algorithm finds it; the block parse
explains it; and removing/inserting the second-to-last block hops between
representations of different lengths while staying legal.
"""

from plrs import (
    SequenceTable,
    decompose,
    insert_block_before_last,
    is_legal,
    parse_blocks,
    remove_second_to_last_block,
    validate_spec,
    value,
)

print("--- Zeckendorf decomposition of 12 over the Fibonacci terms ---")
fib = validate_spec((1, 1))
table = SequenceTable(fib, 10)
d = decompose(table, 12)
print("terms:", table.terms(6))
print(f"12 -> coefficients {d}  (most significant first)")
print(f"      blocks {parse_blocks(fib, d)}, {d.summand_count} summands")

shorter, removed_size = remove_second_to_last_block(fib, d)
print(f"remove the second-to-last block (size {removed_size}):")
print(f"      {parse_blocks(fib, shorter)} = {value(table, shorter)}")
grown = insert_block_before_last(fib, shorter, removed_size)
print(f"insert it back: {parse_blocks(fib, grown)} = {value(table, grown)}")
assert grown == d
print()

print("--- the same moves on a length-4 recurrence ---")
h = validate_spec((2, 2, 0, 2))
ht = SequenceTable(h)
d601 = decompose(ht, 601)
print(f"601 -> {parse_blocks(h, d601)}  ({d601.summand_count} summands)")
shorter601, t = remove_second_to_last_block(h, d601)
print(f"after removing the size-{t} block: {parse_blocks(h, shorter601)}"
      f" = {value(ht, shorter601)}")
print()

print("--- legality is decidable with a reason ---")
for coeffs in [(1, 0, 1), (1, 1), (0, 1), (2, 2, 0)]:
    verdict = is_legal(h if len(coeffs) == 3 and coeffs[0] == 2 else fib, coeffs)
    state = "legal" if verdict else f"illegal ({verdict.reason} at {verdict.position})"
    print(f"  {coeffs}: {state}")
print()

print("--- round trip sanity over a block of integers ---")
count = sum(
    value(table, decompose(table, m)) == m for m in range(1, 2001)
)
print(f"value(decompose(m)) == m for {count}/2000 integers")
