#!/usr/bin/env python3
"""Tour of recurrence specs, exact sequence terms, and block catalogs.

A positive linear recurrence is fixed by coefficients c_1..c_L with the
first and last positive.  Terms start at H_1 = 1 with a ramp-up rule for
the first L indices, then follow the full recurrence; everything is exact
integer arithmetic, so the terms below are correct at any size.
"""

from plrs import SequenceTable, block_catalog, validate_spec

EXAMPLES = [
    ("Zeckendorf / Fibonacci", (1, 1)),
    ("size 6, length 4, with an interior zero", (2, 2, 0, 2)),
    ("binary numbers in disguise", (1, 2)),
    ("sparse length-3 recurrence", (3, 0, 1)),
    ("plain base 4", (4,)),
]

for title, coeffs in EXAMPLES:
    spec = validate_spec(coeffs)
    print("=" * 72)
    print(f"{title}: coefficients {spec} (size S={spec.size}, length L={spec.length})")
    table = SequenceTable(spec, 12)
    print("  first terms:", ", ".join(str(t) for t in table.terms(12)))

    cat = block_catalog(spec)
    t1 = " ".join(str(b) for b in cat.type1_blocks) or "(none)"
    print(f"  type-1 blocks (may only close a string): {t1}")
    print("  type-2 blocks, one per size t:")
    for b in cat.type2_by_size:
        print(f"    size {b.size}: {b}  (length {b.length})")
    print("  the length function t -> len:", dict(enumerate(cat.length_table)))
    print()

print("=" * 72)
print("A 600-digit term, computed exactly (coefficients 2,2,0,2, index 1400):")
big = SequenceTable(validate_spec((2, 2, 0, 2)), 1400).term(1400)
print(f"  H_1400 has {len(str(big))} digits")
print(f"  leading digits: {str(big)[:60]}...")
