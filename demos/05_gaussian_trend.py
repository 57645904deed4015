#!/usr/bin/env python3
"""Shape of the summand-count distribution as the index grows.

The standardized distribution drifts toward a Gaussian: skewness and
excess kurtosis shrink with n.  Both are computed from exact central
moments, so the trend below is arithmetic fact, not sampling noise.
Two of the recurrences are exactly symmetric at every index (their third
central moment is identically zero), which is why their skewness column
is exactly 0 from the start.
"""

from plrs import SummandTable, gaussian_diagnostics, validate_spec

NS = [25, 50, 100, 200, 400]

for coeffs in [(1, 1), (2, 2, 0, 2), (1, 2), (3, 0, 1)]:
    spec = validate_spec(coeffs)
    engine = SummandTable(spec)
    rows = gaussian_diagnostics(engine, NS)
    print(f"recurrence {spec}")
    print(f"  {'n':>5} {'skewness':>12} {'excess kurtosis':>16}")
    for r in rows:
        print(f"  {r.n:>5} {r.skewness:>12.6f} {r.excess_kurtosis:>16.6f}")
    exact_zero = all(r.skewness_squared == 0 for r in rows)
    if exact_zero:
        print("  (skewness is exactly zero: the distribution is symmetric)")
    print()

print("kurtosis magnitudes fall roughly like 1/n; halving n doubles them")
