#!/usr/bin/env python3
"""The linear variance lower bound, end to end.

The mean summand count grows linearly; proving the variance does too is
the hard part.  The verification chain: estimate the slope a by
differencing exact means, sweep the centered second-to-last-block
statistic Y until its variance clears a^2/(2S), take the explicit
constant c from the base cases and the slope term, and check
Var[K_n] >= c*n everywhere with exact rational comparisons.
"""

from plrs import (
    SummandTable,
    compute_c,
    estimate_growth,
    find_threshold_N,
    validate_spec,
    verify_variance_bound,
    y_statistics,
)

for coeffs in [(1, 1), (2, 2, 0, 2), (1, 2), (3, 0, 1)]:
    spec = validate_spec(coeffs)
    engine = SummandTable(spec)
    n_max = 200
    growth = estimate_growth(engine, n_max)
    print("=" * 72)
    print(f"recurrence {spec}  (S={spec.size}, L={spec.length})")
    print(f"  slope a ~ {float(growth.a_est):.10f}   "
          f"intercept b ~ {float(growth.b_est):.10f}")
    print(f"  differencing gap: {float(growth.convergence_gap):.3e}")

    N = find_threshold_N(engine, growth, n_max)
    bound = growth.a_est**2 / (2 * spec.size)
    print(f"  Var[Y_n] > a^2/(2S) = {float(bound):.6f} for all n > N = {N}")
    for n in (N + 1, 50, 150):
        _, var_y = y_statistics(engine, n, growth)
        print(f"    Var[Y_{n}] = {float(var_y):.6f}")

    choice = compute_c(engine, growth, N)
    print(f"  c = {float(choice.value):.8f}  (minimum over {len(choice.candidates)}"
          f" candidates, achieved by {choice.source})")

    report = verify_variance_bound(engine, n_max)
    worst = min(report.per_n, key=lambda row: row.margin)
    print(f"  Var[K_n] >= c*n for all {spec.length} < n <= {n_max}: "
          f"{'holds' if report.all_pass else 'FAILS'}")
    print(f"  thinnest margin {float(worst.margin):.6f} at n = {worst.n}")
print("=" * 72)
print("every bound held with exact-rational comparisons on the left side")
