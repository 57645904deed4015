"""The spec box: every small recurrence verified end to end, as a net.

The box holds every spec with L <= 3 and c_i <= 3, c_1 and c_L at least 1,
except ``(1,)``, which ``validate_spec`` rejects as degenerate: 47 specs.
At n_max 120 the verify chain on each of them ends with the same shape,
checked exactly on ``Fraction``s: no Y index fails, so N = 2L + 1; c comes
from the slope term; every base case sits at least 2c (exactly 2c on
``2``); and Var[Y_n] stays at least 4 times the Y bound (exactly 4 on
``2`` and ``3``).
"""

from fractions import Fraction
from itertools import product

from plrs import SummandTable, validate_spec, verify_variance_bound

SLOPE_TERM = "a_est^2/(2*S*L)"
SPEC_BOX = [
    coeffs
    for L in (1, 2, 3)
    for coeffs in product(range(4), repeat=L)
    if coeffs[0] >= 1 and coeffs[-1] >= 1 and coeffs != (1,)
]


def test_spec_box_verifies_with_room_to_spare():
    assert len(SPEC_BOX) == 47
    for coeffs in SPEC_BOX:
        spec = validate_spec(coeffs)
        L, S = spec.length, spec.size
        report = verify_variance_bound(SummandTable(spec), 120)
        c = report.choice.value
        assert report.all_pass, coeffs
        assert report.threshold_N == 2 * L + 1, coeffs
        assert report.choice.source == SLOPE_TERM, coeffs
        assert c == report.growth.a_est**2 / (2 * S * L), coeffs
        base = min(v for source, v in report.choice.candidates if source != SLOPE_TERM)
        assert base >= 2 * c and (base == 2 * c) == (coeffs == (2,)), coeffs
        least_y = min(Fraction(num, den) for num, den in report.y_pairs.values())
        ratio = least_y / report.y_bound
        assert ratio >= 4 and (ratio == 4) == (coeffs in ((2,), (3,))), coeffs
