"""Positive linear recurrence sequences and their legal decompositions.

Exact-arithmetic tools for the numeration systems attached to recurrences
``H_{n+1} = c_1 H_n + ... + c_L H_{n+1-L}`` (non-negative coefficients,
``c_1, c_L > 0``): sequence generation, block catalogs, greedy
decomposition and legality checking, exhaustive and sampled views of the
fixed-length outcome spaces, exact summand-count moments via a
raw-moment recurrence and full distributions via a polynomial dynamic
program, and a numerical verifier for the linear growth of the
summand-count variance.

Quick start::

    >>> from plrs import SequenceTable, validate_spec, decompose
    >>> spec = validate_spec([1, 1])          # Zeckendorf / Fibonacci
    >>> table = SequenceTable(spec, 10)
    >>> str(decompose(table, 12))
    '1 0 1 0 1'

The public surface is each submodule's ``__all__``, re-exported here.
"""

from . import decomposition, ensemble, errors, rationals, recurrence, theorem
from .errors import *  # noqa: F401,F403
from .rationals import *  # noqa: F401,F403
from .recurrence import *  # noqa: F401,F403
from .decomposition import *  # noqa: F401,F403
from .ensemble import *  # noqa: F401,F403
from .theorem import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (recurrence, decomposition, ensemble, theorem, rationals, errors)
    for name in module.__all__
]
