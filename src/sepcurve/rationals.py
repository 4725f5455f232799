"""Exact rational arithmetic backend.

Every kernel in this package works over Q and only needs field
operations plus exact reduction.  By default we use gmpy2.mpq
(C-accelerated) when it imports, falling back to the stdlib
fractions.Fraction.  Set SEPCURVE_RATIONAL_BACKEND=gmpy2 or
=fractions to force a backend; anything else (or unset) means auto.

Both types keep values reduced with a positive denominator, compare
equal across backends, and expose .numerator/.denominator.
"""

import os
from fractions import Fraction

_requested = os.environ.get("SEPCURVE_RATIONAL_BACKEND", "auto").strip().lower()

if _requested not in ("auto", "gmpy2", "fractions", ""):
    raise RuntimeError(
        f"SEPCURVE_RATIONAL_BACKEND={_requested!r} not understood "
        "(use auto, gmpy2 or fractions)"
    )

if _requested in ("auto", "gmpy2", ""):
    try:
        from gmpy2 import mpq as Rat

        BACKEND = "gmpy2"
    except ImportError:
        if _requested == "gmpy2":
            raise
        Rat = Fraction
        BACKEND = "fractions"
else:
    Rat = Fraction
    BACKEND = "fractions"

ZERO = Rat(0)
ONE = Rat(1)


def rat(num, den=1):
    """Coerce num/den to the active rational type.

    >>> rat(6, 4) == rat(3, 2)
    True
    """
    if den == 1:
        if isinstance(num, str):
            return Rat(Fraction(num))
        return Rat(num)
    return Rat(num) / Rat(den)
