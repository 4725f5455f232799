"""Exact rational numbers: the stdlib ``fractions.Fraction``.

``Poly`` keeps integer numerators over one denominator, so ``Rat``
only appears where a single rational leaves a polynomial (a
coefficient, a value, a resultant); values are kept reduced with a
positive denominator and expose .numerator/.denominator.
"""

from fractions import Fraction

Rat = Fraction
BACKEND = "fractions"
ZERO = Rat(0)
ONE = Rat(1)


def rat(num, den=1):
    """Coerce num/den to a rational.

    >>> rat(6, 4) == rat(3, 2)
    True
    """
    if den == 1:
        return Rat(num)
    return Rat(num) / Rat(den)
