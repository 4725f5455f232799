"""Pinned and randomized curve instances for the test and selftest suites.

The pinned pairs hit each exceptional low-genus case exactly once, plus
one representative for each hyperbolicity rule.  The randomizers apply
aggregate-preserving transforms (inner affine substitution, outer value
rescaling shared by both sides), so a pinned verdict stays valid on
every randomized image.
"""

from __future__ import annotations

import random

from .critical import PolynomialPair
from .parsepoly import parse_poly
from .rationals import Rat, rat
from .rpoly import Poly

# One concrete (P, Q) per exceptional case.  The case-7 instance also
# has a linear factor (it is a disguised conjugate family), so the
# classifier reports case 1 for it; matching_case_ids lists 7.
_CASE_SOURCES = {
    1: ("x^3", "x^3"),
    2: ("x^3 - 3*x", "x^3"),
    3: ("x^4", "3*x^4 - 16*x^3 + 18*x^2"),
    4: ("x^5", "4*x^5 - 5*x^4"),
    5: ("4*x^5 - 5*x^4", "4*x^5 - 10*x^4"),
    6: ("16*x^5 - 20*x^4 - 500*x^3", "12*x^5 - 195*x^4 + 750*x^3"),
    7: ("192*x^5 - 480*x^4 + 320*x^3", "6*x^5 - 30*x^4 + 40*x^3"),
}

CASE_IDS = tuple(sorted(_CASE_SOURCES))


def case_instance(case_id: int) -> PolynomialPair:
    """The pinned low-genus representative for one exceptional case."""
    if case_id not in _CASE_SOURCES:
        raise ValueError(f"no pinned instance for case {case_id}")
    ps, qs = _CASE_SOURCES[case_id]
    return PolynomialPair(parse_poly(ps), parse_poly(qs))


def theorem2_pair() -> PolynomialPair:
    """Sparse equal-degree pair decided by the gap criterion."""
    return PolynomialPair(parse_poly("x^7 + x"), parse_poly("x^7 + 2*x"))


def theorem1_pair() -> PolynomialPair:
    """Pair decided by the unmatched-count threshold (lhs 4 >= 3)."""
    return PolynomialPair(parse_poly("x^5"), parse_poly("x^5 + x"))


def inconclusive_pair() -> PolynomialPair:
    """Unequal degrees with every count below its threshold."""
    return PolynomialPair(parse_poly("x^5"), parse_poly("x^2"))


def theorem3_pair(k: int) -> PolynomialPair:
    """Fully matched equal-degree pair (degree k + 2) that escapes every
    exceptional case: the generic-rule family.

    P has critical points of multiplicities (k, 1) and Q of (k - 1, 2),
    with both critical values shared.
    """
    if k < 3:
        raise ValueError(f"family needs k >= 3 (got {k})")
    x = Poly.x()
    p = (k + 1) * x ** (k + 2) - (k + 2) * x ** (k + 1)
    q = -(
        rat(k * (k + 1), 2) * x ** (k + 2)
        - k * (k + 2) * x ** (k + 1)
        + rat((k + 1) * (k + 2), 2) * x**k
    )
    return PolynomialPair(p, q)


def compose_affine(p: Poly, a: Rat, b: Rat) -> Poly:
    """p(a*x + b).  Needs a != 0 to keep the degree."""
    if a == 0:
        raise ValueError("inner substitution must be invertible (a != 0)")
    return p.shift_argument(b).scale_argument(a)


def affine_image(
    pair: PolynomialPair,
    inner_p: tuple,
    inner_q: tuple,
    outer: tuple = (1, 0),
) -> PolynomialPair:
    """Transform (P, Q) to (u*P(a1 x + b1) + v, u*Q(a2 x + b2) + v).

    The inner substitutions permute critical points without touching
    values; the shared outer map rescales both value sets together.  So
    multiplicity aggregates, value coincidences, and hypothesis checks
    all carry over, and the classifier verdict is invariant.
    """
    u, v = outer
    if u == 0:
        raise ValueError("outer rescaling must be invertible (u != 0)")
    p = u * compose_affine(pair.p, *inner_p) + v
    q = u * compose_affine(pair.q, *inner_q) + v
    if pair.swapped:
        p, q = q, p
    return PolynomialPair(p, q)


def _nonzero_small(rng: random.Random, span: int = 3) -> Rat:
    num = rng.choice([k for k in range(-span, span + 1) if k != 0])
    den = rng.choice([1, 1, 1, 2, 3])
    return rat(num, den)


def _small(rng: random.Random, span: int = 3) -> Rat:
    return rat(rng.randint(-span, span), rng.choice([1, 1, 2]))


def random_affine_image(pair: PolynomialPair, rng: random.Random) -> PolynomialPair:
    """A random aggregate-preserving image of ``pair``."""
    inner_p = (_nonzero_small(rng), _small(rng))
    inner_q = (_nonzero_small(rng), _small(rng))
    outer = (_nonzero_small(rng), _small(rng, span=5))
    return affine_image(pair, inner_p, inner_q, outer)


def random_polynomial(
    rng: random.Random,
    min_degree: int = 2,
    max_degree: int = 10,
    *,
    sparse: bool | None = None,
) -> Poly:
    """Random rational polynomial with an exact degree in the range.

    Half the draws are sparse (a few monomials), half dense; both shapes
    exercise different gcd/resultant paths.
    """
    n = rng.randint(min_degree, max_degree)
    if sparse is None:
        sparse = rng.random() < 0.5
    coeffs = [rat(0)] * (n + 1)
    if sparse:
        support = rng.sample(range(n), k=min(n, rng.randint(1, 3)))
        for k in support:
            coeffs[k] = _small(rng, span=6)
    else:
        for k in range(n):
            coeffs[k] = _small(rng, span=6)
    coeffs[n] = _nonzero_small(rng, span=4)
    return Poly(coeffs)


def random_linear_factor_pair(rng: random.Random):
    """(A(a*x + b), A) plus the affine pieces: the curve picks up the
    linear factor a*x + b - y by construction."""
    a_poly = random_polynomial(rng, min_degree=2, max_degree=6)
    a, b = _nonzero_small(rng), _small(rng)
    return PolynomialPair(compose_affine(a_poly, a, b), a_poly), (a, b)
