"""Detection of linear factors y = s*x + t of P(x) - Q(y).

Any such factor needs equal degrees n.  Centre both sides:
P(x) = P~(x + a) and Q(y) = Q~(y + b) with a = p_(n-1)/(n*p_n) and
b = q_(n-1)/(n*q_n), so that neither P~ nor Q~ has a u^(n-1) term.
Then y = s*x + t is a factor exactly when P~(u) = Q~(s*u) and
t = s*a - b (Kozen & Landau, J. Symb. Comp. 7, 1989), that is when

* p~_0 = q~_0 and p~_k = 0 exactly when q~_k = 0, and
* s^n = p_n/q_n and s^k = p~_k/q~_k for every other k.

The common roots of z^e - c and z^k - r are all the roots of
z^gcd(e, k) - c^u*r^v (u*e + v*k = gcd(e, k)) when
c^(k/gcd) = r^(e/gcd), and none otherwise.  Folding that rule over k
gives the scales as the roots of one monic binomial, from integer gcds
on exponents and rational powers.  Before a witness is returned the
claim P(x) = Q(z*x + t(z)) in Q[z]/(g) is re-verified exactly from the
centred forms, without the fold, so a reported witness is always sound.
"""

from __future__ import annotations

from collections import namedtuple

from .critical import PolynomialPair
from .rationals import ONE, Rat, rat
from .rpoly import Poly


class LinearFactorWitness(
    namedtuple("LinearFactorWitness", "scale_minpoly shift_numerator shift_denominator")
):
    """A conjugate family of linear factors.

    Each root s of ``scale_minpoly`` (monic, squarefree, nonzero roots)
    yields the factor y - (s*x + t) with
    t = shift_numerator(s) / shift_denominator, and then
    P(x) = Q(s*x + t) identically; both polynomials are Polys and the
    denominator a nonzero rational.
    """

    __slots__ = ()

    @property
    def family_size(self) -> int:
        return self.scale_minpoly.degree

    @property
    def description(self) -> str:
        """The family in words, formatted only when read.  Coefficients
        past the int-to-str digit limit cannot be printed; then the text
        names only the family size, as the classifier's trace does."""
        family = f"family of {self.family_size} linear factor(s) y - (s*x + t)"
        try:
            return (
                f"{family}: s any root of {self.scale_minpoly.to_string('s')}, "
                f"t = ({self.shift_numerator.to_string('s')}) / ({self.shift_denominator})"
            )
        except ValueError:  # the int-to-str digit limit
            return f"{family}: coefficients past the int-to-str digit limit"


def _bezout(e: int, k: int):
    """(u, v) with u*e + v*k = gcd(e, k)."""
    u0, v0, u1, v1 = 1, 0, 0, 1
    while k:
        quo, (e, k) = e // k, (k, e % k)
        u0, u1 = u1, u0 - quo * u1
        v0, v1 = v1, v0 - quo * v1
    return u0, v0


def _scale_binomial(pt: Poly, qt: Poly):
    """(e, c) such that the scales s with P~(u) = Q~(s*u) are exactly
    the roots of z^e - c, or None when there are none, for centred P~
    and Q~ of equal degree n with p~_0 = q~_0.  Each ratio p~_k / q~_k
    is formed once, cross-multiplied from the integer numerators."""
    pn, qn, n = pt.num, qt.num, pt.degree
    if any(bool(pn[k]) != bool(qn[k]) for k in range(1, n - 1)):
        return None

    def ratio(k):
        return Rat(pn[k] * qt.den, qn[k] * pt.den)

    e, c = n, ratio(n)
    for k in range(n - 2, 0, -1):
        if not qn[k]:
            continue
        r = ratio(k)
        u, v = _bezout(e, k)
        g = u * e + v * k
        if c ** (k // g) != r ** (e // g):
            return None
        e, c = g, c**u * r**v
    return e, c


def _centring_shift(p: Poly):
    """a with P(x) = P~(x + a) and no x^(n-1) term in P~."""
    return p.coeff(p.degree - 1) / (p.degree * p.lc)


def _verify(p: Poly, p_centred: tuple, q: Poly, q_centred: tuple, g: Poly, t: Poly) -> bool:
    """P(x) = Q(z*x + t(z)) in Q[z]/(g), checked from the centred forms
    (P~, a) and (Q~, b) without the exponent fold: P~(x + a) = P and
    Q~(y + b) = Q, then p~_k = q~_k * z^k and t = z*a - b mod g, which
    give P(x) = Q~(z*(x + a)) = Q~(z*x + t + b) = Q(z*x + t)."""
    (pt, a), (qt, b) = p_centred, q_centred
    if pt.shift_argument(a) != p or qt.shift_argument(b) != q:
        return False
    z_k = Poly.one()
    for k in range(p.degree + 1):
        if not (pt.coeff(k) - z_k * qt.coeff(k)).is_zero:
            return False
        z_k = (z_k * Poly.x()) % g
    return ((t - Poly((-b, a))) % g).is_zero


def find_linear_factor(pair: PolynomialPair):
    """Witness for a linear factor of P(x) - Q(y), or None.

    Unequal degrees never admit one (a factor y = s*x + t would force
    equal leading behavior), so only n == m is searched.
    """
    if pair.n != pair.m:
        return None
    p, q, n = pair.p, pair.q, pair.n
    a, b = _centring_shift(p), _centring_shift(q)
    if p(-a) != q(-b):  # p~_0 != q~_0, so no scale matches: spare both shifts
        return None
    p_centred, q_centred = (p.shift_argument(-a), a), (q.shift_argument(-b), b)
    binomial = _scale_binomial(p_centred[0], q_centred[0])
    if binomial is None:
        return None
    e, c = binomial
    g = Poly.monomial(1, e) - Poly.constant(c)

    shift_num = (
        Poly.constant(p.coeff(n - 1)) - Poly.monomial(q.coeff(n - 1), n - 1)
    ) * Poly.x() % g
    shift_den = rat(n) * p.lc
    if not _verify(p, p_centred, q, q_centred, g, shift_num * (ONE / shift_den)):
        raise ArithmeticError("linear-factor witness failed its exact re-verification")

    return LinearFactorWitness(g, shift_num, shift_den)
