"""Detection of linear factors y = s*x + t of P(x) - Q(y).

Any such factor needs equal degrees n.  Centre both sides:
P(x) = P~(x + a) and Q(y) = Q~(y + b) with a = p_(n-1)/(n*p_n) and
b = q_(n-1)/(n*q_n), so that neither P~ nor Q~ has a u^(n-1) term.
Then y = s*x + t is a factor exactly when P~(u) = Q~(s*u) and
t = s*a - b (Kozen & Landau, J. Symb. Comp. 7, 1989), that is when

* p~_0 = q~_0 and p~_k = 0 exactly when q~_k = 0, and
* s^n = p_n/q_n and s^k = p~_k/q~_k for every other k.

The search runs on integer numerators.  For P = sum N_k x^k / D and
w = n*N_n the centring shift is a = N_(n-1)/w.  The numerators are
first shifted by the integer b nearest a, at their own size, which
leaves a - b = u/w with |u| <= |w|/2.  With N' the shifted numerators,
C(y) = sum N'_k * w^(n-k) * y^k has C(w*x) = D * w^n * P(x - b), and
the integer Taylor shift A(y) = C(y - u) gives p~_k = A_k / (D * w^(n-k)).
No rational is built: the centred constants, read first by Horner on
the numerators, the centred coefficients and the ratios p~_k/q~_k are
compared by cross-multiplication, with the factors that the two sides'
D * w^(n-k) share divided out once.

The common roots of z^e - c and z^k - r are all the roots of
z^gcd(e, k) - c^u*r^v (u*e + v*k = gcd(e, k)) when
c^(k/gcd) = r^(e/gcd), and none otherwise.  Folding that rule over k
gives the scales as the roots of one monic binomial, from integer gcds
on exponents and rational powers; c is reduced only when e drops, at
most 1 + log2 n times.  Before a witness is returned the claim
P(x) = Q(z*x + t(z)) in Q[z]/(z^e - c) is re-verified exactly from the
centred numerators alone, without the fold: the scalings by w^(n-k)
and the denominators D * w^(n-k) are rebuilt from P and Q, not taken
from the search, and both shifts are undone, so a reported witness is
always sound.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate
from math import gcd
from operator import mul

from .critical import PolynomialPair
from .rationals import ONE, ZERO, Rat, rat
from .rpoly import Poly, taylor_shift


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


def _centred_constant(p: Poly) -> int:
    """A_0 = sum N_k * (-u)^k * w^(n-k) = D * w^n * P(-a): p~_0 times
    D * w^n, by Horner on the numerators at -a = -u / w, homogeneous in
    w, with u = num_(n-1)."""
    num, n = p.num, p.degree
    acc, w_k, u, w = num[n], 1, -num[n - 1], n * num[n]
    for c in reversed(num[:-1]):
        w_k *= w
        acc = acc * u + c * w_k
    return acc


def _centred(p: Poly) -> tuple:
    """The centred form (P, N, A) of P = sum num_k x^k / D.  N are the
    numerators of P(x - b) for the integer b nearest the centring shift
    a = num_(n-1) / w, w = n * num_n, so a - b = u / w with u = N_(n-1)
    and |u| <= |w| / 2; with C_k = N_k * w^(n-k), C(w*x) = D * w^n *
    P(x - b), and A(y) = C(y - u), so p~_k = A_k / (D * w^(n-k)).  The
    shift by b runs on the unscaled numerators, so the scaled C is
    shifted by u alone."""
    n = p.degree
    w = n * p.num[n]
    b, r = divmod(p.num[-2], w)
    nums = taylor_shift(p.num, -(b + (2 * abs(r) > abs(w))))
    w_pows = list(accumulate([1] + [w] * n, mul))
    return p, nums, taylor_shift([c * w_pows[n - k] for k, c in enumerate(nums)], -nums[-2])


def _denominators(p: Poly, q: Poly) -> tuple:
    """(dens, dens'), low to high: D * w^(n-k) and D' * w'^(n-k) with
    the common factors of D and D' and of w and w' divided out, so that
    p~_k / q~_k = (A_k * dens'_k) / (B_k * dens_k)."""
    n = p.degree
    w_p, w_q = n * p.num[n], n * q.num[n]
    g, h = gcd(w_p, w_q), gcd(p.den, q.den)
    return tuple(
        list(accumulate([d // h] + [w // g] * n, mul))[::-1] for d, w in ((p.den, w_p), (q.den, w_q))
    )


def _scale_binomial(a: list, dp: list, b: list, dq: list):
    """(e, c) such that the scales s with P~(u) = Q~(s*u) are exactly
    the roots of z^e - c, or None when there are none, for the centred
    numerators A and B of equal degree n, with p~_0 = q~_0 and the
    denominators from :func:`_denominators`.  Each ratio
    p~_k / q~_k = (A_k * dens'_k) / (B_k * dens_k) stays a pair of
    integers, checked against c by cross-multiplication; c is reduced
    only when e drops."""
    n = len(a) - 1
    if any(bool(a[k]) != bool(b[k]) for k in range(1, n - 1)):
        return None
    e, c = n, Rat(a[n] * dq[n], b[n] * dp[n])
    for k in range(n - 2, 0, -1):
        if not b[k]:
            continue
        rn, rd = a[k] * dq[k], b[k] * dp[k]
        u, v = _bezout(e, k)
        g = u * e + v * k
        if c.numerator ** (k // g) * rd ** (e // g) != rn ** (e // g) * c.denominator ** (k // g):
            return None
        if g < e:
            e, c = g, c**u * Rat(rn, rd) ** v
    return e, c


def _mod_binomial(terms, e: int, c) -> Poly:
    """The sum of coefficient * z^k over the (k, coefficient) terms,
    reduced modulo z^e - c by z^k = c^(k // e) * z^(k % e)."""
    out = [ZERO] * e
    for k, ck in terms:
        out[k % e] += ck * c ** (k // e)
    return Poly(out)


def _unshifted_scales(side: Poly, nums: list, centred: list):
    """D * w^(n-k), low to high, for the centred form (P, N, A) of
    P = side when it shifts back to P, else None.  Everything is
    rebuilt from P, N and A alone: C_k = N_k * w^(n-k) with
    w = n * num_n, then A(y + N_(n-1)) = C(y), and N shifted back by
    the integer b = (num_(n-1) - N_(n-1)) / w gives P's numerators."""
    n, w = side.degree, side.degree * side.num[-1]
    w_pows = list(accumulate([1] + [w] * n, mul))[::-1]
    if taylor_shift(centred, nums[-2]) != [c * w_k for c, w_k in zip(nums, w_pows)]:
        return None
    if taylor_shift(nums, (side.num[-2] - nums[-2]) // w) != list(side.num):
        return None
    return [side.den * w_k for w_k in w_pows]


def _verify(p_centred: tuple, q_centred: tuple, e: int, c, t: Poly) -> bool:
    """P(x) = Q(z*x + t(z)) in Q[z]/(z^e - c), checked from the centred
    forms (P, N, A) and (Q, N', B) without the exponent fold, and
    without the search's scalings: both shifts are undone by
    :func:`_unshifted_scales`, so P~(x + a) = P and Q~(y + b) = Q with
    p~_k = A_k / (D * w^(n-k)) and q~_k = B_k / (D' * w'^(n-k)).  Then
    z^k = c^(k // e) * z^(k % e) turns p~_k = q~_k * z^k into
    A_k = B_k = 0 when e does not divide k and
    A_k * D' * w'^(n-k) * den(c)^j = B_k * D * w^(n-k) * num(c)^j for
    k = j*e, and t = z*a - b mod z^e - c; together these give
    P(x) = Q~(z*(x + a)) = Q~(z*x + t + b) = Q(z*x + t)."""
    (p, _, a), (q, _, b) = p_centred, q_centred
    dp, dq = _unshifted_scales(*p_centred), _unshifted_scales(*q_centred)
    if dp is None or dq is None:
        return False
    cn_j = cd_j = 1  # num(c)^j and den(c)^j at k = j*e
    for k, (ak, bk) in enumerate(zip(a, b)):
        if k % e:
            if ak or bk:
                return False
            continue
        if ak * dq[k] * cd_j != bk * dp[k] * cn_j:
            return False
        cn_j, cd_j = cn_j * c.numerator, cd_j * c.denominator
    shift_p = Rat(p.num[-2], p.degree * p.num[-1])
    shift_q = Rat(q.num[-2], q.degree * q.num[-1])
    return _mod_binomial(enumerate((t - Poly((-shift_q, shift_p))).coeffs), e, c).is_zero


def find_linear_factor(pair: PolynomialPair):
    """Witness for a linear factor of P(x) - Q(y), or None.

    Unequal degrees never admit one (a factor y = s*x + t would force
    equal leading behavior), so only n == m is searched.
    """
    if pair.n != pair.m:
        return None
    p, q, n = pair.p, pair.q, pair.n
    dp, dq = _denominators(p, q)
    if _centred_constant(p) * dq[0] != _centred_constant(q) * dp[0]:
        return None  # p~_0 != q~_0, so no scale matches: spare both centrings
    p_centred, q_centred = _centred(p), _centred(q)
    binomial = _scale_binomial(p_centred[2], dp, q_centred[2], dq)
    if binomial is None:
        return None
    e, c = binomial

    shift_num = _mod_binomial(((1, p.coeff(n - 1)), (n, -q.coeff(n - 1))), e, c)
    shift_den = rat(n) * p.lc
    if not _verify(p_centred, q_centred, e, c, shift_num * (ONE / shift_den)):
        raise ArithmeticError("linear-factor witness failed its exact re-verification")

    return LinearFactorWitness(Poly.monomial(1, e) - Poly.constant(c), shift_num, shift_den)
