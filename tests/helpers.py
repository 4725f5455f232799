"""Builders shared across the test modules."""

from sepcurve.classify import Outcome, Verdict
from sepcurve.critical import PairMatching
from sepcurve.rationals import ONE, ZERO, Rat
from sepcurve.rpoly import Poly


def poly_of(*coeffs):
    """Poly from ascending integer/rational coefficients."""
    return Poly([Rat(c) for c in coeffs])


def make_matching(matched, unm_p=(), unm_q=(), deg=None):
    """Synthetic PairMatching from matched (p, q) points plus unmatched
    multiplicity tuples; degrees default to the mass identity."""
    matched = tuple(sorted(matched, reverse=True))
    unm_p = tuple(sorted(unm_p, reverse=True))
    unm_q = tuple(sorted(unm_q, reverse=True))
    n = 1 + sum(p for p, _ in matched) + sum(unm_p)
    m = 1 + sum(q for _, q in matched) + sum(unm_q)
    if deg is not None:
        n, m = deg
    return PairMatching(
        deg_p=n,
        deg_q=m,
        matched_points=matched,
        unmatched_p_points=unm_p,
        unmatched_q_points=unm_q,
        p_multiset=tuple(sorted([p for p, _ in matched] + list(unm_p), reverse=True)),
        q_multiset=tuple(sorted([q for _, q in matched] + list(unm_q), reverse=True)),
    )


def hyperbolic_verdict(rule, matching):
    """Synthetic Hyperbolic verdict for exercising the form emitters."""
    return Verdict(outcome=Outcome.HYPERBOLIC, rule=rule, pair=None, matching=matching)


def reference_gcd(a, b):
    """Monic gcd by Euclid over Q, each remainder made monic: the
    reference the integer kernel is compared against."""
    if a.is_zero and b.is_zero:
        return Poly.zero()
    while not b.is_zero:
        a, b = b, (a % b)
        if not b.is_zero:
            b = b.monic()
    return a.monic()


def reference_resultant(a, b):
    """Resultant by the Euclidean remainder sequence over Q, with
    Res(A, B) = (-1)^(deg A * deg B) * lc(B)^(deg A - deg R) * Res(B, R)
    for R = A mod B and Res(A, c) = c^deg A: the reference the integer
    kernel is compared against."""
    if a.is_zero or b.is_zero:
        return ZERO
    acc = ONE
    while True:
        if b.degree == 0:
            return acc * b.lc**a.degree
        if a.degree == 0:
            return acc * a.lc**b.degree
        r = a % b
        if r.is_zero:
            return ZERO
        if (a.degree * b.degree) % 2:
            acc = -acc
        acc *= b.lc ** (a.degree - r.degree)
        a, b = b, r
