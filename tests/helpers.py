"""Builders shared across the test modules."""

from sepcurve.classify import Outcome, Verdict
from sepcurve.critical import PairMatching
from sepcurve.rationals import Rat
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
