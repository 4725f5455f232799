"""Desk-scale plane-curve geometry for z0^n-homogenized P(x) - Q(y).

Everything here works from the matched critical points alone: each
matched pair of multiplicities (p, q) is one singular point of
multiplicity min(p, q) + 1, ordinary exactly when p = q (the lowest
local form is nu*(z0 - a*z2)^(p+1) + mu*(z1 - b*z2)^(q+1), which splits
into distinct lines iff the exponents agree).  In the equal-degree
regime there is no singularity at infinity, so these points are the
whole singular locus.

The genus computations deliberately cover only configurations that can
be certified by elementary arguments: smooth count, ordinary-point
deficiency for curves whose irreducibility follows from the
multiplicity pattern (or from low-degree exclusion of bad components),
and a single quadratic-transform adjustment.  Anything else is reported
as unsupported rather than guessed.
"""

from __future__ import annotations

import enum
from collections import namedtuple

from .critical import PairMatching, PolynomialPair


class GenusMethod(enum.Enum):
    """How a genus value was certified (or why none was)."""

    SMOOTH_COUNT = "SmoothCount"
    ORDINARY_DEFICIENCY = "OrdinaryDeficiency"
    QUADRATIC_TRANSFORM_ADJUSTED = "QuadraticTransformAdjusted"
    ASSERTED_IRREDUCIBLE_DEFICIENCY = "AssertedIrreducibleDeficiency"
    UNSUPPORTED = "Unsupported"


class DeficiencyReport(namedtuple("DeficiencyReport", "delta genus method")):
    """delta and, when certifiable, the genus.

    ``genus`` is the geometric genus when the curve is certified
    irreducible; for point patterns that force reducibility it is the
    genus of a certified low-genus component (0 for a line).  ``delta``
    is present whenever the degrees are equal, ``genus`` only when
    ``method`` is not UNSUPPORTED; both are ints or None.
    """

    __slots__ = ()


_OUT_OF_SCOPE = DeficiencyReport(delta=None, genus=None, method=GenusMethod.UNSUPPORTED)


def genus_from_matching(matching: PairMatching) -> DeficiencyReport:
    """delta = (n-1)(n-2)/2 - sum of k(k-1)/2 over the singular points,
    and the genus when one of the desk arguments certifies it.

    Supported configurations, in the order they are tried:

    - no singular points: smooth, genus = delta = (n-1)(n-2)/2;
    - exactly one singular point from a {1, 3} pair: one quadratic
      transform resolves it, genus = delta - 1;
    - exactly one singular point from an {n-2, n-1} pair: delta is 0
      and irreducibility is accepted for this configuration (the local
      expansion argument), genus = delta;
    - all points ordinary, none of multiplicity n (a cone of lines, left
      to the linear-factor detector): by Bezout counts, one point of
      multiplicity n-1 or n-2 forces irreducibility, genus = delta, and
      exactly two of multiplicities n-1 and 2 force a line, genus 0;
      else degree at most 5 and 0 <= delta <= 1 certify genus = delta.

    Everything else, unequal degrees included, is UNSUPPORTED.

    >>> genus_from_matching(PairMatching(4, 4, (), (1, 1, 1), (1, 1, 1), (1, 1, 1), (1, 1, 1)))
    DeficiencyReport(delta=3, genus=3, method=<GenusMethod.SMOOTH_COUNT: 'SmoothCount'>)
    """
    n, points = matching.deg_p, matching.matched_points
    if n != matching.deg_q:
        return _OUT_OF_SCOPE
    ks = [min(p, q) + 1 for p, q in points]
    delta = (n - 1) * (n - 2) // 2 - sum(k * (k - 1) // 2 for k in ks)
    genus, method = None, GenusMethod.UNSUPPORTED
    if not points:
        genus, method = delta, GenusMethod.SMOOTH_COUNT
    elif len(points) == 1 and points[0][0] != points[0][1]:
        if set(points[0]) == {1, 3}:
            genus, method = delta - 1, GenusMethod.QUADRATIC_TRANSFORM_ADJUSTED
        elif set(points[0]) == {n - 2, n - 1}:
            genus, method = delta, GenusMethod.ASSERTED_IRREDUCIBLE_DEFICIENCY
    elif all(p == q for p, q in points) and max(ks) < n:
        if len(ks) == 1 and ks[0] in (n - 1, n - 2):
            genus, method = delta, GenusMethod.ORDINARY_DEFICIENCY
        elif sorted(ks) == sorted((n - 1, 2)):
            genus, method = 0, GenusMethod.ORDINARY_DEFICIENCY
        elif n <= 5 and 0 <= delta <= 1:
            genus, method = delta, GenusMethod.ORDINARY_DEFICIENCY
    return DeficiencyReport(delta=delta, genus=genus, method=method)


def genus_if_supported(pair: PolynomialPair) -> DeficiencyReport:
    """The genus report from the pair's cached matching; unequal
    degrees report UNSUPPORTED without computing the matching."""
    if pair.n != pair.m:
        return _OUT_OF_SCOPE
    return genus_from_matching(pair.matching())
