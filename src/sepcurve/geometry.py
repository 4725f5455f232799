"""Desk-scale plane-curve geometry for z0^n-homogenized P(x) - Q(y).

Everything here works from the matching aggregates alone: each matched
pair class of multiplicities (p, q) contributes singular points of
multiplicity min(p, q) + 1, ordinary exactly when p = q (the lowest
local form is nu*(z0 - a*z2)^(p+1) + mu*(z1 - b*z2)^(q+1), which splits
into distinct lines iff the exponents agree).  In the equal-degree
regime there is no singularity at infinity, so this profile is the
whole singular locus.

The genus computations deliberately cover only configurations that can
be certified by elementary arguments: smooth count, ordinary-node
deficiency for curves whose irreducibility follows from the
multiplicity pattern (or from low-degree exclusion of bad components),
and a single quadratic-transform adjustment.  Anything else is reported
as unsupported rather than guessed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .critical import PairMatching, PolynomialPair


class UnsupportedRegionError(ValueError):
    """Raised when the requested analysis only holds for n = m."""


class IrreducibilityVerdict(enum.Enum):
    IRREDUCIBLE = "Irreducible"
    HAS_LINEAR_COMPONENT = "HasLinearComponent"
    UNKNOWN = "Unknown"


class GenusMethod(enum.Enum):
    """How a genus value was certified (or why none was)."""

    SMOOTH_COUNT = "SmoothCount"
    ORDINARY_DEFICIENCY = "OrdinaryDeficiency"
    QUADRATIC_TRANSFORM_ADJUSTED = "QuadraticTransformAdjusted"
    ASSERTED_IRREDUCIBLE_DEFICIENCY = "AssertedIrreducibleDeficiency"
    UNSUPPORTED = "Unsupported"


@dataclass(frozen=True)
class SingularPoint:
    """One affine singular point, identified by its matched pair class.

    ``pair`` holds the (p, q) critical multiplicities of the class the
    point comes from; the projective multiplicity is min(p, q) + 1 and
    the point is ordinary (distinct tangent lines) exactly when p = q.
    """

    __slots__ = ("pair", "multiplicity", "ordinary")
    pair: tuple
    multiplicity: int
    ordinary: bool


@dataclass(frozen=True)
class SingularProfile:
    __slots__ = ("points", "n")
    points: tuple
    n: int

    def multiplicities(self):
        """Point multiplicities, descending.

        >>> SingularProfile((point_for_pair(2, 2), point_for_pair(1, 1)), 5).multiplicities()
        (3, 2)
        """
        return tuple(sorted((s.multiplicity for s in self.points), reverse=True))


@dataclass(frozen=True)
class DeficiencyReport:
    """delta and, when certifiable, the genus.

    ``genus`` is the geometric genus when the curve is certified
    irreducible; for profiles that force reducibility it is the genus
    of a certified low-genus component (0 for a line).  ``delta`` is
    present whenever the profile itself is available, ``genus`` only
    when ``method`` is not UNSUPPORTED.
    """

    __slots__ = ("delta", "genus", "method")
    delta: Optional[int]
    genus: Optional[int]
    method: GenusMethod


def point_for_pair(p: int, q: int) -> SingularPoint:
    """Singular point contributed by one matched (p, q) class member."""
    return SingularPoint(pair=(p, q), multiplicity=min(p, q) + 1, ordinary=p == q)


def singular_profile(matching: PairMatching) -> SingularProfile:
    """All singular points of the projective curve, from the aggregates.

    Only the equal-degree regime is supported: there the curve is
    smooth at infinity and every singular point sits over a matched
    critical pair.  One point per matched pair (counting class
    multiplicity), so the profile has exactly l0 entries.
    """
    if matching.deg_p != matching.deg_q:
        raise UnsupportedRegionError(
            f"singular profile requires equal degrees "
            f"(got {matching.deg_p} and {matching.deg_q}); the analysis "
            f"at infinity is out of scope"
        )
    points = tuple(point_for_pair(p, q) for p, q in matching.matched_points)
    return SingularProfile(points=points, n=matching.deg_p)


def deficiency(profile: SingularProfile) -> int:
    """(n-1)(n-2)/2 minus sum of m(m-1)/2 over the singular points.

    >>> deficiency(SingularProfile((), 4))
    3
    """
    n = profile.n
    total = (n - 1) * (n - 2) // 2
    for s in profile.points:
        total -= s.multiplicity * (s.multiplicity - 1) // 2
    return total


def irreducibility_from_profile(profile: SingularProfile) -> IrreducibilityVerdict:
    """What the multiplicity pattern alone forces, via Bezout counts.

    A single ordinary point of multiplicity n-1 or n-2 makes the curve
    irreducible (any splitting d + (n-d) would need the components to
    meet too often along a line through the point); exactly two
    ordinary points of multiplicities n-1 and 2 force a linear
    component.  Every other pattern is reported as UNKNOWN.
    """
    n = profile.n
    pts = profile.points
    if len(pts) == 1 and pts[0].ordinary and pts[0].multiplicity in (n - 1, n - 2):
        return IrreducibilityVerdict.IRREDUCIBLE
    if (
        len(pts) == 2
        and all(s.ordinary for s in pts)
        and sorted(s.multiplicity for s in pts) == sorted((n - 1, 2))
    ):
        return IrreducibilityVerdict.HAS_LINEAR_COMPONENT
    return IrreducibilityVerdict.UNKNOWN


def genus_from_profile(profile: SingularProfile) -> DeficiencyReport:
    """Genus when one of the desk arguments certifies it.

    Supported configurations:

    - no singular points: smooth, genus (n-1)(n-2)/2;
    - exactly one singular point from a {1, 3} pair: one quadratic
      transform resolves it, genus = delta - 1;
    - exactly one singular point from an {n-2, n-1} pair: delta is 0
      and irreducibility is accepted for this configuration (the local
      expansion argument), genus = delta;
    - all points ordinary with irreducibility or a linear component
      forced by the multiplicity pattern: genus = delta, resp. 0;
    - all points ordinary, degree at most 5 and 0 <= delta <= 1: the
      low-degree exclusion arguments certify genus = delta.

    Everything else gets method UNSUPPORTED and no genus.
    """
    n = profile.n
    delta = deficiency(profile)
    pts = profile.points
    if not pts:
        return DeficiencyReport(delta=delta, genus=delta, method=GenusMethod.SMOOTH_COUNT)

    if len(pts) == 1 and not pts[0].ordinary:
        pair = set(pts[0].pair)
        if pair == {1, 3}:
            return DeficiencyReport(
                delta=delta,
                genus=delta - 1,
                method=GenusMethod.QUADRATIC_TRANSFORM_ADJUSTED,
            )
        if pair == {n - 2, n - 1}:
            return DeficiencyReport(
                delta=delta,
                genus=delta,
                method=GenusMethod.ASSERTED_IRREDUCIBLE_DEFICIENCY,
            )
        return DeficiencyReport(delta=delta, genus=None, method=GenusMethod.UNSUPPORTED)

    if not all(s.ordinary for s in pts):
        return DeficiencyReport(delta=delta, genus=None, method=GenusMethod.UNSUPPORTED)

    if any(s.multiplicity >= n for s in pts):
        # A point of full multiplicity means a cone of lines; leave the
        # component bookkeeping to the linear-factor detector.
        return DeficiencyReport(delta=delta, genus=None, method=GenusMethod.UNSUPPORTED)

    pattern = irreducibility_from_profile(profile)
    if pattern is IrreducibilityVerdict.IRREDUCIBLE:
        return DeficiencyReport(
            delta=delta, genus=delta, method=GenusMethod.ORDINARY_DEFICIENCY
        )
    if pattern is IrreducibilityVerdict.HAS_LINEAR_COMPONENT:
        return DeficiencyReport(
            delta=delta, genus=0, method=GenusMethod.ORDINARY_DEFICIENCY
        )
    if n <= 5 and 0 <= delta <= 1:
        return DeficiencyReport(
            delta=delta, genus=delta, method=GenusMethod.ORDINARY_DEFICIENCY
        )
    return DeficiencyReport(delta=delta, genus=None, method=GenusMethod.UNSUPPORTED)


def genus_if_supported(pair: PolynomialPair) -> DeficiencyReport:
    """Profile + genus in one step, from the pair's cached matching;
    unequal degrees report UNSUPPORTED."""
    if pair.n != pair.m:
        return DeficiencyReport(delta=None, genus=None, method=GenusMethod.UNSUPPORTED)
    return genus_from_profile(singular_profile(pair.matching()))
