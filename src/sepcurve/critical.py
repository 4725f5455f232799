"""Critical-point bookkeeping for a separated-variable curve
P(x) - Q(y) = 0.

The critical points of P are the roots of P'; they are grouped by
multiplicity (the order of vanishing of P'), each group carried as a
monic squarefree factor together with the monic polynomial whose
roots are the critical values of that group.  All matching between
the P-side and the Q-side happens through gcds of those value
polynomials, never through the points themselves.  Each polynomial's
data is computed once, by :func:`analyze`, and cached on the pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rpoly import Poly, poly_gcd, resultant_shift, squarefree_decomposition


@dataclass(frozen=True)
class CriticalClass:
    """One multiplicity class: ``factor`` is monic squarefree, its roots
    are the critical points where the derivative vanishes to order
    ``multiplicity`` exactly, and ``values`` is the monic polynomial of
    the corresponding critical values (degree == factor degree).
    ``value_parts`` is the Yun decomposition of ``values``: (monic
    factor, j) parts, a value taken by j points of the class showing up
    with j here."""

    factor: Poly
    multiplicity: int
    values: Poly
    value_parts: tuple  # of (Poly, int)


@dataclass(frozen=True)
class CriticalStructure:
    """Everything the verdicts need about one polynomial's critical
    points, computed once by :func:`analyze`: the multiplicity classes
    of P' with their value polynomials and Yun parts; ``radical``, the
    monic squarefree polynomial of all distinct critical values; and
    ``value_multiplicities``, largest first, the number of critical
    points taking each of those values."""

    poly: Poly
    classes: tuple  # of CriticalClass, multiplicities strictly increasing
    radical: Poly
    value_multiplicities: tuple  # of int, one per root of radical

    @property
    def point_count(self) -> int:
        """Number of distinct critical points."""
        return sum(c.factor.degree for c in self.classes)

    @property
    def hypothesis_I(self) -> bool:
        """All critical values simple: one distinct value per distinct
        critical point, i.e. deg radical == point_count."""
        return self.radical.degree == self.point_count

    @property
    def parts_coprime(self) -> bool:
        """No value is taken in two classes, so the value parts of all
        classes are pairwise coprime and their degrees sum to deg radical."""
        return self.radical.degree == sum(
            f.degree for c in self.classes for f, _ in c.value_parts
        )

    def multiset(self) -> tuple:
        """Per-point multiplicities, largest first."""
        out = []
        for c in self.classes:
            out.extend([c.multiplicity] * c.factor.degree)
        out.sort(reverse=True)
        return tuple(out)


def analyze(p: Poly) -> CriticalStructure:
    """Critical structure of a polynomial of degree >= 2: one
    ``resultant_shift`` and one Yun decomposition per class."""
    if p.degree < 2:
        raise ValueError(f"degree must be at least 2, got {p.degree}")
    classes = []
    atoms = []  # pairwise coprime (factor, points per value) so far
    for factor, mult in squarefree_decomposition(p.derivative()).parts:
        values = resultant_shift(factor, p)
        parts = squarefree_decomposition(values).parts
        new = []
        for f, j in parts:
            # parts of one class are coprime, but an earlier class may
            # take some of the same values: split those off
            for i, (a, k) in enumerate(atoms):
                g = poly_gcd(a, f)
                if g.degree > 0:
                    atoms[i], f = (a // g, k), f // g
                    new.append((g, k + j))
            new.append((f, j))
        atoms = [(a, k) for a, k in atoms + new if a.degree > 0]
        classes.append(CriticalClass(factor, mult, values, parts))
    radical = Poly.one()
    for a, _ in atoms:
        radical = radical * a
    counts = sorted((k for a, k in atoms for _ in range(a.degree)), reverse=True)
    return CriticalStructure(p, tuple(classes), radical, tuple(counts))


def hypothesis_I(p: Poly) -> bool:
    """True when all critical values of p are simple, i.e. no two
    critical points (of any multiplicity) share a value.

    The class value polynomials multiply to
    resultant_shift(squarefree_part(P'), P), so this holds exactly when
    the radical of all critical values has degree ``point_count``.  A
    squarefree value polynomial in each class is not enough: x^3 (x-1)^2
    takes the value 0 in two classes.

    >>> hypothesis_I(Poly([0, -3, 0, 1]))   # x^3 - 3x, values +-2
    True
    >>> hypothesis_I(Poly([0, 0, -2, 0, 1]))  # x^4 - 2x^2, values -1, 0, -1
    False
    """
    return analyze(p).hypothesis_I


class PolynomialPair:
    """The two sides of P(x) - Q(y), normalized so deg p >= deg q.

    ``swapped`` records whether the constructor exchanged the inputs to
    keep that normalization.  The pair caches what is computed from it:
    each side's :class:`CriticalStructure` (``critical_p``/``critical_q``)
    and their :class:`PairMatching` (``matching``), each computed on
    first use only.
    """

    __slots__ = ("p", "q", "swapped", "_cs")

    def __init__(self, p: Poly, q: Poly):
        if p.degree < 2 or q.degree < 2:
            raise ValueError(
                "both polynomials must have degree at least 2 "
                f"(got {p.degree} and {q.degree})"
            )
        swapped = p.degree < q.degree
        if swapped:
            p, q = q, p
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "swapped", swapped)
        object.__setattr__(self, "_cs", {})

    def __setattr__(self, name, value):
        raise AttributeError("PolynomialPair is immutable")

    @property
    def n(self) -> int:
        return self.p.degree

    @property
    def m(self) -> int:
        return self.q.degree

    @property
    def n0(self) -> int:
        """Largest k with 1 <= k < n and a nonzero x^k coefficient in p
        (0 when no such k exists)."""
        for k in range(self.n - 1, 0, -1):
            if self.p.coeff(k) != 0:
                return k
        return 0

    @property
    def m0(self) -> int:
        for k in range(self.m - 1, 0, -1):
            if self.q.coeff(k) != 0:
                return k
        return 0

    def _cached(self, key, compute, arg):
        if key not in self._cs:
            self._cs[key] = compute(arg)
        return self._cs[key]

    def critical_p(self) -> CriticalStructure:
        return self._cached("p", analyze, self.p)

    def critical_q(self) -> CriticalStructure:
        return self._cached("q", analyze, self.q)

    def matching(self) -> "PairMatching":
        return self._cached("matching", match_pairs, self)

    def __repr__(self):
        return f"PolynomialPair(p={self.p.to_string()!r}, q={self.q.to_string()!r})"


@dataclass(frozen=True)
class PairMatching:
    """Aggregate matching data between the two critical structures.

    Stored, as :func:`match_pairs` measures them: the degrees,
    ``matched_points`` (one (p, q) per critical point of P of
    multiplicity p sharing its value with a critical point of Q of
    multiplicity q, sorted descending), the multiplicities of the
    unmatched points on each side and each side's full multiset.

    Derived: the counts, and the unmatched masses.  The masses are
    residuals, deg - 1 minus the matched multiplicity mass on each side,
    so the mass identity holds by construction; they equal the sums of
    the unmatched points exactly when each shared value is simple on
    both sides, e.g. under hypothesis_I.
    """

    deg_p: int
    deg_q: int
    matched_points: tuple  # per matched point (p, q), sorted descending
    unmatched_p_points: tuple  # multiplicities, descending
    unmatched_q_points: tuple
    p_multiset: tuple
    q_multiset: tuple

    @property
    def matched_pair_count(self) -> int:
        """l0: number of matched point pairs."""
        return len(self.matched_points)

    @property
    def p_point_count(self) -> int:
        return len(self.p_multiset)

    @property
    def q_point_count(self) -> int:
        return len(self.q_multiset)

    @property
    def unmatched_p_mass(self) -> int:
        return self.deg_p - 1 - sum(p for p, _ in self.matched_points)

    @property
    def unmatched_q_mass(self) -> int:
        return self.deg_q - 1 - sum(q for _, q in self.matched_points)


def _unmatched_points(cs, parts, shared, other) -> tuple:
    """Multiplicities, largest first, of the critical points of ``cs``
    whose value ``other`` does not take.  ``shared[i]`` holds deg gcd of
    parts[i] with each value part of ``other``; they sum to the degree
    of its gcd with ``other.radical`` when those parts are coprime."""
    coprime = other.parts_coprime
    left = {c.multiplicity: c.factor.degree for c in cs.classes}
    for (mult, f, j), degs in zip(parts, shared):
        left[mult] -= j * (sum(degs) if coprime else poly_gcd(f, other.radical).degree)
    return tuple(sorted((m for m, k in left.items() for _ in range(k)), reverse=True))


def match_pairs(pair: PolynomialPair) -> PairMatching:
    cs_p = pair.critical_p()
    cs_q = pair.critical_q()
    p_parts = [(c.multiplicity, f, j) for c in cs_p.classes for f, j in c.value_parts]
    q_parts = [(c.multiplicity, f, j) for c in cs_q.classes for f, j in c.value_parts]

    # deg gcd of every P-side value part with every Q-side one, once;
    # pair counts are j*k*deg gcd
    shared = [[poly_gcd(pf, qf).degree for _, qf, _ in q_parts] for _, pf, _ in p_parts]
    counts = {}
    for (p_mult, _, j), degs in zip(p_parts, shared):
        for (q_mult, _, k), d in zip(q_parts, degs):
            if d > 0:
                key = (p_mult, q_mult)
                counts[key] = counts.get(key, 0) + j * k * d

    return PairMatching(
        deg_p=pair.n,
        deg_q=pair.m,
        matched_points=tuple(
            sorted((pq for pq, c in counts.items() for _ in range(c)), reverse=True)
        ),
        unmatched_p_points=_unmatched_points(cs_p, p_parts, shared, cs_q),
        unmatched_q_points=_unmatched_points(cs_q, q_parts, list(zip(*shared)), cs_p),
        p_multiset=cs_p.multiset(),
        q_multiset=cs_q.multiset(),
    )


def theorem1_lhs(matching: PairMatching) -> int:
    """Sum of (p - q) over matched pairs with p > q, plus the unmatched
    P-side mass."""
    return (
        sum(p - q for p, q in matching.matched_points if p > q)
        + matching.unmatched_p_mass
    )


def corollary1_lhs(matching: PairMatching) -> int:
    return (
        sum(q - p for p, q in matching.matched_points if q > p)
        + matching.unmatched_q_mass
    )


@dataclass(frozen=True)
class HomogenizedCurveMeta:
    """Degree bookkeeping of the homogenized curve and its z2-partial.

    For n == m the effective inner degree is max(n0, m0); otherwise the
    whole Q side sits at degree m.  The z2 partial derivative carries a
    guaranteed factor z2^(n - inner_degree - 1).
    """

    n: int
    m: int
    n0: int
    m0: int
    inner_degree: int  # m'
    z2_exponent_in_dz2: int


def homogenized_meta(pair: PolynomialPair) -> HomogenizedCurveMeta:
    inner = max(pair.n0, pair.m0 if pair.n == pair.m else pair.m)
    z2exp = pair.n - inner - 1
    assert z2exp >= 0
    return HomogenizedCurveMeta(
        n=pair.n,
        m=pair.m,
        n0=pair.n0,
        m0=pair.m0,
        inner_degree=inner,
        z2_exponent_in_dz2=z2exp,
    )
