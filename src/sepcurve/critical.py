"""Critical-point bookkeeping for a separated-variable curve
P(x) - Q(y) = 0.

The critical points of P are the roots of P'; they are grouped by
multiplicity (the order of vanishing of P'), each group carried as a
monic squarefree factor.  The critical values are carried once, in a
value table: pairwise coprime monic squarefree pieces, each with the
multiplicities of the critical points that take each of its roots.
Matching between the P-side and the Q-side happens through gcds of
those pieces, never through the points themselves, except on a pair
with a linear factor, whose matching is read from P's shape alone.
Each polynomial's data is computed once, by :func:`analyze`, and cached
on the pair.

The verdicts read only the table's shape: the degree of each piece and
its multiplicities, and the degrees of the gcds across the sides.  For
a generic polynomial, one simple critical value per critical point, the
shape is proven modulo one prime from one value image per side, the
product of the class images mod p, and the exact pieces are built only
when a caller reads them; two sides whose images are coprime mod p
share no value, and match without them.  A generic side's image is the
image of P' made monic, which proves P' squarefree as well, so its
multiplicity classes need no Yun decomposition; where that image
declines, P' and P'' coprime mod p prove the same.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, reduce

from . import rpoly
from .rpoly import (
    Poly,
    _coprime_mod_p,
    _few_roots_mod_p,
    _mul_mod_p,
    _residues,
    _value_image_mod_p,
    poly_gcd,
    resultant_shift,
    squarefree_decomposition,
)

# The numeric oracles' (numoracle) first precision step and the cap
# their escalation stops at, in bits: here so that the CLI can check
# ``--precision`` without loading the oracles.
DEFAULT_PRECISION = 256
PRECISION_CAP = 4096


class CriticalClass(namedtuple("CriticalClass", "factor multiplicity")):
    """One multiplicity class: ``factor`` is monic squarefree and its
    roots are the critical points where the derivative vanishes to order
    ``multiplicity`` exactly."""

    __slots__ = ()


class CriticalStructure(namedtuple("CriticalStructure", "poly classes image")):
    """Everything the verdicts need about one polynomial's critical
    points, computed once by :func:`analyze`: the multiplicity classes
    of P', from Yun's decomposition or, on a side certified as one
    class, from the image alone, and the value ``image``, the residues
    mod p of the product of the class image polynomials when it proved
    the generic shape, else None.

    The value table ``values`` is a tuple of (piece, mults).  The pieces
    are pairwise coprime, monic and squarefree, their product is the
    polynomial of all distinct critical values, and each root of a piece
    is the value of exactly the critical points whose multiplicities are
    listed, largest first, in ``mults``.  The verdicts read only the
    ``shape``, one (degree, mults) per piece; both are computed on first
    use.  On a certified side piece i is the image polynomial of class
    i, and the shape needs no piece.

    ``poly`` is the Poly, ``classes`` its CriticalClass tuple with
    multiplicities strictly increasing.  No ``__slots__``: the instance
    ``__dict__`` holds the cached ``values`` and ``shape``."""

    def __setattr__(self, name, value):
        raise AttributeError("CriticalStructure is immutable")

    @cached_property
    def values(self) -> tuple:
        """The exact value table, of (Poly, tuple of int)."""
        if self.image is None:
            return _value_table(self.poly, self.classes)
        # certified: each class's image polynomial is one squarefree piece
        return tuple(
            (resultant_shift(c.factor, self.poly), (c.multiplicity,)) for c in self.classes
        )

    @cached_property
    def shape(self) -> tuple:
        """(degree, mults) per piece of ``values``."""
        if self.image is None:
            return _shape(self.values)
        return tuple((c.factor.degree, (c.multiplicity,)) for c in self.classes)

    @property
    def hypothesis_I(self) -> bool:
        """All critical values simple: every value is taken by exactly
        one critical point."""
        return all(len(mults) == 1 for _, mults in self.shape)

    @property
    def value_multiplicities(self) -> tuple:
        """Number of critical points taking each distinct critical
        value, largest first."""
        counts = (len(mults) for d, mults in self.shape for _ in range(d))
        return tuple(sorted(counts, reverse=True))

    def multiset(self) -> tuple:
        """Per-point multiplicities, largest first: each critical point
        takes exactly one value of the table."""
        out = (mu for d, mults in self.shape for mu in mults * d)
        return tuple(sorted(out, reverse=True))


def _value_table(p: Poly, classes: tuple) -> tuple:
    """The exact value table: one ``resultant_shift`` and one Yun
    decomposition per class, and the values an earlier class also takes
    split off by gcds."""
    table = []  # pairwise coprime (piece, mults) so far
    for c in classes:
        new = []
        for f, j in squarefree_decomposition(resultant_shift(c.factor, p)).parts:
            # each root of f is taken by j points of this class; an
            # earlier class may take some of the same values: split them off
            mults = (c.multiplicity,) * j
            for i, (a, a_mults) in enumerate(table):
                g = poly_gcd(a, f)
                if g.degree > 0:
                    table[i], f = (a // g, a_mults), f // g
                    new.append((g, tuple(sorted(a_mults + mults, reverse=True))))
            new.append((f, mults))
        table = [(a, ms) for a, ms in table + new if a.degree > 0]
    return tuple(table)


def _shape(table: tuple) -> tuple:
    return tuple((f.degree, mults) for f, mults in table)


def _certified_images(p: Poly, classes: tuple):
    """The product U of the value images mod p of the classes when it is
    squarefree mod p, else None.  Each image is U_c, the class's image
    polynomial, reduced mod p at full degree, so disc(U mod p) != 0
    gives disc(U) != 0: every U_c is squarefree and no two share a root,
    which is the generic shape, one simple value per critical point."""
    images = [_value_image_mod_p(c.factor, p) for c in classes]
    if None in images:
        return None
    product = reduce(_mul_mod_p, images)
    if not _coprime_mod_p(product, [k * c for k, c in enumerate(product)][1:]):
        return None
    return tuple(product)


def analyze(p: Poly) -> CriticalStructure:
    """Critical structure of a polynomial of degree >= 2.

    The shape of the value table is certified modulo p =
    ``rpoly.GCD_PRIME`` when it can be: one simple value per critical
    point, one piece per class, read off the product of the class images
    mod p with no exact value polynomial.  A generic side is tried first
    as one class, S = P' made monic: an image of S squarefree mod p
    proves S squarefree too (a repeated root a of S would make
    (y - P(a))^2 divide it), so S is the whole of Yun's decomposition
    and Yun is not run.  When the image of S declines, P' and P''
    coprime mod p still prove S squarefree, by Brown's lemma (see
    ``rpoly._coprime_mod_p``, which declines when p divides a leading
    coefficient): S stays the one class, uncertified, and Yun is not run
    either.  Yun's decomposition of P' gives the classes, each with its
    own image, when ``rpoly._few_roots_mod_p`` shows P' with a repeated
    root and at most two distinct roots mod p, or when neither test
    proves S squarefree; a single class S then takes no second image.
    Any other outcome, an unlucky prime included, builds the exact table
    (one ``resultant_shift`` and one Yun decomposition per class) and
    reads the shape from it.  With ``rpoly.DEBUG_CHECKS`` on
    (SEPCURVE_DEBUG_CHECKS set when the package is first imported) a side
    whose one class was proven without Yun is also run through Yun,
    every certified shape is compared with the exact table's, and the
    image with the product of the exact ``resultant_shift`` polynomials
    reduced mod p.

    >>> cs = analyze(Poly([0, 0, -2, 0, 1]))  # x^4 - 2x^2: 0 once, -1 twice
    >>> [(f.to_string("y"), mults) for f, mults in cs.values]
    [('y', (1,)), ('y + 1', (1, 1))]
    >>> analyze(Poly([0, -3, 0, 1])).shape  # x^3 - 3x: values +-2, certified
    ((2, (1,)),)
    """
    if p.degree < 2:
        raise ValueError(f"degree must be at least 2, got {p.degree}")
    dp = p.derivative()
    tried = image = None  # tried: the one class S, when its image goes first
    if not _few_roots_mod_p(dp):
        tried = (CriticalClass(dp.monic(), 1),)
        image = _certified_images(p, tried)
    if image is not None or (tried and _coprime_mod_p(dp.num, dp.derivative().num)):
        classes = tried
        if rpoly.DEBUG_CHECKS:
            if squarefree_decomposition(dp).parts != ((tried[0].factor, 1),):
                raise ArithmeticError("critical classes disagree: one class modulo p, not Yun's")
    else:
        classes = tuple(CriticalClass(f, k) for f, k in squarefree_decomposition(dp).parts)
        if classes != tried:  # a class whose image declined declines again
            image = _certified_images(p, classes)
    cs = CriticalStructure(p, classes, image)
    cs.shape  # an uncertified side builds its exact table here
    if cs.image is not None and rpoly.DEBUG_CHECKS:
        if _shape(_value_table(p, classes)) != cs.shape:
            raise ArithmeticError("critical-value shapes disagree: certified modulo p, not over Q")
        exact = (_residues(resultant_shift(c.factor, p)) for c in classes)
        if tuple(reduce(_mul_mod_p, exact)) != cs.image:
            raise ArithmeticError(
                "value images disagree: the kernel modulo p against resultant_shift"
            )
    return cs


def hypothesis_I(p: Poly) -> bool:
    """True when all critical values of p are simple, i.e. no two
    critical points (of any multiplicity) share a value: every piece of
    the value table is taken by one point.  A squarefree value
    polynomial in each class is not enough: x^3 (x-1)^2 takes the value
    0 in two classes.

    >>> hypothesis_I(Poly([0, -3, 0, 1]))   # x^3 - 3x, values +-2
    True
    >>> hypothesis_I(Poly([0, 0, -2, 0, 1]))  # x^4 - 2x^2, values -1, 0, -1
    False
    """
    return analyze(p).hypothesis_I


def _top_inner_degree(p: Poly) -> int:
    """Largest k with 1 <= k < deg p and a nonzero x^k coefficient in p
    (0 when no such k exists)."""
    return next((k for k in range(p.degree - 1, 0, -1) if p.num[k]), 0)


class PolynomialPair:
    """The two sides of P(x) - Q(y), normalized so deg p >= deg q.

    ``swapped`` records whether the constructor exchanged the inputs to
    keep that normalization.  The pair caches what is computed from it:
    each side's :class:`CriticalStructure` (``critical_p``/``critical_q``),
    whether their value images are coprime (``images_coprime``), its
    linear-factor witness (``linear_factor``) and their
    :class:`PairMatching` (``matching``), each computed on first use
    only.  Equality and hashing read ``p``, ``q`` and ``swapped``.
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

    def __reduce__(self):
        # rebuild from the inputs in their given order, so swapped survives
        return PolynomialPair, ((self.q, self.p) if self.swapped else (self.p, self.q))

    def __eq__(self, other):
        if type(other) is not PolynomialPair:
            return NotImplemented
        return (self.p, self.q, self.swapped) == (other.p, other.q, other.swapped)

    def __hash__(self):
        return hash((self.p, self.q, self.swapped))

    @property
    def n(self) -> int:
        return self.p.degree

    @property
    def m(self) -> int:
        return self.q.degree

    @property
    def n0(self) -> int:
        return _top_inner_degree(self.p)

    @property
    def m0(self) -> int:
        return _top_inner_degree(self.q)

    def _cached(self, key, compute, arg):
        if key not in self._cs:
            self._cs[key] = compute(arg)
        return self._cs[key]

    def critical_p(self) -> CriticalStructure:
        return self._cached("p", analyze, self.p)

    def critical_q(self) -> CriticalStructure:
        return self._cached("q", analyze, self.q)

    def images_coprime(self) -> bool:
        """True when both sides are certified and their value images are
        coprime mod p: then the sides share no critical value, since the
        resultant of their value polynomials is nonzero mod p, so
        nonzero.  A certified side has simple critical values."""
        return self._cached("coprime", _images_coprime, self)

    def linear_factor(self):
        """The pair's linear-factor witness (``linfactor.find_linear_factor``),
        or None, computed once.  A pair that holds a witness reads its
        matching from it."""
        from .linfactor import find_linear_factor  # linfactor imports this module

        return self._cached("witness", find_linear_factor, self)

    def matching(self) -> "PairMatching":
        return self._cached("matching", _pair_matching, self)

    def __repr__(self):
        return f"PolynomialPair(p={self.p.to_string()!r}, q={self.q.to_string()!r})"


class PairMatching(
    namedtuple(
        "PairMatching",
        "deg_p deg_q matched_points unmatched_p_points unmatched_q_points p_multiset q_multiset",
    )
):
    """Aggregate matching data between the two critical structures.

    Stored, as :func:`match_pairs` measures them: the degrees,
    ``matched_points`` (one (p, q) per critical point of P of
    multiplicity p and critical point of Q of multiplicity q with the
    same value, sorted descending), the multiplicities of the unmatched
    points on each side and each side's full multiset, all descending.

    Derived: the counts, and the unmatched masses, the sums of the
    unmatched multiplicities on each side.  When each shared value is
    simple on both sides, e.g. under hypothesis_I, every critical point
    is matched once or unmatched, so the matched and unmatched masses
    add up to deg - 1 on each side.
    """

    __slots__ = ()

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
        return sum(self.unmatched_p_points)

    @property
    def unmatched_q_mass(self) -> int:
        return sum(self.unmatched_q_points)

    def mirrored(self) -> "PairMatching":
        """The matching of Q(y) - P(x) = 0: the roles of P and Q
        exchanged, matched points turned to (q, p) and sorted descending
        again.  Every Q-side rule is its P-side rule on this matching.

        >>> m = PairMatching(5, 5, ((3, 1), (1, 2)), (), (1,), (3, 1), (2, 1, 1))
        >>> m.mirrored().matched_points, m.mirrored().unmatched_p_points
        (((2, 1), (1, 3)), (1,))
        >>> m.mirrored().mirrored() == m
        True
        """
        return PairMatching(
            deg_p=self.deg_q,
            deg_q=self.deg_p,
            matched_points=tuple(sorted(((q, p) for p, q in self.matched_points), reverse=True)),
            unmatched_p_points=self.unmatched_q_points,
            unmatched_q_points=self.unmatched_p_points,
            p_multiset=self.q_multiset,
            q_multiset=self.p_multiset,
        )


def _images_coprime(pair: PolynomialPair) -> bool:
    image_p, image_q = pair.critical_p().image, pair.critical_q().image
    return image_p is not None and image_q is not None and _coprime_mod_p(image_p, image_q)


def _pair_matching(pair: PolynomialPair) -> PairMatching:
    """The matching of a pair, by :func:`match_pairs` unless the pair
    holds a linear-factor witness.  Then P(x) = Q(s*x + t) for each
    scale s of the family, so P'(x) = s*Q'(s*x + t): x -> s*x + t maps
    the critical points of P onto those of Q with equal multiplicities
    and equal values.  Each piece (d, mults) of P's shape is then shared
    whole, and pairs every multiplicity in mults with every one, d
    times; no point is unmatched, and Q's multiset is P's.  With
    ``rpoly.DEBUG_CHECKS`` on, :func:`match_pairs` runs as well and must
    agree."""
    if pair._cs.get("witness") is None:
        return match_pairs(pair)
    cs_p = pair.critical_p()
    matched = [(a, b) for d, mults in cs_p.shape for a in mults for b in mults for _ in range(d)]
    multiset = cs_p.multiset()
    m = PairMatching(pair.n, pair.m, tuple(sorted(matched, reverse=True)), (), (), multiset, multiset)
    if rpoly.DEBUG_CHECKS and match_pairs(pair) != m:
        raise ArithmeticError("matchings disagree: read from the linear factor, not match_pairs")
    return m


def match_pairs(pair: PolynomialPair) -> PairMatching:
    """Match the critical points of P and Q that share a value.

    ``matched_points`` has one (p, q) per (P point, Q point) with equal
    values, i.e. one per affine singular point of P(x) - Q(y) = 0 over a
    shared value; the unmatched points are those whose value the other
    side does not take.  One gcd per (P piece, Q piece) of the value
    tables: d shared roots pair every P multiplicity of the piece with
    every Q multiplicity, d times.  Two certified sides whose images mod
    p are coprime share no value and match without building a piece.
    """
    cs_p, cs_q = pair.critical_p(), pair.critical_q()
    shared = _shared_degrees(pair)
    matched = []
    for (_, p_mults), degs in zip(cs_p.shape, shared):
        for (_, q_mults), d in zip(cs_q.shape, degs):
            matched += [(a, b) for a in p_mults for b in q_mults] * d

    def unmatched(shape, shared):
        # a piece's roots the other side does not take, with their points
        left = (mults * (deg - sum(degs)) for (deg, mults), degs in zip(shape, shared))
        return tuple(sorted((mu for ms in left for mu in ms), reverse=True))

    return PairMatching(
        deg_p=pair.n,
        deg_q=pair.m,
        matched_points=tuple(sorted(matched, reverse=True)),
        unmatched_p_points=unmatched(cs_p.shape, shared),
        unmatched_q_points=unmatched(cs_q.shape, zip(*shared)),
        p_multiset=cs_p.multiset(),
        q_multiset=cs_q.multiset(),
    )


def _shared_degrees(pair: PolynomialPair) -> list:
    """deg gcd of every P piece with every Q piece.  Two sides whose
    images mod p are coprime share no value (``images_coprime``, tested
    once per pair), and no piece is built; otherwise every pair of exact
    pieces takes one gcd."""
    cs_p, cs_q = pair.critical_p(), pair.critical_q()
    if pair.images_coprime():
        return [[0] * len(cs_q.classes) for _ in cs_p.classes]
    return [[poly_gcd(a, b).degree for b, _ in cs_q.values] for a, _ in cs_p.values]


def theorem1_lhs(matching: PairMatching) -> int:
    """Sum of (p - q) over matched pairs with p > q, plus the unmatched
    P-side mass."""
    return (
        sum(p - q for p, q in matching.matched_points if p > q)
        + matching.unmatched_p_mass
    )


def corollary1_lhs(matching: PairMatching) -> int:
    """Theorem 1's lhs with the roles of P and Q exchanged."""
    return theorem1_lhs(matching.mirrored())


class HomogenizedCurveMeta(namedtuple("HomogenizedCurveMeta", "n m z2_exponent_in_dz2")):
    """Degree bookkeeping of the homogenized curve and its z2-partial.

    For n == m the effective inner degree is max(n0, m0); otherwise the
    whole Q side sits at degree m.  The z2 partial derivative carries a
    guaranteed factor z2^(n - inner degree - 1).
    """

    __slots__ = ()


def homogenized_meta(pair: PolynomialPair) -> HomogenizedCurveMeta:
    inner = max(pair.n0, pair.m0 if pair.n == pair.m else pair.m)
    z2exp = pair.n - inner - 1
    assert z2exp >= 0
    return HomogenizedCurveMeta(n=pair.n, m=pair.m, z2_exponent_in_dz2=z2exp)
