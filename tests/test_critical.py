import copy
import itertools
import pickle
import random
from functools import reduce
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import sepcurve.critical as critical
import sepcurve.rpoly as rpoly
from helpers import (
    chebyshev,
    count_calls,
    integral,
    make_matching,
    poly_of,
    reference_squarefree_decomposition,
    reference_value_table,
    squarefree_part,
    yun_first_analyze,
)
from sepcurve.classify import classify
from sepcurve.critical import (
    CriticalClass,
    PolynomialPair,
    analyze,
    corollary1_lhs,
    homogenized_meta,
    hypothesis_I,
    match_pairs,
    theorem1_lhs,
)
from sepcurve.instances import case_instance, random_affine_image, random_polynomial, theorem3_pair
from sepcurve.oneforms import _mirrored_matching
from sepcurve.rationals import rat
from sepcurve.rpoly import (
    GCD_PRIME,
    Poly,
    _mul_mod_p,
    _residues,
    _value_image_mod_p,
    is_squarefree,
    poly_gcd,
    resultant_shift,
    squarefree_decomposition,
)

rationals = st.builds(rat, st.integers(-6, 6), st.integers(1, 4))

# 3x^4 - 4x^3: critical values -1 (at x = 1) and 0 (at the double point x = 0)
_SHARED_ZERO = poly_of(0, 0, 0, -4, 3)


@st.composite
def polys_deg2plus(draw, max_degree=8):
    n = draw(st.integers(2, max_degree))
    coeffs = draw(st.lists(rationals, min_size=n, max_size=n))
    lead = draw(rationals.filter(lambda c: c != 0))
    return Poly(coeffs + [lead])


def test_analyze_cubic():
    cs = analyze(poly_of(0, -3, 0, 1))  # x^3 - 3x
    assert len(cs.classes) == 1
    cls = cs.classes[0]
    assert cls.multiplicity == 1
    assert cls.factor == poly_of(-1, 0, 1)  # x^2 - 1
    assert cs.values == ((poly_of(-4, 0, 1), (1,)),)  # values +-2, one point each
    assert cs.multiset() == (1, 1)


def test_analyze_separates_multiplicity_classes():
    # P' = x^2 (x^2 - 1): one double critical point, two simple ones
    p_prime = poly_of(0, 0, 1) * poly_of(-1, 0, 1)
    p = Poly([rat(0)] + [c / (k + 1) for k, c in enumerate(p_prime.coeffs)])
    cs = analyze(p)
    assert [(c.multiplicity, c.factor.degree) for c in cs.classes] == [(1, 2), (2, 1)]
    assert cs.multiset() == (2, 1, 1)


def test_analyze_rejects_low_degree():
    with pytest.raises(ValueError):
        analyze(poly_of(1, 2))


def test_values_with_shared_roots_are_not_squarefree():
    # x^4 - 2x^2 sends +-1 to the same value
    cs = analyze(poly_of(0, 0, -2, 0, 1))
    (cls,) = cs.classes
    assert cls.multiplicity == 1
    # 0 is taken by x = 0, -1 by both x = +-1
    assert dict(cs.values) == {poly_of(0, 1): (1,), poly_of(1, 1): (1, 1)}
    assert not hypothesis_I(poly_of(0, 0, -2, 0, 1))
    assert hypothesis_I(poly_of(0, -3, 0, 1))


@st.composite
def polys_multiclass(draw):
    """P whose derivative has several Yun classes: either P itself a
    product of powers of linear factors (repeated roots of P are
    critical points, and their value is shared), or the integral of
    one (values usually distinct)."""
    roots = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True))
    prod = Poly.one()
    for r in roots:
        prod = prod * poly_of(-r, 1) ** draw(st.integers(1, 3))
    if prod.degree < 2 or draw(st.booleans()):
        return integral(prod, draw(rationals))
    return prod + Poly.constant(draw(rationals))


def _all_values(p: Poly) -> Poly:
    """The direct route: all critical values, one resultant_shift."""
    return resultant_shift(squarefree_part(p.derivative()), p)


def _hypothesis_I_reference(p: Poly) -> bool:
    return is_squarefree(_all_values(p))


def _value_multiplicities_reference(p: Poly) -> tuple:
    parts = squarefree_decomposition(_all_values(p)).parts
    return tuple(sorted((k for f, k in parts for _ in range(f.degree)), reverse=True))


@given(p=st.one_of(polys_deg2plus(max_degree=6), polys_multiclass()))
@settings(deadline=None, max_examples=120)
def test_hypothesis_I_matches_the_all_values_route(p):
    assert hypothesis_I(p) == _hypothesis_I_reference(p)
    cs = analyze(p)
    product = Poly.one()
    for f, _ in cs.values:
        assert f.lc == 1
        product = product * f
    assert product == squarefree_part(_all_values(p))
    assert cs.value_multiplicities == _value_multiplicities_reference(p)
    # every critical point takes exactly one value of the table
    by_class = [c.multiplicity for c in cs.classes for _ in range(c.factor.degree)]
    assert cs.multiset() == tuple(sorted(by_class, reverse=True))


@given(p=st.one_of(polys_deg2plus(), polys_multiclass()))
@settings(deadline=None, max_examples=120)
def test_yun_matches_the_reference_on_derivatives_and_value_polynomials(p):
    """The integer-list Yun returns the Poly-level loop's parts and
    content on P, on P' and on every class's resultant_shift image."""
    inputs = [p, p.derivative()]
    inputs += [resultant_shift(f, p) for f, _ in reference_squarefree_decomposition(p.derivative()).parts]
    for f in inputs:
        assert squarefree_decomposition(f) == reference_squarefree_decomposition(f)


@pytest.mark.parametrize(
    "p",
    [
        poly_of(0, 0, 0, 1) * poly_of(-1, 1) ** 2,  # x^3 (x-1)^2: 0 in two classes
        poly_of(0, 0, -2, 0, 1),  # x^4 - 2x^2: -1 twice in one class
        poly_of(-1, 0, 1) ** 2 * poly_of(0, 0, 1),  # x^2 (x^2-1)^2
        poly_of(-1, 0, 1) ** 3 * poly_of(0, 1) ** 2 + poly_of(3),
        poly_of(0, -3, 0, 1),
    ],
)
def test_value_multiplicities_pinned(p):
    assert analyze(p).value_multiplicities == _value_multiplicities_reference(p)


def test_hypothesis_I_pinned_radical_degree_rule():
    p = poly_of(0, 0, 0, 1) * poly_of(-1, 1) ** 2  # x^3 (x-1)^2
    cs = analyze(p)
    assert [c.multiplicity for c in cs.classes] == [1, 2]
    # each class alone has simple values; 0 is taken in both classes
    assert dict(cs.values) == {poly_of(0, 1): (2, 1), poly_of(rat(-108, 3125), 1): (1,)}
    assert (sum(f.degree for f, _ in cs.values), sum(c.factor.degree for c in cs.classes)) == (2, 3)
    assert not hypothesis_I(p) and not _hypothesis_I_reference(p)
    assert not hypothesis_I(poly_of(0, 0, -2, 0, 1))  # x^4 - 2x^2
    assert hypothesis_I(poly_of(0, -3, 0, 1))  # x^3 - 3x
    assert analyze(poly_of(0, -3, 0, 1)).values == ((poly_of(-4, 0, 1), (1,)),)


def test_classify_shifts_once_per_class_per_side(monkeypatch, debug_checks):
    """At most one shift per class per side: none when both shapes are
    certified and no value is shared, none for a linear class x - a,
    whose piece is y - P(a), and one per other class when the matching
    reads the pieces of its side or a shape is not certified."""
    debug_checks(False)  # it builds every table
    calls = []

    def counting(s, p):
        calls.append(p)
        return resultant_shift(s, p)

    monkeypatch.setattr(critical, "resultant_shift", counting)
    rng = random.Random(10)
    pair = PolynomialPair(*(random_polynomial(rng, 10, 10, sparse=False) for _ in "pq"))
    verdict = classify(pair)
    assert verdict.matching is pair.matching()
    assert None not in (pair.critical_p().image, pair.critical_q().image)
    assert calls == []
    # both critical values shared, at two rational points a side: the
    # matching compares the linear pieces y - P(a) and shifts nothing
    pair = random_affine_image(theorem3_pair(5), rng)
    verdict = classify(pair)
    assert verdict.matching is pair.matching() and verdict.matching.matched_pair_count == 2
    for cs in (pair.critical_p(), pair.critical_q()):
        assert [c.factor.degree for c in cs.classes] == [1, 1]
    assert calls == []
    # case 6: two conjugate simple critical points and one rational
    # double one a side; the matching reads the conjugate values from one
    # shift and the rational one from P at it
    pair = random_affine_image(case_instance(6), rng)
    verdict = classify(pair)
    assert verdict.matching is pair.matching() and verdict.case == 6
    for cs in (pair.critical_p(), pair.critical_q()):
        assert [c.factor.degree for c in cs.classes] == [2, 1]
        assert calls.count(cs.poly) == 1
    assert len(calls) == 2
    # -1 taken twice: the shape comes from the exact table
    calls.clear()
    cs = analyze(poly_of(0, 0, -2, 0, 1))
    assert cs.image is None and len(calls) == len(cs.classes)


@given(p=st.one_of(polys_deg2plus(), polys_multiclass()))
@settings(deadline=None, max_examples=100)
def test_shape_equals_the_exact_table(p):
    """The shape analyze returns, certified modulo p or not, is the shape
    of the exact table, and the lazy table is that table."""
    cs = analyze(p)
    exact = critical._value_table(p, cs.classes)
    assert cs.shape == tuple((f.degree, mults) for f, mults in exact)
    assert cs.values == exact


def test_values_that_coincide_only_modulo_p_decline():
    # p/4 (x^3 - 3x) takes -+p/2, both 0 modulo p
    p = poly_of(0, -3, 0, 1) * rat(GCD_PRIME, 4)
    cs = analyze(p)
    assert cs.image is None
    assert cs.hypothesis_I and hypothesis_I(p)
    assert cs.values == ((poly_of(rat(-(GCD_PRIME**2), 4), 0, 1), (1,)),)


@st.composite
def rational_point_polys(draw):
    """c times an integral of prod (x - r_i)^(e_i), distinct e_i: every
    class of Yun's decomposition of P' is linear."""
    roots = draw(st.lists(rationals, min_size=1, max_size=3, unique=True))
    exps = draw(st.lists(st.integers(1, 4), min_size=len(roots), max_size=len(roots), unique=True))
    f = reduce(lambda acc, re: acc * poly_of(-re[0], 1) ** re[1], zip(roots, exps), Poly.one())
    return draw(rationals.filter(bool)) * integral(f, draw(rationals))


_MERGED = poly_of(0, 0, 0, 1) * poly_of(-1, 1) ** 4  # x^3 (x - 1)^4: P(0) = P(1) = 0


@given(p=st.one_of(rational_point_polys(), polys_multiclass()))
@settings(deadline=None, max_examples=150)
@example(p=_MERGED)
@example(p=poly_of(0, 0, 0, 4, 4, 1))  # x^3 (x + 2)^2: the class x meets y (y + 3456/3125)
@example(p=poly_of(0, 0, 0, 0, -3, 0, 1))  # x^6 - 3x^4: classes x^2 - 2 and x
@example(p=_MERGED * rat(1, GCD_PRIME))  # p divides den P
@example(p=integral(poly_of(0, 0, 1) * poly_of(-1, GCD_PRIME), 0))  # and a critical point's den
@example(p=integral(poly_of(0, 12 * GCD_PRIME) * poly_of(-1, 1) ** 2, 0))  # P(1) - P(0) = p
def test_the_value_table_equals_the_reference_table(p):
    """_value_table, P at the root of each linear class and one rule for
    where two pieces meet, builds the table that resultant_shift, Yun and
    poly_gcd build for every class.  A side of linear classes has an
    image exactly when p divides no denominator of P or of a point and
    no two values agree mod p, and then it is the table's pieces mod p."""
    classes = tuple(CriticalClass(f, k) for f, k in squarefree_decomposition(p.derivative()).parts)
    table = critical._value_table(p, classes)
    assert table == reference_value_table(p, classes)
    cs = analyze(p)
    assert (cs.classes, cs.values, cs.shape) == (classes, table, critical._shape(table))
    if all(c.factor.degree == 1 for c in classes):
        values = [p(rat(-c.factor.num[0], c.factor.den)) for c in classes]
        declines = any(not d % GCD_PRIME for d in [p.den] + [c.factor.den for c in classes])
        declines = declines or any(
            not (u - v).numerator % GCD_PRIME for u, v in itertools.combinations(values, 2)
        )
        assert (cs.image is None) == declines
        if not declines:
            assert cs.image == tuple(reduce(_mul_mod_p, (_residues(f) for f, _ in table)))


def test_the_value_table_merges_a_shared_value_last():
    # classes x - 3/7, x, x - 1 of multiplicities 1, 2, 3; x and x - 1 take 0
    cs = analyze(_MERGED)
    v = _MERGED(rat(3, 7))
    assert cs.values == ((poly_of(-v, 1), (1,)), (poly_of(0, 1), (3, 2)))
    assert cs.image is None and not cs.hypothesis_I
    assert analyze(_MERGED * rat(1, GCD_PRIME)).image is None
    assert analyze(_MERGED + poly_of(1)).image is None  # the values still merge


@pytest.mark.parametrize(
    "p",
    [
        poly_of(rat(1, GCD_PRIME), -3, 0, 1),  # p divides den P
        poly_of(0, -1, 0, rat(GCD_PRIME, 3)),  # p divides den of the class x^2 - 1/p
    ],
)
def test_a_denominator_divisible_by_p_declines(p):
    cs = analyze(p)
    assert _value_image_mod_p(cs.classes[0].factor, p) is None
    assert cs.image is None
    assert cs.shape == ((2, (1,)),) and cs.hypothesis_I


def test_values_shared_only_modulo_p_are_not_matched():
    # values +-2 against +-2 + p: equal images modulo p, no shared value
    pair = PolynomialPair(poly_of(0, -3, 0, 1), poly_of(GCD_PRIME, -3, 0, 1))
    cs_p, cs_q = pair.critical_p(), pair.critical_q()
    assert cs_p.image is not None and cs_p.image == cs_q.image
    m = match_pairs(pair)
    assert m.matched_pair_count == 0
    assert m.unmatched_p_points == (1, 1) and m.unmatched_q_points == (1, 1)


def test_certified_sides_sharing_a_value_match_through_the_exact_pieces():
    # images y(y + 1) and y against x^2: both certified, not coprime
    pair = PolynomialPair(_SHARED_ZERO, poly_of(0, 0, 1))
    assert None not in (pair.critical_p().image, pair.critical_q().image)
    m = match_pairs(pair)
    assert (m.matched_points, m.unmatched_p_points, m.unmatched_q_points) == (((2, 1),), (1,), ())


def test_a_wrong_shape_certificate_is_caught_under_debug_checks(monkeypatch, debug_checks):
    debug_checks(False)
    monkeypatch.setattr(  # certify every shape, generic or not
        critical,
        "_certified_images",
        lambda p, classes: tuple(
            reduce(_mul_mod_p, (_value_image_mod_p(c.factor, p) for c in classes))
        ),
    )
    p = poly_of(0, 0, -2, 0, 1)  # x^4 - 2x^2: -1 taken twice
    assert analyze(p).hypothesis_I  # the faulty certificate is trusted...
    debug_checks(True)
    with pytest.raises(ArithmeticError, match="shapes disagree"):
        analyze(p)  # ...unless debug checks build the exact table


def test_a_wrong_value_image_is_caught_under_debug_checks(monkeypatch, debug_checks):
    """An image of the right shape but the wrong values: U(y + 1) for U,
    still squarefree, so only the image comparison can catch it."""
    debug_checks(False)

    def shifted(s, f):
        image = Poly(_value_image_mod_p(s, f)).shift_argument(1)
        return [c % GCD_PRIME for c in image.num]

    monkeypatch.setattr(critical, "_value_image_mod_p", shifted)
    p = poly_of(0, -3, 0, 1)  # x^3 - 3x: values +-2, image y^2 - 4
    assert analyze(p).image == (GCD_PRIME - 3, 2, 1)  # the faulty kernel is trusted...
    debug_checks(True)
    with pytest.raises(ArithmeticError, match="value images disagree"):
        analyze(p)  # ...unless debug checks compare each image with the exact one


def test_a_wrong_one_class_certificate_is_caught_under_debug_checks(monkeypatch, debug_checks):
    """A side certified as the one class S = P' made monic skips Yun; the
    debug checks run Yun and compare."""
    debug_checks(False)
    monkeypatch.setattr(  # certify every class, squarefree or not
        critical,
        "_certified_images",
        lambda p, classes: tuple(
            reduce(_mul_mod_p, (_value_image_mod_p(c.factor, p) for c in classes))
        ),
    )
    p = poly_of(0, 0, 0, 40, -45, 12)  # P' = 60 x^2 (x - 1)(x - 2): three roots
    (cls,) = analyze(p).classes  # the faulty certificate is trusted...
    assert (cls.factor.degree, cls.multiplicity) == (4, 1)
    debug_checks(True)
    with pytest.raises(ArithmeticError, match="critical classes disagree"):
        analyze(p)  # ...unless debug checks run Yun's decomposition


@pytest.mark.parametrize("a, b", [(3, 2), (4, 1), (2, 5)])
def test_a_two_root_identity_side_certifies_the_classes_of_yun(monkeypatch, debug_checks, a, b):
    """P' = 6 u^a (u - 1)^b with u = 2x + 3, an affine image of
    x^a (x - 1)^b, has two distinct roots: g P'' = h P' gives Yun's
    decomposition of P' with no Yun run, and P at the two rational
    critical points certifies the shape with no value image.  Under
    debug checks Yun runs once, and resultant_shift once per class."""
    debug_checks(False)
    u = poly_of(3, 2)
    dp = rat(6) * u**a * (u - poly_of(1)) ** b
    p = Poly([0] + [c / (k + 1) for k, c in enumerate(dp.coeffs)])
    assert p.derivative() == dp
    kernels = ("squarefree_decomposition", "_value_image_mod_p", "resultant_shift", "poly_gcd")
    counts = count_calls(monkeypatch, kernels)
    cs = analyze(p)
    assert not counts and cs.image is not None
    assert cs.classes == squarefree_decomposition(dp).parts
    assert sorted(c.multiplicity for c in cs.classes) == sorted((a, b))
    assert {f for f, _ in cs.values} == {poly_of(-p(x), 1) for x in (rat(-3, 2), -1)}
    debug_checks(True)  # Yun checks the classes; resultant_shift checks each piece
    assert analyze(p) == cs and counts["squarefree_decomposition"] == 1
    assert counts["resultant_shift"] == len(cs.classes)


def test_a_two_root_side_with_p_dividing_its_lc_runs_no_yun(monkeypatch, debug_checks):
    """P' = p x^2 (x - 1), p = GCD_PRIME: the tests modulo p decline on a
    P' whose leading coefficient p divides, but g P'' = h P' over Q names
    its two classes with no Yun run."""
    debug_checks(False)
    dp = rat(GCD_PRIME) * poly_of(0, 0, 1) * poly_of(-1, 1)
    counts = count_calls(monkeypatch, ("squarefree_decomposition",))
    cs = analyze(integral(dp, 0))
    assert not counts
    assert cs.classes == squarefree_decomposition(dp).parts


small_rats = st.builds(rat, st.integers(-4, 4), st.integers(1, 3))
nonzero_rats = small_rats.filter(bool)


@st.composite
def affine_two_root_polys(draw):
    """u P(a x + b) + v for P = (x - beta)^i (x - gamma)^j or its
    integral: P' has at most two distinct roots, or exactly three."""
    beta, gamma = draw(small_rats), draw(small_rats)
    i, j = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    assume(i + j >= 2)
    f = poly_of(-beta, 1) ** i * poly_of(-gamma, 1) ** j
    p = integral(f, draw(small_rats)) if draw(st.booleans()) else f
    a, b, u, v = draw(nonzero_rats), draw(small_rats), draw(nonzero_rats), draw(small_rats)
    return u * p.shift_argument(b).scale_argument(a) + Poly.constant(v)


@st.composite
def three_root_heavy_polys(draw):
    """P' = (x - alpha)^i (x - beta)^j (x - gamma)^k, three distinct roots
    and one of them repeated."""
    roots = draw(st.lists(small_rats, min_size=3, max_size=3, unique=True))
    exps = draw(st.lists(st.integers(1, 4), min_size=3, max_size=3).filter(lambda e: max(e) >= 2))
    f = reduce(lambda acc, re: acc * poly_of(-re[0], 1) ** re[1], zip(roots, exps), Poly.one())
    return integral(draw(nonzero_rats) * f, draw(small_rats))


@st.composite
def colliding_value_polys(draw):
    """Critical values taken more than once: T_n, x^4 - 2x^2 and
    compositions R(S(x))."""
    kind = draw(st.sampled_from(["chebyshev", "w", "composition"]))
    if kind == "chebyshev":
        return chebyshev(draw(st.integers(3, 12)))
    if kind == "w":
        return poly_of(0, 0, -2, 0, 1)
    r, s = (draw(polys_deg2plus(max_degree=3)) for _ in "rs")
    return reduce(lambda acc, c: acc * s + Poly.constant(c), reversed(r.coeffs), Poly.zero())


def _scaled_by_p(p, where):
    """The draw with its leading coefficient, or a denominator, divisible by GCD_PRIME."""
    if where == "lc":
        return p + Poly.monomial(GCD_PRIME, p.degree + 1)
    return p * rat(1, GCD_PRIME) + Poly.monomial(rat(1, GCD_PRIME), 1)


@given(
    p=st.one_of(
        polys_deg2plus(max_degree=10),
        affine_two_root_polys(),
        three_root_heavy_polys(),
        colliding_value_polys(),
        st.builds(_scaled_by_p, polys_deg2plus(max_degree=6), st.sampled_from(["lc", "den"])),
    )
)
@settings(deadline=None, max_examples=250)
def test_analyze_equals_the_yun_first_route(p):
    """The two-root identity, the one-class certificate and Yun's
    fallback give what Yun's classes with one image each give."""
    cs, ref = analyze(p), yun_first_analyze(p)
    assert cs.classes == ref.classes
    assert cs.image == ref.image
    assert cs.shape == ref.shape
    assert cs.values == ref.values


def test_a_two_root_derivative_reaches_no_image_of_its_own(monkeypatch, debug_checks):
    """theorem3_pair(18): P' = c x^18 (x - 1) and Q' of the same two-root
    kind; g P'' = h P' names both critical points of each side, so no
    side takes a value image, a Yun decomposition or a shift, and the
    matching compares the pieces y - P(a) with no gcd."""
    debug_checks(False)
    kernels = ("_value_image_mod_p", "squarefree_decomposition", "resultant_shift", "poly_gcd")
    counts = count_calls(monkeypatch, kernels)
    pair = random_affine_image(theorem3_pair(18), random.Random(26))
    for cs in (pair.critical_p(), pair.critical_q()):
        assert [c.factor.degree for c in cs.classes] == [1, 1] and cs.image is not None
    assert pair.matching().matched_pair_count == 2
    assert not counts


@given(p=polys_deg2plus())
@settings(deadline=None, max_examples=80)
def test_multiplicity_mass_identity(p):
    cs = analyze(p)
    assert sum(c.multiplicity * c.factor.degree for c in cs.classes) == p.degree - 1
    for c in cs.classes:
        assert c.factor.lc == 1
    assert sum(f.degree * len(mults) for f, mults in cs.values) == sum(c.factor.degree for c in cs.classes)


def test_pair_normalization_and_shape_counts():
    pair = PolynomialPair(poly_of(0, 0, 1), poly_of(0, 0, 0, 1))
    assert pair.swapped and (pair.n, pair.m) == (3, 2)
    with pytest.raises(ValueError):
        PolynomialPair(poly_of(0, 1), poly_of(0, 0, 1))


@pytest.mark.parametrize(
    "roundtrip", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))]
)
def test_pair_and_verdict_copies_keep_the_orientation(roundtrip):
    pairs = ((poly_of(0, 0, 1), poly_of(0, 0, 0, 1)), (poly_of(0, -3, 0, 1), poly_of(1, 0, 1)))
    for pair in [PolynomialPair(p, q) for p, q in pairs] + [theorem3_pair(3)]:
        out = roundtrip(pair)
        assert (out.p, out.q, out.swapped) == (pair.p, pair.q, pair.swapped)
        assert out == pair and hash(out) == hash(pair)
        assert out.matching() == pair.matching()
        verdict = classify(pair)
        copied = roundtrip(verdict)
        assert copied.pair.swapped == pair.swapped and copied.rule == verdict.rule
        assert copied == verdict and hash(copied) == hash(verdict)


def test_pairs_are_equal_by_their_sides():
    p, q = poly_of(0, -3, 0, 1), poly_of(1, 0, 1)
    pair = PolynomialPair(p, q)
    pair.matching()  # a filled cache takes no part in equality
    assert PolynomialPair(p, q) == pair and hash(PolynomialPair(p, q)) == hash(pair)
    assert PolynomialPair(q, p) != pair  # the same sides, swapped
    assert pair != (p, q)


def test_subleading_support_index():
    assert PolynomialPair(poly_of(0, 1, 0, 0, 0, 0, 0, 1), poly_of(0, 0, 1)).n0 == 1
    assert PolynomialPair(poly_of(0, 0, 0, 0, 0, 1), poly_of(0, 0, 1)).n0 == 0
    assert PolynomialPair(poly_of(0, 0, 0, 1, 0, 1), poly_of(0, 0, 1)).n0 == 3


def test_match_pairs_shared_values():
    # P = Q = x^3 - 3x: both critical values shared, multiplicity 1 each
    pair = PolynomialPair(poly_of(0, -3, 0, 1), poly_of(0, -3, 0, 1))
    m = match_pairs(pair)
    assert m.matched_points == ((1, 1), (1, 1))
    assert m.matched_pair_count == 2
    assert m.unmatched_p_mass == 0 and m.unmatched_q_mass == 0
    assert m.p_multiset == (1, 1) and m.q_multiset == (1, 1)


def test_match_pairs_disjoint_values():
    pair = PolynomialPair(poly_of(0, 1, 0, 0, 0, 0, 0, 1), poly_of(0, 2, 0, 0, 0, 0, 0, 1))
    m = match_pairs(pair)
    assert m.matched_points == ()
    assert m.unmatched_p_mass == 6 and m.unmatched_q_mass == 6
    assert m.unmatched_p_points == (1,) * 6 and m.unmatched_q_points == (1,) * 6


def test_match_pairs_unequal_degree_overlap():
    # x^5 and x^2 share the critical value 0
    pair = PolynomialPair(poly_of(0, 0, 0, 0, 0, 1), poly_of(0, 0, 1))
    m = match_pairs(pair)
    assert m.matched_points == ((4, 1),)
    assert theorem1_lhs(m) == 3
    assert corollary1_lhs(m) == 0


def test_unmatched_masses_sum_the_unmatched_points():
    # x^4 vs x^4 - 2x^2 + 1 fails hypothesis I on Q (value 1 at 0, value
    # 0 at +-1): P's triple point at 0 is matched twice, so the matched
    # mass exceeds deg - 1, and the masses count only unmatched points
    m = match_pairs(PolynomialPair(poly_of(0, 0, 0, 0, 1), poly_of(1, 0, -2, 0, 1)))
    assert m.matched_points == ((3, 1), (3, 1))
    assert (m.unmatched_p_points, m.unmatched_q_points) == ((), (1,))
    assert (m.unmatched_p_mass, m.unmatched_q_mass) == (0, 1)
    assert theorem1_lhs(m) == 4 and corollary1_lhs(m) == 1


def test_certified_sides_sharing_values_run_one_euclid_modulo_p():
    # x^3 - 3x and its image under x -> 2x + 1 both have values +-2: the
    # images mod p are not coprime, and the exact pieces' gcds run the
    # remainder sequence alone, with no second Euclid modulo p
    p = poly_of(0, -3, 0, 1)
    pair = PolynomialPair(p, p(poly_of(1, 2)))
    assert pair.critical_p().image is not None and pair.critical_q().image is not None
    calls, real = [], critical._coprime_mod_p

    def recording(a, b):
        calls.append((len(a), len(b)))
        return real(a, b)

    with mock.patch.object(critical, "_coprime_mod_p", recording), mock.patch.object(
        rpoly, "_coprime_mod_p", recording
    ):
        m = match_pairs(pair)
    assert m.matched_points == ((1, 1), (1, 1))
    assert calls == [(3, 3)]


def test_threshold_counts_on_pinned_pairs():
    pair = PolynomialPair(poly_of(0, 0, 0, 0, 0, 1), poly_of(0, 1, 0, 0, 0, 1))
    m = match_pairs(pair)
    assert theorem1_lhs(m) == 4
    pair = PolynomialPair(poly_of(0, 1, 0, 0, 0, 0, 0, 1), poly_of(0, 2, 0, 0, 0, 0, 0, 1))
    m = match_pairs(pair)
    assert theorem1_lhs(m) == 6 and corollary1_lhs(m) == 6


def _class_value_parts(p: Poly) -> list:
    """(class multiplicity, value Yun part, points per value) for every
    Yun class of P', each class shifted on its own."""
    return [
        (mult, f, j)
        for factor, mult in squarefree_decomposition(p.derivative()).parts
        for f, j in squarefree_decomposition(resultant_shift(factor, p)).parts
    ]


def _matching_reference(pair: PolynomialPair):
    """(matched, unmatched P, unmatched Q, every shared value taken by
    one point on each side) by the per-class route: j*k*deg gcd matched
    pairs per pair of value parts, unmatched points against the other
    side's distinct critical values."""
    p_parts, q_parts = _class_value_parts(pair.p), _class_value_parts(pair.q)
    matched = []
    for pm, pf, j in p_parts:
        for qm, qf, k in q_parts:
            matched += [(pm, qm)] * (j * k * poly_gcd(pf, qf).degree)
    rad_p = squarefree_part(_all_values(pair.p))
    rad_q = squarefree_part(_all_values(pair.q))

    def unmatched(parts, other_rad):
        left = [
            [mult] * (j * (f.degree - poly_gcd(f, other_rad).degree)) for mult, f, j in parts
        ]
        return tuple(sorted((mult for ms in left for mult in ms), reverse=True))

    # a shared value taken by a P points and b Q points gives a*b pairs
    simple = len(matched) == poly_gcd(rad_p, rad_q).degree
    return (
        tuple(sorted(matched, reverse=True)),
        unmatched(p_parts, rad_q),
        unmatched(q_parts, rad_p),
        simple,
    )


# x^4 + 2x^3 + x^2/2 - x/2 + 1: two of its three critical points share a value
_TWO_POINT_VALUE = Poly([rat(1), rat(-1, 2), rat(1, 2), rat(2), rat(1)])


@given(
    p=st.one_of(polys_deg2plus(max_degree=6), polys_multiclass()),
    q=st.one_of(polys_deg2plus(max_degree=6), polys_multiclass()),
)
# shared values taken by several critical points
@example(p=poly_of(0, 0, 4, 0, 1), q=poly_of(0, 0, 4, 0, 1))  # x^4 + 4x^2
@example(p=_TWO_POINT_VALUE, q=_TWO_POINT_VALUE)
@example(p=poly_of(0, 0, 0, 0, 1), q=poly_of(1, 0, -2, 0, 1))  # l0 = 2: two tacnodes
@example(p=_SHARED_ZERO, q=poly_of(0, 0, 1))  # certified images y(y + 1) and y share 0
@settings(deadline=None, max_examples=40)
def test_match_pairs_aggregate_invariants(p, q):
    pair = PolynomialPair(p, q)
    m = match_pairs(pair)
    *reference, simple = _matching_reference(pair)
    assert [m.matched_points, m.unmatched_p_points, m.unmatched_q_points] == reference
    assert m.matched_points == tuple(sorted(m.matched_points, reverse=True))
    # with every shared value taken by one point on each side, each
    # critical point is matched once or unmatched, and the matched and
    # unmatched points determine the rest
    if simple:
        assert m.p_multiset == tuple(
            sorted([pm for pm, _ in m.matched_points] + list(m.unmatched_p_points), reverse=True)
        )
        assert m.q_multiset == tuple(
            sorted([qm for _, qm in m.matched_points] + list(m.unmatched_q_points), reverse=True)
        )
        # masses: matched + unmatched account for every critical point,
        # with multiplicity, on each side
        assert sum(pm for pm, _ in m.matched_points) + m.unmatched_p_mass == pair.n - 1
        assert sum(qm for _, qm in m.matched_points) + m.unmatched_q_mass == pair.m - 1
        rebuilt = make_matching(
            m.matched_points, m.unmatched_p_points, m.unmatched_q_points,
            deg=(m.deg_p, m.deg_q),
        )
        assert rebuilt == m
    # exchanging the roles twice gives back the matching and its indices
    mirrored, index_map = _mirrored_matching(m)
    back, back_map = _mirrored_matching(mirrored)
    assert back == m
    assert all(index_map[back_map[i]] == i for i in range(1, m.matched_pair_count + 1))


def test_homogenized_meta_bookkeeping():
    pair = PolynomialPair(poly_of(0, 1, 0, 0, 0, 0, 0, 1), poly_of(0, 2, 0, 0, 0, 0, 0, 1))
    meta = homogenized_meta(pair)
    assert (meta.n, meta.m) == (7, 7)
    assert meta.z2_exponent_in_dz2 == 5  # n == m: inner degree max(n0, m0) = 1

    pair = PolynomialPair(poly_of(0, 0, 0, 0, 0, 1), poly_of(0, 0, 1))
    meta = homogenized_meta(pair)
    assert meta.z2_exponent_in_dz2 == 2  # n > m: inner degree m = 2
