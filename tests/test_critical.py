import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sepcurve.critical as critical
from helpers import make_matching, poly_of
from sepcurve.classify import classify
from sepcurve.critical import (
    PolynomialPair,
    analyze,
    corollary1_lhs,
    homogenized_meta,
    hypothesis_I,
    match_pairs,
    theorem1_lhs,
)
from sepcurve.instances import random_polynomial
from sepcurve.oneforms import _mirrored_matching
from sepcurve.rationals import rat
from sepcurve.rpoly import (
    Poly,
    is_squarefree,
    resultant_shift,
    squarefree_decomposition,
    squarefree_part,
)

rationals = st.builds(rat, st.integers(-6, 6), st.integers(1, 4))


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
    assert cls.values == poly_of(-4, 0, 1)  # values are +-2
    assert cs.point_count == 2
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
    assert cls.values == poly_of(0, 1) * poly_of(1, 1) ** 2  # y (y+1)^2
    assert not hypothesis_I(poly_of(0, 0, -2, 0, 1))
    assert hypothesis_I(poly_of(0, -3, 0, 1))


def _integral(p_prime: Poly, constant) -> Poly:
    return Poly([constant] + [c / (k + 1) for k, c in enumerate(p_prime.coeffs)])


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
        return _integral(prod, draw(rationals))
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
    assert cs.radical == squarefree_part(_all_values(p))
    assert cs.value_multiplicities == _value_multiplicities_reference(p)


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
    assert all(len(c.value_parts) == 1 and c.value_parts[0][1] == 1 for c in cs.classes)
    assert (cs.radical.degree, cs.point_count) == (2, 3)
    assert not hypothesis_I(p) and not _hypothesis_I_reference(p)
    assert not hypothesis_I(poly_of(0, 0, -2, 0, 1))  # x^4 - 2x^2
    assert hypothesis_I(poly_of(0, -3, 0, 1))  # x^3 - 3x
    assert analyze(poly_of(0, -3, 0, 1)).radical == poly_of(-4, 0, 1)


def test_classify_shifts_once_per_class_per_side(monkeypatch):
    calls = []

    def counting(s, p):
        calls.append(p)
        return resultant_shift(s, p)

    monkeypatch.setattr(critical, "resultant_shift", counting)
    rng = random.Random(10)
    pair = PolynomialPair(*(random_polynomial(rng, 10, 10, sparse=False) for _ in "pq"))
    verdict = classify(pair)
    assert verdict.matching is pair.matching()
    assert calls.count(pair.p) == len(pair.critical_p().classes)
    assert calls.count(pair.q) == len(pair.critical_q().classes)
    assert len(calls) == len(pair.critical_p().classes) + len(pair.critical_q().classes)


@given(p=polys_deg2plus())
@settings(deadline=None, max_examples=80)
def test_multiplicity_mass_identity(p):
    cs = analyze(p)
    assert sum(c.multiplicity * c.factor.degree for c in cs.classes) == p.degree - 1
    for c in cs.classes:
        assert c.factor.lc == 1
        assert c.values.degree == c.factor.degree


def test_pair_normalization_and_shape_counts():
    pair = PolynomialPair(poly_of(0, 0, 1), poly_of(0, 0, 0, 1))
    assert pair.swapped and (pair.n, pair.m) == (3, 2)
    with pytest.raises(ValueError):
        PolynomialPair(poly_of(0, 1), poly_of(0, 0, 1))


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


def test_threshold_counts_on_pinned_pairs():
    pair = PolynomialPair(poly_of(0, 0, 0, 0, 0, 1), poly_of(0, 1, 0, 0, 0, 1))
    m = match_pairs(pair)
    assert theorem1_lhs(m) == 4
    pair = PolynomialPair(poly_of(0, 1, 0, 0, 0, 0, 0, 1), poly_of(0, 2, 0, 0, 0, 0, 0, 1))
    m = match_pairs(pair)
    assert theorem1_lhs(m) == 6 and corollary1_lhs(m) == 6


@given(p=polys_deg2plus(max_degree=6), q=polys_deg2plus(max_degree=6))
@settings(deadline=None, max_examples=40)
def test_match_pairs_aggregate_invariants(p, q):
    pair = PolynomialPair(p, q)
    m = match_pairs(pair)
    # masses: matched + unmatched account for every critical point,
    # with multiplicity, on each side
    assert sum(pm for pm, _ in m.matched_points) + m.unmatched_p_mass == pair.n - 1
    assert sum(qm for _, qm in m.matched_points) + m.unmatched_q_mass == pair.m - 1
    assert m.matched_points == tuple(sorted(m.matched_points, reverse=True))
    assert m.p_multiset == tuple(
        sorted([pm for pm, _ in m.matched_points] + list(m.unmatched_p_points), reverse=True)
    )
    assert sum(m.unmatched_p_points) == m.unmatched_p_mass
    # with simple values the matched and unmatched points determine the
    # rest: the synthetic builder reproduces the measured matching
    if pair.critical_p().hypothesis_I and pair.critical_q().hypothesis_I:
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
    assert (meta.n, meta.m, meta.n0, meta.m0) == (7, 7, 1, 1)
    assert meta.inner_degree == 1
    assert meta.z2_exponent_in_dz2 == 5

    pair = PolynomialPair(poly_of(0, 0, 0, 0, 0, 1), poly_of(0, 0, 1))
    meta = homogenized_meta(pair)
    assert meta.inner_degree == 2
    assert meta.z2_exponent_in_dz2 == 2
