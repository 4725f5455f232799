import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import poly_of, random_perturbed_pair, reference_linear_factor, shift_for_scale
from sepcurve import linfactor
from sepcurve.classify import classify
from sepcurve.critical import PolynomialPair, match_pairs
from sepcurve.instances import (
    _nonzero_small,
    _small,
    compose_affine,
    random_linear_factor_pair,
    random_polynomial,
)
from sepcurve.linfactor import _centred, _verify, find_linear_factor
from sepcurve.parsepoly import parse_poly
from sepcurve.rationals import rat
from sepcurve.rpoly import Poly, taylor_shift


def test_diagonal_cubic_family():
    w = find_linear_factor(PolynomialPair(poly_of(0, 0, 0, 1), poly_of(0, 0, 0, 1)))
    assert w is not None
    assert w.family_size == 3  # conjugate scales: the cube roots of 1
    assert w.scale_minpoly(rat(1)) == 0
    assert shift_for_scale(w, rat(1)) == 0
    assert "y - (s*x + t)" in w.description


def test_family_past_the_digit_limit_keeps_its_verdict():
    # P = A(2x + 7^6000): the shift t has 5071 digits, past 4300
    a = poly_of(1, 1, 0, 1)
    pair = PolynomialPair(compose_affine(a, rat(2), rat(7**6000)), a)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        v = classify(pair)
        assert v.rule == "Theorem 3 case 1"
        assert v.linear_witness.description == (
            "family of 1 linear factor(s) y - (s*x + t): "
            "coefficients past the int-to-str digit limit"
        )
    finally:
        sys.set_int_max_str_digits(limit)


def test_rational_substitution_is_found_and_verified():
    a = poly_of(1, 1, 0, 1)  # x^3 + x + 1
    s, t = rat(2), rat(-1, 2)
    pair = PolynomialPair(compose_affine(a, s, t), a)
    w = find_linear_factor(pair)
    assert w is not None
    assert w.scale_minpoly(s) == 0
    assert shift_for_scale(w, s) == t
    # the witness substitution really kills the difference
    composed = compose_affine(pair.q, s, t)
    assert composed == pair.p


def test_unequal_degrees_never_match():
    assert find_linear_factor(PolynomialPair(poly_of(0, 0, 0, 1), poly_of(0, 0, 1))) is None


def test_disjoint_critical_values_no_factor():
    assert find_linear_factor(PolynomialPair(poly_of(0, -3, 0, 1), poly_of(0, 0, 0, 1))) is None


def test_constant_perturbation_kills_the_factor():
    a = poly_of(0, 1, 0, 1)
    pair = PolynomialPair(compose_affine(a, rat(3), rat(1)), a + rat(5))
    assert find_linear_factor(pair) is None


def test_random_composed_pairs_always_witnessed():
    rng = random.Random(17)
    for _ in range(25):
        pair, (s, t) = random_linear_factor_pair(rng)
        w = find_linear_factor(pair)
        assert w is not None, pair
        if not pair.swapped:
            assert w.scale_minpoly(s) == 0
            assert shift_for_scale(w, s) == t


def test_random_perturbed_pairs_rejected():
    rng = random.Random(18)
    for _ in range(25):
        pair = random_perturbed_pair(rng)
        w = find_linear_factor(pair)
        if w is not None:
            # only acceptable if the witness verifies exactly
            roots_ok = w.scale_minpoly.degree > 0
            assert roots_ok and False, f"unsound witness for {pair}"


@given(
    coeffs=st.lists(st.integers(-4, 4), min_size=2, max_size=5),
    s_num=st.integers(-3, 3).filter(bool),
    s_den=st.integers(1, 3),
    t_num=st.integers(-4, 4),
)
@settings(deadline=None, max_examples=40)
def test_composed_pair_property(coeffs, s_num, s_den, t_num):
    a = poly_of(*coeffs, 1)
    if a.degree < 2:
        return
    s, t = rat(s_num, s_den), rat(t_num, 2)
    pair = PolynomialPair(compose_affine(a, s, t), a)
    w = find_linear_factor(pair)
    assert w is not None
    if not pair.swapped:
        assert shift_for_scale(w, s) == t


def _pair(p_text, q_text):
    return PolynomialPair(parse_poly(p_text), parse_poly(q_text))


@pytest.mark.parametrize(
    "p_text,q_text",
    [
        ("x^4 + 2*x^2", "x^4 + x^2"),  # s^4 = 1 and s^2 = 2 share no root
        ("x^4 + x", "x^4 + x^2 + x"),  # centred x^2 coefficient zero on one side only
        ("x^3 + x + 1", "x^3 + x + 2"),  # only the constant terms differ
        ("x^2 + 2*x + 3", "5*x^2 + 3"),  # centred constants 2 and 3
    ],
)
def test_pinned_pairs_without_factor(p_text, q_text):
    assert find_linear_factor(_pair(p_text, q_text)) is None


def test_unequal_centred_constants_skip_both_shifts(monkeypatch):
    # a = b = 1/(6*3^10000) and p~_0 - q~_0 = P(-a) - Q(-a) = -2*a^2, so
    # the pair is rejected before either side is shifted
    calls = []
    shift = linfactor.taylor_shift
    monkeypatch.setattr(linfactor, "taylor_shift", lambda cs, u: calls.append(u) or shift(cs, u))
    # built without the parser: 3^10000 is past the int-to-str digit limit it enforces
    pair = PolynomialPair(*(poly_of(1, 0, c, 0, 0, 1, 3**10000) for c in (5, 7)))
    assert find_linear_factor(pair) is None
    assert calls == []
    assert find_linear_factor(_pair("x^3 + x", "x^3 + x")) is not None
    assert calls  # the counter sees the shifts of a pair that passes the guard


def test_negative_bezout_exponent():
    # s^5 = 32 and s^3 = 8: s = 32^2 * 8^-3 = 2
    w = find_linear_factor(_pair("32*x^5 + 8*x^3", "x^5 + x^3"))
    assert w.scale_minpoly == poly_of(-2, 1)
    assert shift_for_scale(w, rat(2)) == 0


def test_scale_family_from_exponent_gcd():
    # s^4 = 1 and s^2 = -1
    w = find_linear_factor(_pair("x^4 + x^2", "x^4 - x^2"))
    assert w.scale_minpoly == poly_of(1, 0, 1)
    assert w.shift_numerator.is_zero


@given(
    p=st.tuples(st.integers(-5, 5).filter(bool), st.integers(-5, 5), st.integers(-5, 5)),
    q=st.tuples(st.integers(-5, 5).filter(bool), st.integers(-5, 5), st.integers(-5, 5)),
)
@settings(deadline=None, max_examples=60)
def test_degree_two_factor_iff_centred_constants_agree(p, q):
    (p2, p1, p0), (q2, q1, q0) = p, q
    pair = PolynomialPair(poly_of(p0, p1, p2), poly_of(q0, q1, q2))
    centred_p0 = p0 - rat(p1 * p1, 4 * p2)
    centred_q0 = q0 - rat(q1 * q1, 4 * q2)
    w = find_linear_factor(pair)
    assert (w is not None) == (centred_p0 == centred_q0)
    if w is not None:
        assert w.scale_minpoly == Poly.monomial(1, 2) - rat(p2, q2)


def test_reverification_rejects_a_wrong_family():
    pair = _pair("x^4 + x^2", "x^4 - x^2")
    p_centred, q_centred = _centred(pair.p), _centred(pair.q)
    assert _verify(p_centred, q_centred, 2, rat(-1), Poly.zero())  # z^2 + 1
    assert not _verify(p_centred, q_centred, 2, rat(1), Poly.zero())
    assert not _verify(p_centred, q_centred, 2, rat(-1), Poly.one())
    # centred forms that do not shift back to their side: A off by one, or
    # N and A of another side with the same leading coefficient
    side, nums, centred = p_centred
    other = _centred(parse_poly("x^4 + 2*x^2"))
    for wrong in ((side, nums, [c + 1 for c in centred]), (side, *other[1:])):
        assert not _verify(wrong, q_centred, 2, rat(-1), Poly.zero())


def test_reverification_rebuilds_the_scalings():
    """Centred numerators scaled by a wrong w, with denominators scaled
    to match, agree with each other, and the search accepts them; the
    re-verification rebuilds the scalings from P and rejects them."""
    pair = _pair("x^3 + x^2", "x^3 + x^2")
    p_centred = _centred(pair.p)
    assert _verify(p_centred, p_centred, 1, rat(1), Poly.zero())
    side, nums, _ = p_centred
    w = 2 * 3  # twice the true w = n * num_n
    wrong = (side, nums, taylor_shift([c * w ** (3 - k) for k, c in enumerate(nums)], -nums[-2]))
    wrong_dens = [side.den * w ** (3 - k) for k in range(4)]
    assert linfactor._scale_binomial(wrong[2], wrong_dens, wrong[2], wrong_dens) == (1, rat(1))
    assert not _verify(wrong, wrong, 1, rat(1), Poly.zero())


def test_a_faulty_fold_never_ships_a_witness(monkeypatch):
    monkeypatch.setattr(linfactor, "_scale_binomial", lambda *forms: (2, rat(1)))
    with pytest.raises(ArithmeticError, match="re-verification"):
        find_linear_factor(_pair("x^4 + x^2", "x^4 - x^2"))


@st.composite
def linear_factor_cases(draw):
    """Pairs from every family the search has to get right, kept small
    because the quotient-ring reference is slow."""
    kind = draw(
        st.sampled_from(["composed", "perturbed", "equal", "affine", "power", "monomial"])
    )
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "composed":
        return random_linear_factor_pair(rng)[0]
    if kind == "perturbed":
        return random_perturbed_pair(rng)
    if kind == "equal":
        p = random_polynomial(rng, 2, 8)
        return PolynomialPair(p, p)
    if kind == "affine":
        p = random_polynomial(rng, 2, 7)
        images = [compose_affine(p, _nonzero_small(rng), _small(rng)) for _ in range(2)]
        return PolynomialPair(*images)
    if kind == "power":
        k = draw(st.sampled_from([2, 3]))
        a = random_polynomial(rng, 2, 4 if k == 2 else 3)(Poly.monomial(1, k))
        s = draw(st.sampled_from([rat(-1), rat(1), _nonzero_small(rng)]))
        image = compose_affine(a, s, draw(st.sampled_from([rat(0), _small(rng)])))
        return PolynomialPair(a, image + draw(st.sampled_from([0, 0, 1])))
    n = draw(st.integers(2, 8))
    c = draw(st.sampled_from([rat(1), rat(-1), rat(-8), rat(16), rat(81), rat(3, 5)]))
    return PolynomialPair(Poly.monomial(1, n), Poly.monomial(c, n))


@given(pair=linear_factor_cases())
@settings(deadline=None, max_examples=150)
def test_matches_the_quotient_ring_reference(pair):
    got, want = find_linear_factor(pair), reference_linear_factor(pair)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.scale_minpoly == want.scale_minpoly
        assert got.shift_numerator == want.shift_numerator
        assert got.shift_denominator == want.shift_denominator
        assert got.description == want.description


def _chebyshev(n):
    a, b = Poly.one(), Poly.x()
    for _ in range(n - 1):
        a, b = b, 2 * Poly.x() * b - a
    return b


_HYPOTHESIS_I_FAILS = [
    poly_of(0, 0, -2, 0, 1),  # x^4 - 2x^2: the value -1 twice
    poly_of(0, 0, 0, 1, -2, 1),  # x^3 (x - 1)^2: the value 0 in two classes
    poly_of(-1, 0, 3, 0, -3, 0, 1),  # (x^2 - 1)^3
]


@st.composite
def pairs_with_a_linear_factor(draw):
    """Two affine images of one side A, from random draws and from the
    non-generic families (A even, A = B(C(x)), Chebyshev, A failing
    Hypothesis I), or a family of e > 1 scales."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["random", "even", "composed", "chebyshev", "failing", "e > 1"]))
    if kind == "random":
        return random_linear_factor_pair(rng)[0]
    if kind == "e > 1":  # x^4 + x^2 against x^4 - x^2 (s^2 = -1), or x^6 + c against it at s*x
        c = draw(st.sampled_from([None, rat(1), rat(-2), rat(3, 5)]))
        if c is None:
            return PolynomialPair(poly_of(0, 0, 1, 0, 1), poly_of(0, 0, -1, 0, 1))
        p = Poly.monomial(1, 6) + c
        return PolynomialPair(p, p.scale_argument(_nonzero_small(rng)))
    if kind == "even":
        a = random_polynomial(rng, 1, 3)(Poly.monomial(1, 2))
    elif kind == "composed":
        a = random_polynomial(rng, 2, 3)(random_polynomial(rng, 2, 2))
    elif kind == "chebyshev":
        a = _chebyshev(draw(st.integers(2, 7)))
    else:
        a = draw(st.sampled_from(_HYPOTHESIS_I_FAILS))
    return PolynomialPair(*(compose_affine(a, _nonzero_small(rng), _small(rng)) for _ in "pq"))


@given(pair=pairs_with_a_linear_factor())
@settings(deadline=None, max_examples=80)
def test_the_matching_read_from_the_witness_is_the_exact_one(pair):
    witness = pair.linear_factor()
    assert witness is not None
    assert witness == reference_linear_factor(pair)
    assert classify(pair).linear_witness == witness
    assert pair.matching() == match_pairs(pair)  # read from the witness, then by gcds


@pytest.mark.parametrize(
    "n", [20, pytest.param(40, marks=pytest.mark.slow), pytest.param(80, marks=pytest.mark.slow)]
)
def test_a_huge_leading_coefficient_costs_the_search_alone(n, debug_checks, capsys):
    """P = 3^9000*x^n + x^(n-1) + 5x^2 + 1 against P(x + 1): the search
    runs on integers and the matching comes from the witness, so no exact
    value polynomial of 3^9000-sized coefficients is built.  The time is
    logged, not asserted."""
    debug_checks(False)  # the cross-checks build the exact pieces
    p = Poly([1, 0, 5] + [0] * (n - 4) + [1, 3**9000])
    pair = PolynomialPair(p, p.shift_argument(1))
    start = time.perf_counter()
    v = classify(pair)
    matching = pair.matching()
    with capsys.disabled():
        print(f"\n3^9000 pair at n = {n}: classify and matching in {time.perf_counter() - start:.3f} s")
    assert v.rule == "Theorem 3 case 1"
    assert v.linear_witness.scale_minpoly == poly_of(-1, 1)
    assert shift_for_scale(v.linear_witness, rat(1)) == -1
    assert matching.matched_pair_count == n - 1
