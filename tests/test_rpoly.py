import copy
import pickle
import random
import sys
from collections import Counter
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    columnwise_value_image_mod_p,
    poly_of,
    reassemble,
    reference_gcd,
    reference_resultant,
    reference_ring,
    reference_squarefree_decomposition,
    reference_to_string,
    reference_value_image_mod_p,
    squarefree_part,
    terms_of,
)
from sepcurve import rpoly
from sepcurve.classify import classify
from sepcurve.critical import PolynomialPair
from sepcurve.instances import random_polynomial
from sepcurve.rationals import Rat, rat
from sepcurve.rpoly import (
    GCD_PRIME,
    Poly,
    _exact_div,
    is_squarefree,
    poly_gcd,
    resultant,
    resultant_shift,
    squarefree_decomposition,
)

rationals = st.builds(rat, st.integers(-9, 9), st.integers(1, 6))
polys = st.builds(Poly, st.lists(rationals, max_size=8))
nonzero_polys = polys.filter(lambda p: not p.is_zero)
small_polys = st.builds(Poly, st.lists(rationals, max_size=5))
bits70 = st.builds(rat, st.integers(-(2**70), 2**70), st.integers(1, 2**65))
dyadic = st.builds(lambda s, k: rat(s, 2**k), st.sampled_from([-3, -1, 1, 3]), st.integers(0, 4800))


@st.composite
def spiked_polys(draw, max_degree, spike, spikes):
    """Small rational coefficients, degree <= max_degree, with up to
    `spikes` of them replaced by `spike` draws.  The sizes keep the
    Euclid-over-Q references under a second per call."""
    size = draw(st.integers(0, max_degree + 1))
    cs = draw(st.lists(rationals, min_size=size, max_size=size))
    for _ in range(draw(st.integers(0, spikes)) if cs else 0):
        cs[draw(st.integers(0, len(cs) - 1))] = draw(spike)
    return Poly(cs)


# degree <= 24 with a 70-bit / 65-bit coefficient, or degree <= 4 with 2^-k, k <= 4800
wide_polys = st.one_of(spiked_polys(24, bits70, 1), spiked_polys(4, dyadic, 2))

# draws aimed at the gcd certificate modulo p = GCD_PRIME
P = GCD_PRIME
p_multiples = st.builds(lambda k, e: rat(k * P**e), st.integers(-3, 3).filter(bool), st.integers(1, 3))
p_lead_polys = st.builds(  # a leading coefficient divisible by p: the certificate declines
    lambda p, k: p + Poly.monomial(k * P, p.degree + 1), small_polys, st.integers(-2, 2).filter(bool)
)
modular_polys = st.one_of(spiked_polys(8, p_multiples, 3), p_lead_polys)


@st.composite
def roots_shared_mod_p(draw):
    """(x - r) f against (x - r - k p) g: a root shared modulo p only,
    so the certificate must not certify unless f and g cancel it."""
    r, k = draw(st.integers(-5, 5)), draw(st.integers(-2, 2).filter(bool))
    f, g = (draw(small_polys.filter(lambda p: p.degree >= 1)) for _ in range(2))
    return poly_of(-r, 1) * f, poly_of(-r - k * P, 1) * g


def test_construction_normalizes_trailing_zeros():
    assert poly_of(1, 2, 0, 0) == poly_of(1, 2)
    assert poly_of(1, 2, 0, 0).degree == 1
    assert Poly.zero().degree == -1
    assert Poly.monomial(3, 4) == poly_of(0, 0, 0, 0, 3)


def test_evaluation_and_derivative():
    p = poly_of(1, -3, 0, 0, 0, 1)  # x^5 - 3x + 1
    assert p(rat(2)) == 32 - 6 + 1
    assert p.derivative() == poly_of(-3, 0, 0, 0, 5)
    assert Poly.constant(7).derivative().is_zero


@given(a=small_polys, b=nonzero_polys)
@settings(deadline=None, max_examples=60)
def test_kernel_results_keep_normalized_rational_coefficients(a, b):
    q, r = divmod(a, b)
    transformed = (a.derivative(), a.scale_argument(rat(-2, 3)), a.shift_argument(rat(-1, 2)))
    for p in (a + b, a - b, a * b, -a, q, r, *transformed, a(b), b.monic()):
        assert all(type(c) is Rat for c in p.coeffs)
        assert not p.coeffs or p.coeffs[-1] != 0
        # the canonical num/den form: positive den, nothing common, no trailing zero
        assert all(type(c) is int for c in p.num) and type(p.den) is int
        assert p.den > 0 and gcd(p.den, *p.num) == 1
        assert not p.num or p.num[-1] != 0
        assert Poly(p.coeffs) == p and hash(Poly(p.coeffs)) == hash(p)
    assert all(type(c) is Rat for c in Poly([1, 2, 3]).derivative().coeffs)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        divmod(poly_of(1, 1), Poly.zero())


def test_argument_transforms():
    p = poly_of(1, 0, 1)  # x^2 + 1
    assert p.shift_argument(1) == poly_of(2, 2, 1)  # (x+1)^2 + 1
    assert p.scale_argument(2) == poly_of(1, 0, 4)
    x = rat(5, 3)
    q = p.shift_argument(rat(-1, 2)).scale_argument(rat(3))
    assert q(x) == p(3 * x - rat(1, 2))


@given(p=st.one_of(polys, wide_polys), a=st.one_of(rationals, bits70))
def test_shift_argument_matches_composition(p, a):
    shifted = p.shift_argument(a)
    assert shifted == p(Poly((a, 1)))
    assert all(type(c) is Rat for c in shifted.coeffs)
    assert shifted.shift_argument(-a) == p


@given(a=polys, b=polys, c=polys)
def test_ring_laws(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a + b == b + a and a * b == b * a


# zero, constants, monomials c*x^k and dense polys, with small rational
# or 70-bit coefficients
ring_coeffs = st.one_of(rationals, bits70)
ring_polys = st.one_of(
    st.just(Poly.zero()),
    st.builds(Poly.constant, ring_coeffs),
    st.builds(Poly.monomial, ring_coeffs, st.integers(0, 6)),
    st.builds(Poly, st.lists(ring_coeffs, max_size=6)),
)


@given(a=ring_polys, b=ring_polys, k=st.integers(0, 9))
@example(a=Poly.zero(), b=Poly.zero(), k=0)  # 0^0 = 1
@settings(deadline=None)
def test_ring_kernels_match_fraction_arithmetic(a, b, k):
    want = reference_ring(terms_of(a), terms_of(b), k)
    got = {"+": a + b, "-": a - b, "neg": -a, "*": a * b, "**": a**k}
    for op, p in got.items():
        assert terms_of(p) == want[op], op
        # the canonical num/den form: positive den, nothing common, no trailing zero
        assert type(p.num) is tuple and all(type(c) is int for c in p.num) and type(p.den) is int
        assert p.den > 0 and gcd(p.den, *p.num) == 1
        assert not p.num or p.num[-1] != 0


# divisors: small, wide, constant, and non-monic by a wide scalar
divisors = st.one_of(
    nonzero_polys,
    wide_polys.filter(lambda p: not p.is_zero),
    st.builds(Poly.constant, st.one_of(rationals, bits70, dyadic).filter(bool)),
    st.builds(lambda p, c: p * c, nonzero_polys, st.one_of(bits70, dyadic).filter(bool)),
)


@given(a=st.one_of(polys, wide_polys), b=divisors)
@settings(deadline=None)
def test_divmod_identity(a, b):
    # q * b + r == a with deg r < deg b pins (q, r) uniquely over Q
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero or r.degree < b.degree


@given(a=polys, b=polys)
def test_derivative_is_a_derivation(a, b):
    assert (a * b).derivative() == a.derivative() * b + a * b.derivative()
    assert (a + b).derivative() == a.derivative() + b.derivative()


@given(a=nonzero_polys, b=nonzero_polys, c=nonzero_polys)
@settings(deadline=None)
def test_gcd_common_factor(a, b, c):
    g = poly_gcd(a * c, b * c)
    assert (g % c.monic()).is_zero  # the shared factor survives
    assert g.is_zero or g.lc == 1


@given(p=nonzero_polys)
@settings(deadline=None)
def test_squarefree_part_properties(p):
    sf = squarefree_part(p)
    assert is_squarefree(sf)
    assert (p % sf).is_zero
    # same roots: the part vanishes wherever p does (checked via gcd degree)
    assert poly_gcd(p, sf).degree == sf.degree


@given(p=nonzero_polys)
@settings(deadline=None)
def test_squarefree_decomposition_reassembles(p):
    dec = squarefree_decomposition(p)
    assert reassemble(dec) == p
    for factor, mult in dec.parts:
        assert mult >= 1
        assert factor.lc == 1
        assert is_squarefree(factor)
    for i, (f, _) in enumerate(dec.parts):
        for g, _ in dec.parts[i + 1 :]:
            assert poly_gcd(f, g).degree == 0


@st.composite
def products_of_powers(draw):
    """content * prod f_i^e_i for up to three random factors of degree
    1-3 with rational coefficients, and content of up to 200 bits."""
    content = draw(st.builds(rat, st.integers(-(2**200), 2**200).filter(bool), st.integers(1, 3**80)))
    p = Poly.constant(content)
    for _ in range(draw(st.integers(1, 3))):
        f = draw(spiked_polys(3, bits70, 1).filter(lambda f: f.degree >= 1))
        p = p * f ** draw(st.integers(1, 4))
    return p


@given(p=products_of_powers())
@settings(deadline=None, max_examples=80)
def test_squarefree_decomposition_matches_the_reference(p):
    dec = squarefree_decomposition(p)
    assert dec == reference_squarefree_decomposition(p)
    assert reassemble(dec) == p


@pytest.mark.parametrize("first_wrong_call", [0, 1, 2])
@pytest.mark.parametrize(
    "wrong",
    [
        lambda g: [1, 1],  # x + 1 divides neither operand
        lambda g: [2 * c for c in g],  # not primitive
        lambda g: list((Poly(g) ** 2).num),  # a multiple
    ],
)
def test_a_wrong_gcd_fails_the_exact_division(wrong, first_wrong_call, monkeypatch):
    """A gcd that is not a primitive divisor of its operands over Z is
    caught by the checked division, in the first step or in the loop,
    and never returned as parts."""
    p = poly_of(-1, 1) ** 2 * poly_of(2, 1) ** 3 * poly_of(3, 0, 1)  # (x-1)^2 (x+2)^3 (x^2+3)
    real, calls = rpoly._prs_gcd, []

    def patched(a, b):
        calls.append((a, b))
        g = real(a, b)
        return wrong(g) if len(calls) > first_wrong_call else g

    monkeypatch.setattr(rpoly, "_prs_gcd", patched)
    with pytest.raises(ArithmeticError, match="exact kernel division"):
        squarefree_decomposition(p)
    assert len(calls) == first_wrong_call + 1


def test_squarefree_decomposition_example():
    # (x-1)^2 * (x+2)^3 * x
    p = poly_of(-1, 1) ** 2 * poly_of(2, 1) ** 3 * poly_of(0, 1)
    dec = squarefree_decomposition(p)
    by_mult = {mult: f for f, mult in dec.parts}
    assert by_mult[1] == poly_of(0, 1)
    assert by_mult[2] == poly_of(-1, 1)
    assert by_mult[3] == poly_of(2, 1)


@pytest.mark.parametrize("k", [3, 8, 19])
def test_yun_reads_the_last_root_off_without_a_gcd_per_step(k, monkeypatch):
    """x^k (x - 1) (2x^2 + 3)^2: once x alone is left, its multiplicity
    k is read off, so the gcds are the first one and one per class found
    before, however large k is."""
    p = poly_of(0, 1) ** k * poly_of(-1, 1) * poly_of(3, 0, 2) ** 2
    expected = reference_squarefree_decomposition(p)
    real, calls = rpoly._prs_gcd, []
    monkeypatch.setattr(rpoly, "_prs_gcd", lambda a, b: calls.append(1) or real(a, b))
    assert squarefree_decomposition(p) == expected
    assert len(calls) == 3


def test_yun_runs_no_kernel_modulo_p(monkeypatch):
    """Every gcd of Yun's decomposition, its first gcd(f, f') included,
    runs the remainder sequence: a squarefree dense input, repeated
    factors, and a value polynomial decompose with the GF(p) kernels
    unavailable."""
    value = resultant_shift(poly_of(0, -1, 0, 1), poly_of(0, 0, -2, 0, 1))  # y (y + 1)^2
    for name in ("_coprime_mod_p", "_euclid_mod_p"):
        monkeypatch.setattr(rpoly, name, mock.Mock(side_effect=AssertionError(name)))
    inputs = (
        poly_of(5, -3, 7, 2, 11),
        poly_of(0, 1) ** 5 * poly_of(-1, 1) * poly_of(3, 0, 2) ** 2,
        value,
    )
    for p in inputs:
        assert squarefree_decomposition(p) == reference_squarefree_decomposition(p)
    assert squarefree_decomposition(inputs[0]).parts == ((inputs[0].monic(), 1),)
    assert [k for _, k in squarefree_decomposition(value).parts] == [1, 2]


@given(a=small_polys, b=small_polys)
@settings(deadline=None, max_examples=60)
def test_resultant_swap_sign(a, b):
    if a.degree < 1 or b.degree < 1:
        return
    sign = -1 if (a.degree * b.degree) % 2 else 1
    assert resultant(a, b) == sign * resultant(b, a)


@given(a=small_polys, b=small_polys, c=small_polys)
@settings(deadline=None, max_examples=60)
def test_resultant_multiplicative(a, b, c):
    if a.degree < 1 or b.degree < 1 or c.degree < 1:
        return
    assert resultant(a, b * c) == resultant(a, b) * resultant(a, c)


def test_resultant_detects_common_roots():
    a = poly_of(-1, 1) * poly_of(1, 1)  # roots 1, -1
    b = poly_of(-1, 1) * poly_of(3, 1)  # shares root 1
    assert resultant(a, b) == 0
    assert resultant(a, poly_of(3, 1)) != 0


def test_resultant_of_constant():
    assert resultant(Poly.constant(3), poly_of(1, 2, 3)) == 9


def _certificate_is_sound(x, y):
    """The coprimality certificate modulo p, which ``critical`` runs on
    value images, proves gcd 1 of primitive integer operands only where
    it holds."""
    if x.is_zero or y.is_zero:
        return True
    certified = rpoly._coprime_mod_p(rpoly._primitive(x.num), rpoly._primitive(y.num))
    return not certified or reference_gcd(x, y) == Poly.one()


@given(
    pair=st.one_of(
        st.tuples(wide_polys, wide_polys),
        st.tuples(st.one_of(wide_polys, modular_polys), modular_polys),
        roots_shared_mod_p(),
    )
)
@example(pair=(poly_of(0, 1, 1), poly_of(P, 1) * poly_of(2, 1)))  # x(x + 1), (x + p)(x + 2)
@example(pair=(poly_of(-1, 1) * poly_of(2, 1), poly_of(-1 - P, 1) * poly_of(0, 1)))
@settings(deadline=None, max_examples=60)
def test_integer_kernels_match_euclid_over_q(pair):
    """gcd and resultant on the integer remainder sequence equal the
    Euclid-over-Q references, and the coprimality certificate modulo p
    proves gcd 1 only where it holds, including zero, constant and
    negative-leading inputs, coefficients divisible by p and roots
    shared only modulo p."""
    a, b = pair
    for x, y in ((a, b), (-b, a)):
        g = poly_gcd(x, y)
        assert g == reference_gcd(x, y)
        assert all(type(c) is Rat for c in g.coeffs)
        res = resultant(x, y)
        assert res == reference_resultant(x, y) and type(res) is Rat
        assert _certificate_is_sound(x, y)


@given(
    a=st.one_of(spiked_polys(8, bits70, 1), spiked_polys(8, p_multiples, 3)),
    b=small_polys,
    c=st.one_of(spiked_polys(4, bits70, 1), spiked_polys(2, dyadic, 1), p_lead_polys),
    k=st.integers(1, 3),
)
# c = p x + 1 is a unit modulo p: only the leading-coefficient check keeps
# (x^2 + 3) c and (x^2 + 5) c from being certified coprime
@example(a=poly_of(3, 0, 1), b=poly_of(5, 0, 1), c=poly_of(1, P), k=1)
@settings(deadline=None, max_examples=40)
def test_integer_kernels_on_shared_and_repeated_factors(a, b, c, k):
    for x, y in ((a * c**k, b * c), (c**k, c * a)):
        assert poly_gcd(x, y) == reference_gcd(x, y)
        assert resultant(x, y) == reference_resultant(x, y)
        assert _certificate_is_sound(x, y)


def test_generic_gcds_skip_the_remainder_sequence(monkeypatch, debug_checks):
    debug_checks(False)  # its checks run Yun on both sides
    callers, prs = Counter(), rpoly._subresultant_prs  # calls by calling kernel
    monkeypatch.setattr(
        rpoly, "_subresultant_prs",
        lambda a, b: callers.update([sys._getframe(1).f_code.co_name]) or prs(a, b),
    )
    rng = random.Random(18)
    p, q = (random_polynomial(rng, 18, 18, sparse=False) for _ in range(2))
    verdict = classify(PolynomialPair(p, q))
    assert verdict.rule == "Theorem 1"
    assert callers["_prs_gcd"] == 0  # one value image proves P' squarefree: no Yun on either side
    assert callers["_int_resultant"] == 0  # no value piece is built: the shapes are certified
    assert poly_gcd(p * p, (p * p).derivative()) == p.monic()  # poly_gcd runs the sequence
    assert callers["_prs_gcd"] == 1


def test_a_divisor_found_modulo_p_is_settled_by_one_division(monkeypatch):
    """A gcd takes one remainder sequence: a divisor b of a is settled
    by its first pseudo-division, and a b that divides a only modulo p
    by the rest of the sequence."""
    calls, prs = [], rpoly._subresultant_prs
    monkeypatch.setattr(rpoly, "_subresultant_prs", lambda a, b: calls.append(1) or prs(a, b))
    b = poly_of(3, 1, 1) * poly_of(-1, 2)
    assert poly_gcd(b * poly_of(5, 0, 1), b) == b.monic()
    # (x^2 + 3)(x + p) is (x^2 + 3) x modulo p, but does not divide (x^2 + 3) x (x + 1)
    a, c = poly_of(3, 0, 1) * poly_of(0, 1, 1), poly_of(3, 0, 1) * poly_of(P, 1)
    assert poly_gcd(a, c) == reference_gcd(a, c) == poly_of(3, 0, 1)
    assert calls == [1, 1]


def _image_of_shift(s, f, p):
    """resultant_shift(s, f) reduced modulo p."""
    out = resultant_shift(s, f)
    return [c * pow(out.den, -1, p) % p for c in out.num]


@given(
    s=st.one_of(spiked_polys(7, bits70, 1), spiked_polys(3, p_multiples, 2)),
    f=st.one_of(wide_polys, modular_polys),
)
@example(s=poly_of(rat(1, P)), f=poly_of(0, 0, 1))  # den S = p
@example(s=poly_of(1, 2), f=poly_of(0, rat(1, P)))  # den P = p
@example(s=poly_of(2, 0, 1), f=poly_of(0, 1))  # S = x^3 + x^2 + 2, r = x: degrees 3, 1, 0
@settings(deadline=None, max_examples=40)
def test_value_image_is_the_shift_reduced_modulo_p(s, f):
    s = Poly((s.coeffs or (0,)) + (1,))
    image = rpoly._value_image_mod_p(s, f)
    assert image == reference_value_image_mod_p(s, f)
    if s.den % P and f.den % P:
        assert image == _image_of_shift(s, f, P)
    else:
        assert image is None


@st.composite
def critical_classes(draw):
    """(class, P) for a Yun class of P' of a dense P of degree <= 31, or
    of P with P' = g^2 h for dense g and h (multiplicities 2 and 1)."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        p = random_polynomial(rng, 2, 31, sparse=False)
    else:
        g, h = (random_polynomial(rng, lo, hi, sparse=False) for lo, hi in ((1, 5), (0, 20)))
        p_prime = g * g * h
        p = Poly([rng.randint(-5, 5)] + [c / (k + 1) for k, c in enumerate(p_prime.coeffs)])
    parts = squarefree_decomposition(p.derivative()).parts
    return parts[draw(st.integers(0, len(parts) - 1))][0], p


@given(case=critical_classes())
@settings(deadline=None, max_examples=30)
def test_value_image_at_the_class_degrees_of_dense_inputs(case):
    s, f = case
    with mock.patch.object(rpoly, "DEBUG_CHECKS", False):  # its determinant route takes seconds here
        expected = _image_of_shift(s, f, P)
    assert rpoly._value_image_mod_p(s, f) == reference_value_image_mod_p(s, f) == expected


@given(
    s=st.one_of(spiked_polys(40, bits70, 2), spiked_polys(40, p_multiples, 2)),
    f=st.one_of(spiked_polys(44, bits70, 2), modular_polys),
)
@settings(deadline=None, max_examples=60)
def test_value_image_columns_match_the_columnwise_kernel(s, f):
    s = Poly((s.coeffs or (0,)) + (1,))
    assert rpoly._value_image_mod_p(s, f) == columnwise_value_image_mod_p(s, f)


@pytest.mark.parametrize("n", [15, 16, 31, 255])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_value_image_columns_at_the_slot_bound(n, seed):
    """Residues p - 1 and p - 2 in -S mod p and in r, the largest a
    lazily reduced slot can take, at the column reduction's boundary
    (every 15 steps) and at the parser's degree cap; seed 0 puts p - 1
    everywhere."""
    rng = random.Random(seed)
    lows = [1 if not seed else rng.choice([1, 2]) for _ in range(n)]
    s = poly_of(*lows, 1)  # -S mod p has residues p - 1 and p - 2
    f = poly_of(*(-1 if not seed else rng.choice([-1, -2]) for _ in range(n)))  # r = f
    image = rpoly._value_image_mod_p(s, f)
    assert image == columnwise_value_image_mod_p(s, f)
    assert len(image) == n + 1 and image[-1] == 1


@given(s=polys, f=polys)
@example(s=poly_of(1, 0, 0, 0, 0, 2), f=poly_of(0, 1))  # deg S = 6: divides by 6
@example(s=poly_of(1, 0, 0, 0, 0, 0, 2), f=poly_of(0, 1))  # deg S = 7 = p: declines
@settings(deadline=None, max_examples=60)
def test_value_image_modulo_a_small_prime(s, f):
    """At p = 7 the Newton identities divide by every k <= deg S <= 6,
    and deg S >= 7 declines; no denominator here is divisible by 7."""
    s = Poly((s.coeffs or (0,)) + (1,))
    with mock.patch.object(rpoly, "GCD_PRIME", 7):
        image = rpoly._value_image_mod_p(s, f)
        if s.degree >= 7:
            assert image is None
        else:
            assert image == reference_value_image_mod_p(s, f) == _image_of_shift(s, f, 7)


def test_value_image_runs_no_euclid(monkeypatch):
    """The power sums need no resultant: no Euclid over GF(p), and one
    remainder, f mod S."""
    calls = Counter()
    for name in ("_euclid_mod_p", "_rem_mod_p"):
        kernel = getattr(rpoly, name)
        monkeypatch.setattr(
            rpoly, name, lambda a, b, k=kernel, n=name: calls.update([n]) or k(a, b)
        )
    f = random_polynomial(random.Random(10), 11, 11, sparse=False)
    s = f.derivative().monic()
    image = rpoly._value_image_mod_p(s, f)
    assert calls == Counter({"_rem_mod_p": 1})
    assert image == _image_of_shift(s, f, P)


@st.composite
def two_root_powers(draw):
    """lc (x - b)^i (x - c)^j of degree >= 2 with a repeated root and at
    most two distinct roots, p dividing no lc and no root's denominator."""
    b, c = (draw(st.builds(rat, st.integers(-6, 6), st.integers(1, 5))) for _ in "bc")
    i, j = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    assume(i + j >= 2 and (max(i, j) >= 2 or b == c))
    return draw(rationals.filter(bool)) * poly_of(-b, 1) ** i * poly_of(-c, 1) ** j


@given(f=two_root_powers())
@settings(deadline=None, max_examples=150)
def test_the_probe_ends_on_two_roots_and_a_repeated_one(f):
    assert rpoly._few_roots_mod_p(f)
    assert not rpoly._few_roots_mod_p(rat(P) * f)  # p divides lc


@given(f=st.one_of(polys, modular_polys, two_root_powers()))
@settings(deadline=None, max_examples=300)
def test_the_probe_ends_exactly_on_few_roots_mod_p(f):
    """The probe reads deg gcd(f, f') mod p >= max(deg f - 2, 1), the full
    Euclid's answer: never True on an f squarefree modulo p."""
    assume(f.degree >= 1)
    a = [c % P for c in f.num]
    few = False
    if a[-1] and f.degree >= 2:
        g = rpoly._euclid_mod_p(a, [k * c % P for k, c in enumerate(a)][1:])
        few = len(g) - 1 >= max(f.degree - 2, 1)
    assert rpoly._few_roots_mod_p(f) is few


@pytest.mark.parametrize(
    "f, ends",
    [
        (poly_of(0, 0, 1), True),  # x^2
        (poly_of(0, 0, 0, 1) * poly_of(-1, 1) ** 5, True),  # x^3 (x - 1)^5
        (poly_of(0, 0, 60) * poly_of(-1, 1) * poly_of(-2, 1), False),  # three roots
        (poly_of(0, -P, 1), True),  # x (x - p): squarefree over Q, x^2 modulo p
        (poly_of(-1, 0, 1), False),  # squarefree
        (poly_of(1, 1), False),  # degree 1
        (poly_of(0, 0, P), False),  # p divides lc
    ],
)
def test_the_probe_pinned(f, ends):
    assert rpoly._few_roots_mod_p(f) is ends


small_rationals = st.builds(rat, st.integers(-5, 5), st.integers(1, 4))
nonzero_rationals = small_rationals.filter(bool)


@st.composite
def at_most_two_roots(draw):
    """c (u x + v)^a (u x + w)^b, a = b or not, c g^a with g an
    irreducible quadratic, c (u x + v)^d, and every f of degree 1 or 2."""
    c, u = draw(nonzero_rationals), draw(nonzero_rationals)
    v, w = draw(small_rationals), draw(small_rationals)
    a, b = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["two", "equal", "conjugate", "one", "low"]))
    if kind == "two":
        return c * poly_of(v, u) ** a * poly_of(w, u) ** b
    if kind == "equal":
        return c * (poly_of(v, u) * poly_of(w, u)) ** a
    if kind == "conjugate":  # (x - v)^2 - k t^2, k no square
        k, t = draw(st.sampled_from([-3, -1, 2, 3, 5, 6])), draw(nonzero_rationals)
        return c * (poly_of(-v, 1) ** 2 - Poly.constant(k * t * t)) ** a
    if kind == "one":
        return c * poly_of(v, u) ** (a + b)
    f = c * Poly([v, w, draw(small_rationals)] if draw(st.booleans()) else [v, u])
    assume(f.degree >= 1)
    return f


@given(f=at_most_two_roots())
@settings(deadline=None, max_examples=300)
@example(f=poly_of(0, 1))  # x: degree 1
@example(f=poly_of(-2, 0, 1))  # x^2 - 2: one conjugate class
@example(f=poly_of(0, 0, 0, 1) * poly_of(-1, 1) ** 3)  # x^3 (x - 1)^3: one rational class
def test_two_root_parts_equal_yuns_parts(f):
    """g f' = h f read by integer relations gives what Yun gives."""
    assert rpoly._two_root_parts(f) == squarefree_decomposition(f).parts


@given(
    roots=st.lists(small_rationals, min_size=3, max_size=5, unique=True),
    exps=st.lists(st.integers(1, 4), min_size=5, max_size=5),
    c=nonzero_rationals,
)
@settings(deadline=None, max_examples=150)
@example(roots=[0, 1, 2], exps=[1, 1, 1, 1, 1], c=1)
def test_two_root_parts_decline_three_roots(roots, exps, c):
    f = c * poly_of(1)
    for r, e in zip(roots, exps):
        f *= poly_of(-r, 1) ** e
    assert rpoly._two_root_parts(f) is None
    assert rpoly._two_root_parts(f * poly_of(1, 0, 1)) is None  # and a conjugate pair


def test_two_root_parts_decline_case_6():
    # P' of 16x^5 - 20x^4 - 500x^3 is 20 x^2 (4x^2 - 4x - 75): a double
    # root and two conjugate simple ones
    dp = Poly([0, 0, 0, -500, -20, 16]).derivative()
    assert rpoly._two_root_parts(dp) is None


@pytest.mark.parametrize(
    "roundtrip", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))]
)
def test_poly_copies_and_pickles(roundtrip):
    for p in (Poly.zero(), poly_of(7), Poly([rat(-3, 4), 0, rat(5, 6)]), poly_of(1, 2) ** 9):
        out = roundtrip(p)
        assert out == p and hash(out) == hash(p)
        assert (out.num, out.den) == (p.num, p.den)


@given(
    s=st.one_of(spiked_polys(7, bits70, 1), spiked_polys(3, dyadic, 2)),
    p=wide_polys,
)
@settings(deadline=None, max_examples=30)
def test_resultant_shift_matches_resultants_off_the_nodes(s, p):
    """resultant_shift(S, P)(y) == Res(S, y - P) for monic S, at points
    other than the interpolation nodes 0..deg S."""
    s = Poly((s.coeffs or (0,)) + (1,))
    out = resultant_shift(s, p)
    assert out.degree == s.degree and out.lc == 1
    assert all(type(c) is Rat for c in out.coeffs)
    for y in (rat(-1), rat(s.degree + 1), rat(-7, 3)):
        assert out(y) == reference_resultant(s, Poly.constant(y) - p)


def test_resultant_shift_when_p_mod_s_is_constant_or_zero():
    x = Poly.x()
    assert resultant_shift(x, x * x) == poly_of(0, 1)  # P mod S = 0: y
    s = poly_of(-1, 0, 1)
    assert resultant_shift(s, x**3 - x + 4) == poly_of(16, -8, 1)  # (y - 4)^2
    assert resultant_shift(s, Poly.constant(rat(-1, 2))) == poly_of(rat(1, 4), 1, 1)


def test_exact_division_refuses_a_remainder():
    assert _exact_div(-12, 4) == -3
    with pytest.raises(ArithmeticError):
        _exact_div(7, 2)


def test_resultant_shift_example():
    # critical values of x^2 relative to x^2 - 1: both roots map to -1
    out = resultant_shift(poly_of(-1, 0, 1), poly_of(0, 0, 1))
    assert out.to_string("y") == "y^2 - 2*y + 1"


def test_resultant_shift_rejects_bad_first_argument():
    with pytest.raises(ValueError):
        resultant_shift(Poly.constant(1), poly_of(0, 0, 1))
    with pytest.raises(ValueError):
        resultant_shift(poly_of(1, 2), poly_of(0, 0, 1))  # not monic


# rational, non-monic P of degree 8-12
long_polys = st.builds(
    lambda cs, lead: Poly(cs + [lead]),
    st.lists(rationals, min_size=8, max_size=12),
    rationals.filter(lambda c: c not in (0, 1)),
)


@given(
    sdata=st.lists(st.integers(-4, 4), min_size=1, max_size=3),
    p=st.one_of(small_polys, long_polys),
)
@settings(deadline=None, max_examples=60)
def test_resultant_shift_dual_route(sdata, p):
    """With debug checks on, resultant_shift compares the integer
    interpolation route against a Sylvester determinant and raises on
    any mismatch."""
    s = Poly.one()
    for r in sdata:
        s = s * poly_of(-r, 1)
    s = squarefree_part(s)
    if p.degree < 1:
        p = poly_of(0, 0, 1)
    with mock.patch.object(rpoly, "DEBUG_CHECKS", True):
        resultant_shift(s, p)  # raises ArithmeticError if the routes disagree


@given(p=nonzero_polys)
@settings(deadline=None, max_examples=60)
def test_to_string_is_exact(p):
    # stringify, re-read via eval on the coefficients' field
    text = p.to_string()
    assert isinstance(text, str) and text
    # leading coefficient sign is never doubled
    assert "+-" not in text.replace(" ", "")


@pytest.mark.parametrize(
    "p",
    [
        Poly.zero(),
        Poly.one(),
        -Poly.one(),
        poly_of(0, 1),
        poly_of(0, -1),
        poly_of(-1, 0, 0, 1, -1),
        poly_of(rat(-1, 2), rat(3, 4), 0, rat(-5, 6), rat(1, 1)),
        poly_of(rat(2, 6), rat(-4, 6), rat(6, 6)),
        Poly.constant(rat(-7, 3)),
        poly_of(3**600, -rat(1, 7**400), 0, rat(-(2**900), 5**300)),
        poly_of(rat(3**500, 2**300), rat(-(2**300), 3**500), 1),
    ],
)
@pytest.mark.parametrize("var", ["x", "s"])
def test_to_string_matches_the_fraction_reference(p, var):
    assert p.to_string(var) == reference_to_string(p, var)


@given(p=st.one_of(polys, wide_polys, modular_polys))
@settings(deadline=None, max_examples=100)
def test_to_string_matches_the_fraction_reference_on_random_polys(p):
    assert p.to_string() == reference_to_string(p)


def _value_error(f):
    try:
        f()
    except ValueError as err:
        return str(err)
    return None


def test_to_string_past_the_digit_limit_raises_as_the_reference():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for p in (poly_of(0, 0, 3**9000 * 5**6000), poly_of(rat(1, 5**6000), 3**10000)):
            want = _value_error(lambda: reference_to_string(p))
            assert want is not None and _value_error(p.to_string) == want
    finally:
        sys.set_int_max_str_digits(saved)
