import random
from unittest import mock

import mpmath
import pytest

from helpers import check_resultant_product, poly_of
from sepcurve import numoracle
from sepcurve.critical import PolynomialPair, hypothesis_I, match_pairs
from sepcurve.instances import random_polynomial
from sepcurve.numoracle import (
    OracleOutcome,
    complex_roots,
    corroborate_hypothesis_I,
    verify_pair_counts,
)
from sepcurve.rationals import rat
from sepcurve.rpoly import is_squarefree, squarefree_part


def test_roots_of_x2_plus_1():
    roots = complex_roots(poly_of(1, 0, 1), 128)
    assert len(roots) == 2
    imags = sorted(complex(r.value).imag for r in roots)
    assert abs(imags[0] + 1) < 1e-30 and abs(imags[1] - 1) < 1e-30
    assert all(r.radius < mpmath.mpf("1e-30") for r in roots)


def test_roots_match_known_irrational():
    roots = complex_roots(poly_of(-3, 0, 1), 128)
    with mpmath.workprec(200):
        s3 = mpmath.sqrt(3)
        reals = sorted(r.value.real for r in roots)
        assert abs(reals[0] + s3) < roots[0].radius + mpmath.mpf("1e-35")
        assert abs(reals[1] - s3) < roots[0].radius + mpmath.mpf("1e-35")


def test_roots_pairwise_disjoint():
    roots = complex_roots(poly_of(0, -1, 0, 1), 256)  # x^3 - x
    reals = sorted(complex(r.value).real for r in roots)
    assert all(abs(a - b) < 1e-60 for a, b in zip(reals, (-1, 0, 1)))
    for i, a in enumerate(roots):
        for b in roots[i + 1 :]:
            assert abs(a.value - b.value) > a.radius + b.radius


def _reference_roots(p, bits):
    # mpmath's own Durand-Kerner at twice the isolation's working precision
    with mpmath.workprec(2 * (bits + numoracle._GUARD)):
        return mpmath.polyroots(
            [numoracle._to_mpf(c) for c in reversed(p.coeffs)], maxsteps=200
        )


def _assert_one_root_per_disk(p, bits):
    disks = complex_roots(p, bits)
    ref = _reference_roots(p, bits)
    assert len(disks) == len(ref) == p.degree
    with mpmath.workprec(2 * (bits + numoracle._GUARD)):
        inside = [[abs(r - d.value) <= d.radius for r in ref] for d in disks]
    assert all(sum(row) == 1 for row in inside), (p, bits)
    assert all(sum(col) == 1 for col in zip(*inside)), (p, bits)


# the reference at 8320 bits takes 1-3 s per polynomial past degree 6
@pytest.mark.parametrize("bits, top", [(64, 12), (256, 12), (1024, 12), (4096, 6)])
def test_isolation_against_mpmath_polyroots(bits, top):
    rng = random.Random(bits)
    for d in range(1, top + 1):
        cs = [rat(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(d)]
        lc = rat(rng.choice((-1, 1)) * rng.randint(1, 99), rng.randint(1, 9))
        p = squarefree_part(poly_of(*cs, lc))
        _assert_one_root_per_disk(p, bits)


@pytest.mark.parametrize("bits", [64, 256, 1024, 4096])
def test_isolation_without_a_float_image(bits):
    # 10^-400 and 2^-1100 underflow in the monic float image, so the
    # start is the scrambled circle and not the Aberth sweeps in doubles
    for p in (poly_of(1, -(10**400), 0, 10**400), poly_of(1, -2, rat(1, 2**1100), 1)):
        assert numoracle._float_start(p) is None
        _assert_one_root_per_disk(p, bits)


def test_non_squarefree_input_refused():
    with pytest.raises(ValueError, match="squarefree"):
        complex_roots(poly_of(0, 0, 1))


def test_oracle_proves_each_factor_squarefree_once():
    # x^4 - 2x^2 + 2^-2000 x climbs to 2048 bits over four precision
    # steps; its one critical class factor is a cubic
    p = poly_of(0, rat(1, 2**2000), -2, 0, 1)
    calls = []

    def counting(f):
        calls.append(f)
        return is_squarefree(f)

    with mock.patch.object(numoracle, "is_squarefree", counting):
        assert corroborate_hypothesis_I(p).precision_bits == 2048
        assert [f.degree for f in calls] == [3]
        calls.clear()
        verify_pair_counts(PolynomialPair(p, p))
        assert [f.degree for f in calls] == [3, 3]


def test_oracle_isolates_each_factor_once_per_step():
    # the same climb to 2048 bits: the first step starts the cubic from
    # scratch and every doubling resumes from the previous iterates, and
    # the pair oracle isolates the factor both sides share once per step
    p = poly_of(0, rat(1, 2**2000), -2, 0, 1)
    real, calls = numoracle._isolate, []

    def recording(f, bits, zs=None):
        calls.append((f.degree, bits, zs is None))
        return real(f, bits, zs)

    steps = [(3, 256, True), (3, 512, False), (3, 1024, False), (3, 2048, False)]
    with mock.patch.object(numoracle, "_isolate", recording):
        assert corroborate_hypothesis_I(p).precision_bits == 2048
        assert calls == steps
        calls.clear()
        assert verify_pair_counts(PolynomialPair(p, p)).precision_bits == 2048
        assert calls == steps


def test_hypothesis_corroboration_simple_and_clustered():
    rep = corroborate_hypothesis_I(poly_of(0, -3, 0, 1))
    assert rep.outcome is OracleOutcome.AGREE and rep.symbolic is True

    rep = corroborate_hypothesis_I(poly_of(0, 0, -2, 0, 1))  # x^4 - 2x^2
    assert rep.outcome is OracleOutcome.AGREE and rep.symbolic is False
    assert rep.cluster_sizes == (2, 1)


@pytest.mark.parametrize("bits", [0, -8])
def test_oracles_refuse_nonpositive_precision(bits):
    # x^3 - 3x resolves at the first precision step: without the guard
    # both oracles answer instead of hanging
    p = poly_of(0, -3, 0, 1)
    with pytest.raises(ValueError, match="precision_bits"):
        corroborate_hypothesis_I(p, precision_bits=bits)
    with pytest.raises(ValueError, match="precision_bits"):
        verify_pair_counts(PolynomialPair(p, p), precision_bits=bits)


def test_pair_count_recount_agreement():
    p = poly_of(0, -3, 0, 1)
    rep = verify_pair_counts(PolynomialPair(p, p))
    assert rep.agrees and rep.l0_numeric == 2

    rep = verify_pair_counts(
        PolynomialPair(poly_of(0, 0, 0, 0, 0, 1), poly_of(0, 1, 0, 0, 0, 1))
    )
    assert rep.agrees and rep.l0_numeric == 0


def test_pair_count_refutes_a_wrong_matching():
    diagonal = match_pairs(PolynomialPair(poly_of(0, -3, 0, 1), poly_of(0, -3, 0, 1)))
    mismatched = PolynomialPair(poly_of(0, -3, 0, 1), poly_of(1, 0, 0, 1))
    rep = verify_pair_counts(mismatched, diagonal)
    assert rep.outcome is OracleOutcome.DISAGREE
    assert "disjoint disks" in rep.detail


def test_pair_count_uncertified_without_simple_values():
    # P = x^4 - 2x^2 fails the simple-value check; the recount refuses
    # to certify rather than guess
    pair = PolynomialPair(poly_of(0, 0, -2, 0, 1), poly_of(0, -3, 0, 1))
    rep = verify_pair_counts(pair)
    assert rep.outcome is OracleOutcome.AMBIGUOUS
    assert "symbolically" in rep.detail


def test_resultant_product_formula_examples():
    assert check_resultant_product(poly_of(-3, 0, 1), poly_of(0, 0, 0, 1))
    assert check_resultant_product(poly_of(-2, 1), poly_of(5, -1, 0, 2))
    assert check_resultant_product(poly_of(1, 3, 1), poly_of(0, -3, 0, 1))


def test_resultant_product_formula_random():
    rng = random.Random(31)
    checked = 0
    while checked < 15:
        s = squarefree_part(random_polynomial(rng, 2, 5)).monic()
        if s.degree < 1:
            continue
        p = random_polynomial(rng, 2, 8)
        assert check_resultant_product(s, p)
        checked += 1


def test_hypothesis_agreement_random():
    rng = random.Random(32)
    for _ in range(25):
        p = random_polynomial(rng, 2, 8)
        rep = corroborate_hypothesis_I(p)
        assert rep.outcome is OracleOutcome.AGREE
        assert rep.symbolic == hypothesis_I(p)


def test_pair_recount_random():
    rng = random.Random(33)
    done = 0
    while done < 12:
        pair = PolynomialPair(random_polynomial(rng, 2, 6), random_polynomial(rng, 2, 6))
        if not (hypothesis_I(pair.p) and hypothesis_I(pair.q)):
            continue
        rep = verify_pair_counts(pair)
        assert rep.agrees, (pair, rep.detail)
        assert rep.l0_numeric == match_pairs(pair).matched_pair_count
        done += 1


# 2^-k perturbations against the precision ladder: (k, precision the
# oracles settle at, outcome, cluster sizes, l0)
LADDER = [
    (150, 256, OracleOutcome.AGREE, (1, 1, 1), 0),
    (500, 512, OracleOutcome.AGREE, (1, 1, 1), 0),
    (1000, 1024, OracleOutcome.AGREE, (1, 1, 1), 0),
    (2000, 2048, OracleOutcome.AGREE, (1, 1, 1), 0),
    (3500, 4096, OracleOutcome.AGREE, (1, 1, 1), 0),
    (4700, 4096, OracleOutcome.AMBIGUOUS, (2, 1), None),
]


@pytest.mark.parametrize("k, bits, outcome, sizes, l0", LADDER)
def test_escalation_ladder(k, bits, outcome, sizes, l0):
    # x^4 - 2x^2 + 2^-k x has two critical values 2^(1-k) apart near -1, and
    # x^3 - 3x against x^3 - 3x + 2^-k has every pair of values 2^-k
    # apart: each oracle climbs until its disks separate them
    eps = rat(1, 2**k)
    rep = corroborate_hypothesis_I(poly_of(0, eps, -2, 0, 1))
    assert (rep.outcome, rep.precision_bits, rep.cluster_sizes) == (outcome, bits, sizes)
    a = poly_of(0, -3, 0, 1)
    rep = verify_pair_counts(PolynomialPair(a, a + poly_of(eps)))
    assert (rep.outcome, rep.precision_bits, rep.l0_numeric) == (outcome, bits, l0)
