import functools
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    check_resultant_product,
    exact_mpf,
    poly_of,
    reference_cluster_indices,
    reference_correction,
    reference_value_disk,
    squarefree_part,
    to_mpc,
    to_mpf,
)
from oracle_sweep import summary, sweep
from sepcurve import critical, numoracle
from sepcurve.critical import CriticalStructure, PolynomialPair, analyze, hypothesis_I, match_pairs
from sepcurve.instances import random_polynomial
from sepcurve.parsepoly import parse_poly
from sepcurve.numoracle import (
    OracleOutcome,
    complex_roots,
    corroborate_hypothesis_I,
    verify_pair_counts,
)
from sepcurve.rationals import rat
from sepcurve.rpoly import is_squarefree


def test_roots_of_x2_plus_1():
    roots = complex_roots(poly_of(1, 0, 1), 128)
    assert len(roots) == 2
    imags = sorted(complex(to_mpc(r)).imag for r in roots)
    assert abs(imags[0] + 1) < 1e-30 and abs(imags[1] - 1) < 1e-30
    assert all(r.radius < Fraction(1, 10**30) for r in roots)


def test_roots_match_known_irrational():
    roots = complex_roots(poly_of(-3, 0, 1), 128)
    with mpmath.workprec(200):
        s3 = mpmath.sqrt(3)
        reals = sorted(to_mpc(r).real for r in roots)
        radius = exact_mpf(roots[0].radius)
        assert abs(reals[0] + s3) < radius + mpmath.mpf("1e-35")
        assert abs(reals[1] - s3) < radius + mpmath.mpf("1e-35")


def test_roots_pairwise_disjoint():
    roots = complex_roots(poly_of(0, -1, 0, 1), 256)  # x^3 - x
    reals = sorted(complex(to_mpc(r)).real for r in roots)
    assert all(abs(a - b) < 1e-60 for a, b in zip(reals, (-1, 0, 1)))
    for i, a in enumerate(roots):
        for b in roots[i + 1 :]:
            assert abs(to_mpc(a) - to_mpc(b)) > exact_mpf(a.radius + b.radius)


@given(coeffs=st.lists(st.integers(-50, 50), min_size=2, max_size=9), lead=st.integers(1, 9))
@settings(deadline=None, max_examples=20)
@pytest.mark.parametrize("bits", [64, 256, 1024])
def test_disks_are_the_exact_dyadic_fixed_point_values(bits, coeffs, lead):
    p = squarefree_part(poly_of(*coeffs, rat(lead, 7)))
    assume(p.degree >= 1)
    disks, _ = numoracle._isolate(p, bits)
    unit = 2 ** (bits + numoracle._GUARD)
    for approx, disk in zip(complex_roots(p, bits), disks, strict=True):
        for field, x in zip(approx, disk, strict=True):
            assert type(field) is Fraction and field.denominator & (field.denominator - 1) == 0
            assert field == Fraction(x, unit)


@functools.cache
def _reference_roots(p, bits):
    # mpmath's own Durand-Kerner at twice the isolation's working precision
    with mpmath.workprec(2 * (bits + numoracle._GUARD)):
        return mpmath.polyroots(
            [to_mpf(c) for c in reversed(p.coeffs)], maxsteps=200
        )


def _assert_one_root_per_disk(p, bits, ref=None):
    disks = complex_roots(p, bits)
    ref = _reference_roots(p, bits) if ref is None else ref
    assert len(disks) == len(ref) == p.degree
    with mpmath.workprec(2 * (bits + numoracle._GUARD)):
        inside = [[abs(r - to_mpc(d)) <= exact_mpf(d.radius) for r in ref] for d in disks]
    assert all(sum(row) == 1 for row in inside), (p, bits)
    assert all(sum(col) == 1 for col in zip(*inside)), (p, bits)


# the reference at 8320 bits takes 1-3 s per polynomial past degree 6
ISOLATION_CASES = [(64, 12), (256, 12), (1024, 12), (4096, 6)]


def _seeded_squarefree(bits, top):
    rng = random.Random(bits)
    for d in range(1, top + 1):
        cs = [rat(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(d)]
        lc = rat(rng.choice((-1, 1)) * rng.randint(1, 99), rng.randint(1, 9))
        yield squarefree_part(poly_of(*cs, lc))


@pytest.mark.parametrize("bits, top", ISOLATION_CASES)
def test_isolation_against_mpmath_polyroots(bits, top):
    for p in _seeded_squarefree(bits, top):
        _assert_one_root_per_disk(p, bits)


def _value_disk_cases(bits, top):
    """(s, P): the seeded squarefree s with a random P, and even s and P
    whose values at the roots +-a of s coincide in pairs."""
    rng = random.Random(f"value-disks/{bits}")
    for s in _seeded_squarefree(bits, top):
        yield s, poly_of(*(rat(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(rng.randint(2, 9))))
    for d in range(1, top // 2 + 1):
        s = squarefree_part(poly_of(*[c for _ in range(d) for c in (rng.randint(-9, 9) or 1, 0)], 1))
        yield s, poly_of(*[c for _ in range(rng.randint(1, 4)) for c in (rat(rng.randint(-9, 9), rng.randint(1, 3)), 0)], 1)


@pytest.mark.parametrize("bits, top", ISOLATION_CASES)
def test_integer_value_disks_against_the_mpf_reference(bits, top):
    # each fixed-point value disk holds P(root) for the mpmath.polyroots
    # root of s in its root disk, evaluated at twice the working
    # precision; and the exact integer clustering of the value disks is
    # the reference's, from the mpf value disks of the same root disks
    frac = bits + numoracle._GUARD
    coincident = 0
    for s, p in _value_disk_cases(bits, top):
        roots, _ = numoracle._isolate(s, bits)
        disks = numoracle._value_disks(p, roots, frac)
        with mpmath.workprec(2 * frac):
            for (zr, zi, r), (cr, ci, vr) in zip(roots, disks):
                z = mpmath.mpc(mpmath.ldexp(zr, -frac), mpmath.ldexp(zi, -frac))
                (ref,) = [x for x in _reference_roots(s, bits) if abs(x - z) <= mpmath.ldexp(r, -frac)]
                value = mpmath.polyval([to_mpf(c) for c in reversed(p.coeffs)], ref)
                center = mpmath.mpc(mpmath.ldexp(cr, -frac), mpmath.ldexp(ci, -frac))
                assert abs(value - center) <= mpmath.ldexp(vr, -frac), (s, p, bits)
        with mpmath.workprec(frac):
            coeffs = [to_mpf(c) for c in p.coeffs]
            reference = [reference_value_disk(coeffs, root) for root in complex_roots(s, bits)]
        groups = numoracle._cluster_indices(disks)
        assert groups == reference_cluster_indices(reference), (s, p, bits)
        coincident += len(groups) < len(disks)
    assert coincident >= top // 2 - 1


def _exact_value(p, zr, zi, frac):
    """p((zr + i·zi)·2^-frac) times 2^frac, exactly, as (re, im, den)
    for (re + i·im) / den: Horner on integers over the common
    denominator p.den·2^(frac·deg p)."""
    vr, vi = 0, 0
    for j, c in enumerate(reversed(p.num)):
        vr, vi = vr * zr - vi * zi + (c << (frac * j)), vr * zi + vi * zr
    return vr << frac, vi << frac, p.den << (frac * p.degree)


def _holds(disk, value):
    cr, ci, r = disk
    vr, vi, den = value
    return (vr - cr * den) ** 2 + (vi - ci * den) ** 2 <= (r * den) ** 2


def _rim(r):
    """Six offsets of modulus exactly r, for r a multiple of 5."""
    return [(r, 0), (-r, 0), (0, r), (0, -r), (3 * r // 5, 4 * r // 5), (-3 * r // 5, -4 * r // 5)]


def _assert_value_disks_hold(p, bits, radii):
    # the value disk of each root of p as a point (radius 0) holds p's
    # exact value there, and the value disk of each root widened to a
    # radius r in ``radii`` holds p on its rim
    frac = bits + numoracle._GUARD
    roots, _ = numoracle._isolate(squarefree_part(p), bits)
    points = [(zr, zi, 0) for zr, zi, _ in roots]
    for (zr, zi, _), disk in zip(points, numoracle._value_disks(p, points, frac)):
        assert _holds(disk, _exact_value(p, zr, zi, frac)), (p, bits)
    for r in radii:
        widened = [(zr, zi, r) for zr, zi, _ in roots]
        for (zr, zi, _), disk in zip(widened, numoracle._value_disks(p, widened, frac)):
            for er, ei in _rim(r):
                assert _holds(disk, _exact_value(p, zr + er, zi + ei, frac)), (p, bits, r)


@pytest.mark.parametrize("bits", [64, 256, 4096])
def test_value_disks_cover_rounding_and_drift(bits):
    # at the roots of P, of modulus 2-3, where the relative slack is small
    # and Horner's rounding is not, and on the rim of wide root disks,
    # at points a 3-4-5 triangle puts exactly there
    rng = random.Random(bits)
    frac = bits + numoracle._GUARD
    for n in (4, 8, 12, 16):
        p = poly_of(-rng.randint(2**n, 3**n), *(rng.randint(-3, 3) for _ in range(n - 1)), 1)
        _assert_value_disks_hold(p, bits, [5 << (frac - 12)])
    # at the edges of the 2^-64 scale the radius terms are bounded at:
    # 2^(e·n)·P(2^-e x) has roots of modulus 2^e times 2-3, for
    # e = +-70, and coefficients far above or below 2^-64; root radii
    # run from 5 units to 5·2^40, far below and far above 2^-64
    radii = [5, 5 << (frac - 80), 5 << (frac - 12), 5 << (frac + 40)]
    for n in (4, 8):
        q = [-rng.randint(2**n, 3**n), *(rng.randint(-3, 3) for _ in range(n - 1)), 1]
        for e in (70, -70):
            _assert_value_disks_hold(poly_of(*(rat(c) * rat(2) ** (e * (n - k)) for k, c in enumerate(q))), bits, radii)


@pytest.mark.parametrize("bits", [64, 256, 1024, 4096])
def test_isolation_without_a_float_image(bits):
    # 10^-400 and 2^-1100 underflow in the monic float image, so the
    # start is the scrambled circle and not the Aberth sweeps in doubles
    for p in (poly_of(1, -(10**400), 0, 10**400), poly_of(1, -2, rat(1, 2**1100), 1)):
        assert numoracle._float_start(p) is None
        _assert_one_root_per_disk(p, bits)


def test_isolation_of_roots_that_are_all_small():
    # 2^2990 x^13 - 1 and 2^3000 x^3 + 1 have all their roots of modulus
    # 2^-230 and 2^-1000, below 2^-F at the lowest ladder levels; the
    # sweeps run in the scale of the largest root, where the monic
    # coefficients do not floor to 0 or -1 unit
    bits = 1024
    for e, d, c in ((230, 13, -1), (1000, 3, 1)):
        unit = _reference_roots(poly_of(c, *[0] * (d - 1), 1), bits)
        with mpmath.workprec(2 * (bits + numoracle._GUARD)):
            ref = [y / 2**e for y in unit]
        _assert_one_root_per_disk(poly_of(c, *[0] * (d - 1), 2 ** (e * d)), bits, ref)


def test_newton_polygon_start_on_roots_far_apart():
    # 2^-1100 x^12 + x - 1 has a root near 1 and eleven of modulus about
    # 2^100, and its monic float image underflows; started on one circle
    # through the Cauchy bound 2^1100, the sweeps converge only linearly
    # and stop at their cap on disks far too wide
    p = poly_of(-1, 1, *[0] * 10, rat(1, 2**1100))
    assert numoracle._float_start(p) is None
    started = time.perf_counter()
    disks = complex_roots(p, 64)
    assert time.perf_counter() - started < 0.5
    assert max(d.radius for d in disks) < Fraction(1, 2**100)
    # the reference isolates the roots of p(2^100 y) / 2^100 =
    # y^12 + y - 2^-100, of moduli about 2^-100 and 1: from its unit
    # circle start it converges too slowly on p itself
    scaled = _reference_roots(poly_of(rat(-1, 2**100), 1, *[0] * 10, 1), 64)
    with mpmath.workprec(2 * (64 + numoracle._GUARD)):
        ref = [y * 2**100 for y in scaled]
    _assert_one_root_per_disk(p, 64, ref)


def _linear(a):
    return poly_of(-a, 1)


def _correction_cases(bits, top):
    """The seeded squarefree polynomials; roots 2^-20 ... 2^-300 apart;
    a triple cluster 2^-80 wide; and roots of modulus about 2^100,
    whose residuals pass 2^F."""
    yield from _seeded_squarefree(bits, top)
    for t in (20, 60, 100, 200, 300):
        yield _linear(1) * _linear(1 + rat(1, 2**t)) * _linear(-2)
    e = rat(1, 2**80)
    yield _linear(1) * _linear(1 + e) * _linear(1 - e) * _linear(-2)
    yield poly_of(-1, 1, *[0] * 10, rat(1, 2**1100))


@pytest.mark.parametrize("bits, top", ISOLATION_CASES)
def test_sized_correction_against_the_full_denominator(bits, top):
    # the Weierstrass correction with its denominator's mantissa sized to
    # the residual agrees with the one kept to F + 64 bits, on isolated
    # iterates moved by random offsets from 0 to 2^(F+8) units and with
    # two iterates made to coincide: both None together, or equal within
    # the relative error of the shorter mantissa (n - 1 roundings of
    # 2^(1.5 - top) each, in both routes) plus one unit per part
    rng = random.Random(f"correction/{bits}")
    for p in _correction_cases(bits, top):
        n = p.degree
        if n < 2:
            continue
        shift = max(0, -math.ceil(numoracle._log2_root_radius(p)))
        _, (frac, zs) = numoracle._isolate(p, bits)
        coeffs = [(c << (frac + shift * (n - k))) // p.num[-1] for k, c in enumerate(p.num)]
        for scale in (0, 8, frac // 4, frac // 2, frac - 8, frac + 8):
            moved = [
                (zr + rng.randint(-(1 << scale), 1 << scale), zi + rng.randint(-(1 << scale), 1 << scale))
                for zr, zi in zs
            ]
            if scale == 8:
                moved[1] = moved[0]
            for i in range(n):
                got = numoracle._correction(coeffs, moved, i, frac)
                ref = reference_correction(coeffs, moved, i, frac)
                assert (got is None) == (ref is None) == (i < 2 and scale == 8), (p, bits, scale, i)
                if got is None:
                    continue
                vr, vi = numoracle._horner(coeffs, *moved[i], frac)
                top_bits = min(max(abs(vr), abs(vi)).bit_length(), frac) + numoracle._GUARD
                size = abs(ref[0]) + abs(ref[1]) + 2
                for a, b in zip(got, ref):
                    assert abs(a - b) << top_bits <= (size * n << 3) + (1 << top_bits), (p, bits, scale, i)


def _fixed_coeffs(p, frac):
    """The monic fixed-point coefficients of p at scale 2^-frac, floored."""
    return [(c << frac) // p.num[-1] for c in p.num]


def test_correction_outputs_are_pinned():
    # recorded from a denominator loop that renormalised after every
    # factor, to keep the loop bit-identical: iterates near the roots of
    # x^3 - 7x + 6, far from them (the mantissa is cut), two that
    # coincide, and the triple cluster at F = 192
    frac = 64
    one = 1 << frac
    coeffs = _fixed_coeffs(_linear(1) * _linear(2) * _linear(-3), frac)
    near = [(one + (one >> 20), 3 << 30), (2 * one - (one >> 10), -(5 << 20)), (-3 * one + 12345, one >> 40)]
    far = [(5 * one, one), (-one, 7 * one), (one >> 3, -(one >> 5))]
    cases = [
        (coeffs, near, 0, frac, (17609382723632, 3224374290)),
        (coeffs, near, 2, frac, (12347, 16780489)),
        (coeffs, far, 1, frac, (63269123950736637425, 105749821460516951125)),
        (coeffs, [near[0], near[0], near[2]], 1, frac, None),
    ]
    frac = 192
    one, e, f = 1 << frac, 1 << (frac - 80), 1 << (frac - 40)
    eps = rat(1, 2**80)
    coeffs = _fixed_coeffs(_linear(1) * _linear(1 + eps) * _linear(1 - eps) * _linear(-2), frac)
    cluster = [(one + 3 * f, f), (one - f // 2, -f), (one + e, 5 * e), (-2 * one + 999, -77)]
    cases += [
        (coeffs, cluster, 0, frac, (
            14052900358958977747125376791396556460546734426,
            1756612544888045257395586559887658470249902189,
        )),
        (coeffs, cluster, 1, frac, (
            219576568105813360315928456204861416500202379,
            -1756612544862083773102907462049335792156506224,
        )),
        (coeffs, cluster, 2, frac, (257904174850311650043333, -193428131137660436750326)),
        (coeffs, cluster, 3, frac, (998, -77)),
    ]
    for coeffs, zs, i, frac, want in cases:
        assert numoracle._correction(coeffs, zs, i, frac) == want, (zs, i, frac)


def _corrections_by_rung(p, bits, iterates=None):
    """Run _isolate(p, bits, iterates) and return ({rung bits:
    [correction]}, its result): every correction it computes, in order,
    a disk pass last."""
    real, seen = numoracle._correction, {}

    def recording(coeffs, zs, i, frac):
        w = real(coeffs, zs, i, frac)
        seen.setdefault(frac - numoracle._GUARD, []).append(w)
        return w

    with mock.patch.object(numoracle, "_correction", recording):
        result = numoracle._isolate(p, bits, iterates)
    return seen, result


def _below(w, log2_bound):
    return w is not None and (w[0] ** 2 + w[1] ** 2).bit_length() <= 2 * log2_bound


def test_each_rung_below_the_top_only_seeds_the_next():
    # a rung below the top stops once its corrections are below
    # 2^-(L/2 + 16)·max(1, rho): here the first sweep from the double
    # start and the first from the rung below each reach it; the top
    # rung takes one improving sweep and then its stop sweep, whose
    # corrections are all below 2^-(L + 32)·max(1, rho) and are its
    # disk pass
    p = random_polynomial(random.Random("rungs"), 9, 9, sparse=False)
    assert p.degree == 9 and is_squarefree(p)
    n, grow = p.degree, max(0, math.ceil(numoracle._log2_root_radius(p)))
    seen, _ = _corrections_by_rung(p, 256)
    assert sorted(seen) == [64, 128, 256]
    assert len(seen[64]) == len(seen[128]) == n
    top = seen[256]
    assert len(top) == 2 * n
    assert all(_below(w, 32 + grow) for w in top[-n:])


def _radius(w, n, shift):
    return 2 * n * -(-(math.isqrt(w[0] ** 2 + w[1] ** 2) + 1) >> shift) + 256 + 2 * (shift > 0)


def test_a_seeded_doubling_ends_on_its_stop_sweep():
    # the cubic class of x^4 - 2x^2 + 2^-3000 x, seeded from its
    # 2048-bit iterates at 4096 bits: one improving sweep and the stop
    # sweep, each of n corrections taken at the same iterates, and no
    # correction after it; each radius comes from the stop sweep's w at
    # the iterates the disks are centred on, which it leaves as they are
    (cls,) = analyze(poly_of(0, rat(1, 2**3000), -2, 0, 1)).classes
    f = cls.factor
    n, shift = f.degree, max(0, -math.ceil(numoracle._log2_root_radius(f)))
    _, iterates = numoracle._isolate(f, 2048)
    seen, (disks, (frac, zs)) = _corrections_by_rung(f, 4096, iterates)
    assert list(seen) == [4096] and len(seen[4096]) == 2 * n
    stop = seen[4096][-n:]
    assert all(_below(w, 32) for w in stop)
    assert frac == 4096 + numoracle._GUARD
    assert [(zr >> shift, zi >> shift) for zr, zi in zs] == [d[:2] for d in disks]
    assert [d[2] for d in disks] == [_radius(w, n, shift) for w in stop]


@pytest.mark.parametrize("bits", [64, 256, 4096])
def test_a_linear_factor_starts_on_its_root(bits):
    # one correction, at the requested precision, and no double start or
    # ladder; x - 2^-700 runs in the scale y = 2^700 x
    cases = [
        (poly_of(1, 3), rat(-1, 3)),
        (poly_of(rat(7, 3), -5), rat(7, 15)),
        (poly_of(rat(-1, 2**700), 1), rat(1, 2**700)),
    ]
    for p, root in cases:
        with mock.patch.object(numoracle, "_float_start", side_effect=AssertionError("no double start")):
            seen, ((disk,), _) = _corrections_by_rung(p, bits)
        assert list(seen) == [bits] and len(seen[bits]) == 1, (p, bits)
        frac = bits + numoracle._GUARD
        assert _holds(disk, (root.numerator << frac, 0, root.denominator)), (p, bits)


@pytest.mark.parametrize("bits", [256, 1024, 4096])
def test_a_cluster_below_rounding_ends_its_rungs(bits):
    # within about 2^158 units of the triple cluster p(z) is rounding
    # noise, and the corrections there can cycle far above the stop
    # target; each rung ends once every residual is within Horner's
    # rounding, far below its sweep cap
    eps = rat(1, 2**80)
    p = _linear(1) * _linear(1 + eps) * _linear(1 - eps) * _linear(-2)
    seen, _ = _corrections_by_rung(p, bits)
    for rung, ws in seen.items():
        assert len(ws) // p.degree <= (200 + 20 * p.degree + rung // 8) // 4, (bits, rung, len(ws))
    assert sum(map(len, seen.values())) < 600


def test_rounding_floor_holds_at_exact_roots():
    # at a root that fixed point holds exactly, the computed residual is
    # rounding alone (of the coefficients, which the 1/3 makes inexact,
    # and of every product), so it is within the bound at every modulus
    # of the root; 2^(frac/2) units away it is not
    for frac in (64, 320):
        for r in (rat(1, 2), rat(-3, 2**20), rat(5 * 2**40), rat(-(2**90))):
            p = _linear(r) * poly_of(rat(1, 3), 0, 1) * _linear(rat(1, 2**12))
            coeffs = _fixed_coeffs(p, frac)
            root = (int(r * 2**frac), 0)
            assert numoracle._at_rounding_floor(coeffs, [root, ((1 << frac) >> 12, 0)], frac), (frac, r)
            off = (root[0] + (1 << (frac // 2)), root[1])
            assert not numoracle._at_rounding_floor(coeffs, [root, off], frac), (frac, r)


def test_oracles_run_without_mpmath():
    # a None entry in sys.modules makes every ``import mpmath`` raise
    # ImportError: the CLI, both oracles and complex_roots must not need
    # it, and pyproject.toml keeps it out of the runtime dependencies
    root = pathlib.Path(__file__).parent.parent
    code = (
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "from sepcurve import cli\n"
        "from sepcurve.critical import PolynomialPair\n"
        "from sepcurve.numoracle import complex_roots, corroborate_hypothesis_I, verify_pair_counts\n"
        "from sepcurve.parsepoly import parse_poly\n"
        "code = cli.main(['classify', '--p=x^5', '--q=x^5 + x', '--json', '--witness', '--oracle', 'both'])\n"
        "p, q = parse_poly('x^4 - 2*x^2 + 1/3*x'), parse_poly('x^3 - 3*x')\n"
        "print(code, corroborate_hypothesis_I(p).outcome.value, verify_pair_counts(PolynomialPair(p, q)).outcome.value,\n"
        "      len(complex_roots(p)), file=sys.stderr)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        check=True,
    )
    report = json.loads(out.stdout)
    assert (report["verdict"], report["oracle"]["numeric"]["outcome"]) == ("Hyperbolic", "Agree")
    assert out.stderr.split() == ["0", "Agree", "Agree", "4"]
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
    assert any(req.startswith("mpmath") for req in project["optional-dependencies"]["test"])


def test_oracle_answers_replay_the_golden_file():
    # summaries recorded before the oracles moved to fixed-point
    # integers (tests/oracle_sweep.py --write-golden): random draws of
    # degree 2-10, the 2^-k ladders on both sides of the 4096-bit cap
    # and theorem3_pair images
    golden = pathlib.Path(__file__).parent / "golden" / "oracle.jsonl"
    for line in golden.read_text().splitlines():
        record = json.loads(line)
        polys = [parse_poly(text) for text in record["inputs"]]
        assert summary(polys) == record["summary"], record["inputs"]


def test_oracles_cross_check_the_whole_corpus():
    # both oracles on every corpus pair: the recount is Ambiguous exactly
    # where Hypothesis I fails symbolically and Agree everywhere else, and
    # every side's simple-value picture is corroborated, so no answer is
    # Disagree
    corpus = pathlib.Path(__file__).parent / "golden" / "corpus.jsonl"
    simple = Counter()
    for line in corpus.read_text().splitlines():
        text = json.loads(line)["input"]
        pair = PolynomialPair(parse_poly(text["p"]), parse_poly(text["q"]))
        certified = pair.critical_p().hypothesis_I and pair.critical_q().hypothesis_I
        want = OracleOutcome.AGREE if certified else OracleOutcome.AMBIGUOUS
        assert verify_pair_counts(pair).outcome is want, text
        for side in (pair.p, pair.q):
            assert corroborate_hypothesis_I(side).outcome is OracleOutcome.AGREE, (text, side)
        simple[certified] += 1
    assert simple == {True: 244, False: 32}


def test_oracle_sweep_compare_finds_no_difference(capsys, debug_checks):
    """tests/oracle_sweep.py's compare over all of its items.  Debug
    checks are off for it: their reruns take the sweep from about 4 s
    to about 50 s."""
    debug_checks(False)
    assert sweep(write=False) == 0
    assert capsys.readouterr().out == "3080 items, 0 differ\n"


def test_non_squarefree_input_refused():
    with pytest.raises(ValueError, match="squarefree"):
        complex_roots(poly_of(0, 0, 1))


def test_oracle_trusts_yuns_classes_squarefree():
    # x^4 - 2x^2 + 2^-2000 x climbs to 2048 bits over four precision
    # steps; its one critical class factor, a cubic, comes from Yun's
    # decomposition and is squarefree by construction: no step proves it
    p = poly_of(0, rat(1, 2**2000), -2, 0, 1)
    calls = []

    def counting(f):
        calls.append(f)
        return is_squarefree(f)

    with mock.patch.object(numoracle, "is_squarefree", counting):
        assert corroborate_hypothesis_I(p).precision_bits == 2048
        verify_pair_counts(PolynomialPair(p, p))
        assert calls == []


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


@pytest.mark.parametrize("claimed", [(2,), (3,)])
def test_hypothesis_corroboration_disagrees_with_a_wrong_exact_picture(claimed):
    # x^3 - 3x has critical values 2 and -2 in disjoint disks: an exact
    # picture with both points at one value, or with three points, is
    # refuted at the first step
    wrong = property(lambda self: claimed)
    with mock.patch.object(CriticalStructure, "value_multiplicities", wrong):
        rep = corroborate_hypothesis_I(poly_of(0, -3, 0, 1))
    assert rep.outcome is OracleOutcome.DISAGREE
    assert (rep.precision_bits, rep.cluster_sizes) == (256, (1, 1))


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
    assert rep.outcome is OracleOutcome.AGREE and rep.l0_numeric == 2

    rep = verify_pair_counts(
        PolynomialPair(poly_of(0, 0, 0, 0, 0, 1), poly_of(0, 1, 0, 0, 0, 1))
    )
    assert rep.outcome is OracleOutcome.AGREE and rep.l0_numeric == 0


def test_pair_count_refutes_a_wrong_matching(monkeypatch):
    diagonal = match_pairs(PolynomialPair(poly_of(0, -3, 0, 1), poly_of(0, -3, 0, 1)))
    monkeypatch.setattr(critical, "match_pairs", lambda pair: diagonal)
    rep = verify_pair_counts(PolynomialPair(poly_of(0, -3, 0, 1), poly_of(1, 0, 0, 1)))
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
        s = squarefree_part(random_polynomial(rng, 2, 5))
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
        assert rep.outcome is OracleOutcome.AGREE, (pair, rep.detail)
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
