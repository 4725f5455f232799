"""High-precision numeric corroboration of the exact critical-value data.

Everything here is a cross-check: complex critical points are
approximated by disks, their values are clustered, and the cluster
picture is compared against what the exact layer claims.  Two disks
that stay disjoint count as distinct; overlap proves nothing and is
resolved by doubling the precision up to a cap.  Outcomes are
three-valued — agreement, disagreement, or ambiguity — and none of them
ever feeds a verdict.

The arithmetic is fixed point on Gaussian integers: at a precision step
of b bits, a complex number is a pair of Python ints (re, im) standing
for (re + i·im)·2^-F with F = b + 64, so a multiply-add is a few big-int
operations.  Roots start from Aberth–Ehrlich sweeps in double precision,
or, when the doubles cannot hold the polynomial, from circles whose
radii come from its Newton polygon.  Weierstrass sweeps refine them over
a ladder of doubling precisions up to the requested one, in the scale
of the largest root when all roots are small; each doubling of an
oracle's precision seeds its one sweep run with the previous step's
iterates.  A root disk's radius is 2n·|w| for the final
Weierstrass correction w plus 256 units of 2^-F.  It does not bound the
rounding in w, and the root disks are not proven pairwise disjoint
(ROADMAP item 8), so root disks are estimates, not certificates.  A
value disk's radius is the drift of the polynomial over its root disk,
a relative slack, and a proven bound on the rounding of its own
fixed-point Horner evaluation.  Two disks overlap when an exact integer
comparison of the squared distance of their centres with the squared
sum of their radii says so.

Each quantity is computed at the precision its use needs.  Iterates,
residuals p(z) and value-disk centres are fixed point at 2^-F.  The
Weierstrass denominator prod_(j != i) (z_i - z_j) is a floating-form
mantissa of min(bits of the residual, F) + 64 bits, since the
correction is no more accurate than the residual it divides.  The
terms of a value disk's radius are upper bounds at the fixed scale
2^-64.  The comparisons of disks are exact.  ``mpmath`` is imported only by
:func:`complex_roots` and :class:`ComplexApprox`, to hand results out as
``mpf`` numbers; the oracles never load it.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from math import isqrt

from .critical import (
    DEFAULT_PRECISION,
    PRECISION_CAP,
    PairMatching,
    PolynomialPair,
    analyze,
)
from .rpoly import Poly, is_squarefree

_GUARD = 64
# the double-precision start: Aberth–Ehrlich sweeps, and the residual,
# relative to the Horner rounding bound sum |a_k| |z|^k, below which a
# root stops moving
_FLOAT_SWEEPS = 50
_FLOAT_EPS = 2.0**-48


class OracleOutcome(enum.Enum):
    AGREE = "Agree"
    DISAGREE = "Disagree"
    AMBIGUOUS = "Ambiguous"


class ComplexApprox(namedtuple("ComplexApprox", "real imag radius")):
    """A complex approximation with an error radius, three mpmath.mpf.

    Two approximations are known-distinct only when their disks are
    disjoint; overlapping disks stay inconclusive until refined.
    """

    __slots__ = ()

    @property
    def value(self):
        import mpmath
        return mpmath.mpc(self.real, self.imag)


class PairCountOracle(
    namedtuple("PairCountOracle", "outcome precision_bits l0_numeric matched_numeric detail")
):
    """The numeric recount of the matching: an OracleOutcome, the
    precision in bits it stopped at, l0 and the matched points as the
    disks count them (None when unresolved), and a detail text."""

    __slots__ = ()

    @property
    def agrees(self) -> bool:
        return self.outcome is OracleOutcome.AGREE


class HypothesisOracle(
    namedtuple("HypothesisOracle", "outcome symbolic precision_bits cluster_sizes")
):
    """The numeric check of Hypothesis I: an OracleOutcome, the exact
    answer ``symbolic``, the precision in bits it stopped at and the
    cluster sizes of the critical-value disks, largest first."""

    __slots__ = ()


def _horner(coeffs, zr, zi, frac):
    """p(z) for the fixed-point coefficients ``coeffs`` (low to high) at
    z = (zr + i·zi)·2^-frac, every product floored to scale 2^-frac."""
    vr, vi = coeffs[-1], 0
    for c in coeffs[-2::-1]:
        vr, vi = ((vr * zr - vi * zi) >> frac) + c, (vr * zi + vi * zr) >> frac
    return vr, vi


def complex_roots(p: Poly, precision_bits: int = DEFAULT_PRECISION):
    """All complex roots of a squarefree polynomial, as disks.

    Aberth–Ehrlich sweeps in double precision give the start, or
    circles from the Newton polygon when the doubles cannot hold p, and
    Weierstrass sweeps on fixed-point Gaussian integers refine it over
    a ladder of doubling precisions (:func:`_isolate`).  The radius of
    each disk is 2 * deg(p) * |w|, for the Weierstrass correction w at
    the final iterate, plus a fixed slack of 2^-(precision_bits + 56).
    It does not bound the rounding in w, and the disks are not proven
    pairwise disjoint (ROADMAP item 8), so a disk is an estimate, not a
    certificate.  Raise the precision to shrink the disks
    (multiplicities are handled symbolically upstream, so repeated
    roots are a caller bug and raise ValueError).
    """
    import mpmath

    def mpf(man, frac):
        return mpmath.mpf((man, -frac), prec=man.bit_length() + 1)

    if p.degree < 1:
        raise ValueError(f"need a nonconstant polynomial, got degree {p.degree}")
    if not is_squarefree(p):
        raise ValueError(
            "polynomial must be squarefree for numeric root isolation "
            f"(got {p.to_string()})"
        )
    disks, (frac, _) = _isolate(p, precision_bits)
    return tuple(ComplexApprox(mpf(zr, frac), mpf(zi, frac), mpf(r, frac)) for zr, zi, r in disks)


def _circle_angle(k: int, n: int) -> float:
    """Start angle of root k of n, in half turns: a circle scrambled so
    that no start point sits on a symmetry axis of a real polynomial."""
    return (2 * k + 1) / n + 1 / (2 * n + 3)


def _float_start(p: Poly):
    """The roots of p to about double precision: Aberth–Ehrlich sweeps
    (Bini, Numer. Algorithms 13, 1996) in Python ``complex`` on the
    monic float image of p, from the scrambled circle through its Cauchy
    bound.  A root stops moving once |p(z)| is within the rounding of
    Horner's rule.  None when the image loses a nonzero coefficient to
    overflow or underflow, or the sweeps do not end on finite, pairwise
    distinct points."""
    import cmath
    n, lead = p.degree, p.num[-1]
    try:
        a = [c / lead for c in p.num]  # int / int rounds correctly
    except OverflowError:
        return None
    if not all(x for c, x in zip(p.num, a) if c):
        return None
    bound = 1 + max(abs(c) for c in a[:-1])
    zs = [cmath.rect(bound, cmath.pi * _circle_angle(k, n)) for k in range(n)]
    moving = list(range(n))
    try:
        for _ in range(_FLOAT_SWEEPS):
            still = []
            for i in moving:
                z = zs[i]
                az, v, d, e = abs(z), 1.0, 0.0, 1.0
                for c in a[-2::-1]:
                    d = d * z + v
                    v = v * z + c
                    e = e * az + abs(c)
                if abs(v) <= _FLOAT_EPS * e:
                    continue
                ratio = v / d
                s = sum(1 / (z - zs[j]) for j in range(n) if j != i)
                zs[i] = z - ratio / (1 - ratio * s)
                still.append(i)
            moving = still
            if not moving:
                break
    except (ZeroDivisionError, OverflowError):
        return None
    if not all(cmath.isfinite(z) for z in zs) or len(set(zs)) < n:
        return None
    return zs


def _fixed(x: float, frac: int) -> int:
    """floor(x·2^frac) for a finite float x and frac >= 0, exactly."""
    num, den = x.as_integer_ratio()
    return (num << frac) // den


def _polygon_start(p: Poly, frac: int):
    """Fixed-point start points on circles whose radii come from the
    upper convex hull of the points (k, log2|a_k|) (Bini, Numer.
    Algorithms 13, 1996): an edge from k to k + m carries m points on
    the circle of radius (|a_k| / |a_(k+m)|)^(1/m), scrambled as
    :func:`_circle_angle` does and turned by 2k/n half turns.  A root 0
    gets a point on the smallest circle, 2^16 units, and no circle is
    smaller."""
    import cmath
    n = p.degree
    hull = []
    for point in ((k, math.log2(abs(c))) for k, c in enumerate(p.num) if c):
        while len(hull) > 1:
            (k0, l0), (k1, l1) = hull[-2], hull[-1]
            if (k1 - k0) * (point[1] - l0) < (l1 - l0) * (point[0] - k0):
                break
            hull.pop()
        hull.append(point)
    rings = [(0, hull[0][0], -frac)] if hull[0][0] else []
    rings += [(k0, k1 - k0, (l0 - l1) / (k1 - k0)) for (k0, l0), (k1, l1) in zip(hull, hull[1:])]
    zs = []
    for k0, m, log_radius in rings:
        whole = max(math.floor(log_radius), 16 - frac)
        scale = 2.0 ** max(0.0, log_radius - whole)
        for j in range(m):
            z = cmath.rect(scale, cmath.pi * (_circle_angle(j, m) + 2 * k0 / n))
            zs.append((_fixed(z.real, frac + whole), _fixed(z.imag, frac + whole)))
    return zs


def _log2_root_radius(p: Poly) -> float:
    """log2 of rho = max_k |a_(n-k) / a_n|^(1/k), the largest radius of
    the Newton polygon, or 0 for p = x: every root of p lies within
    2·rho (Fujiwara)."""
    n, lead = p.degree, math.log2(abs(p.num[-1]))
    return max(((math.log2(abs(c)) - lead) / (n - k) for k, c in enumerate(p.num[:-1]) if c), default=0.0)


def _correction(coeffs, zs, i, frac):
    """Weierstrass correction p(z_i) / prod_(j != i) (z_i - z_j) of the
    monic polynomial with fixed-point coefficients ``coeffs``, at scale
    2^-frac; None when z_i coincides with another iterate.

    The residual v = p(z_i) is a full fixed-point Horner at 2^-frac.
    The product is kept in floating form, an int mantissa times a power
    of two renormalised after each factor, so that close iterates do not
    cost it relative precision.  Its mantissa keeps
    min(bits of v, frac) + 64 bits: w = v / d is no more accurate than
    v, whose Horner rounding is a few units, so near convergence the
    product runs on mantissas of 64-128 bits.  Then
    w = v·conj(d) / |d|^2 takes one exact integer division per part."""
    zr, zi = zs[i]
    vr, vi = _horner(coeffs, zr, zi, frac)
    top = min(max(abs(vr), abs(vi)).bit_length(), frac) + _GUARD
    dr, di, e = 1, 0, 0
    for j, (ur, ui) in enumerate(zs):
        if j != i:
            ur, ui = zr - ur, zi - ui
            dr, di = dr * ur - di * ui, dr * ui + di * ur
            shift = max(0, max(abs(dr), abs(di)).bit_length() - top)
            dr, di, e = dr >> shift, di >> shift, e + shift - frac
    norm = dr * dr + di * di
    if not norm:
        return None
    nr, ni = vr * dr + vi * di, vi * dr - vr * di
    if e >= 0:
        norm <<= e
    else:
        nr, ni = nr << -e, ni << -e
    return nr // norm, ni // norm


def _isolate(p: Poly, precision_bits: int, iterates=None):
    """complex_roots for a p already proven nonconstant and squarefree,
    on fixed-point Gaussian integers: (disks, iterates).  A disk is
    (re, im, radius) at scale 2^-F, F = precision_bits + 64, and the
    iterates are (F, points in y as below).

    Iterates from an earlier call at a lower precision seed a single
    Weierstrass run at ``precision_bits``.  Without them the start is
    :func:`_float_start`, or :func:`_polygon_start` when the doubles
    cannot hold p, and Weierstrass runs on the ladder
    ceil(precision_bits / 2^j) for j = k, ..., 1, 0, whose lowest level
    is the first one at most 64 bits; iterates move up a level by a left
    shift.  A level of L bits computes its iterates, monic coefficients
    and residuals at 2^-(L + 64), and each correction's denominator at
    the precision of its residual (:func:`_correction`).  For rho the
    Newton polygon's largest radius rounded up to a power of two, the
    sweeps run on y = x / min(1, rho), and each level sweeps until
    every correction in y is below
    2^-(level + 32) * max(1, rho), or until its iteration cap.  The
    radius is 2n·|w| + 256 units for the correction w at the final
    iterate, rounded up, plus 2 units when y is scaled back to x; an
    iterate that coincides with another keeps a zero correction, and
    the two disks share a centre.
    """
    n, log_rho = p.degree, _log2_root_radius(p)
    # the iterates stand for y = 2^shift·x, the roots of the monic
    # p(2^-shift·y), so that roots that are all small keep their
    # relative precision; the disks are scaled back to x
    shift = max(0, -math.ceil(log_rho))
    target = 2 * (_GUARD // 2 + max(0, math.ceil(log_rho)))  # log2 of the squared bound
    if iterates is not None:
        levels, (frac, zs) = [precision_bits], iterates
    else:
        levels = [precision_bits]
        while levels[0] > 64:
            levels.insert(0, -(-levels[0] // 2))
        frac = levels[0] + _GUARD
        start = _float_start(p)
        if start is not None:
            zs = [(_fixed(z.real, frac + shift), _fixed(z.imag, frac + shift)) for z in start]
        else:
            zs = _polygon_start(p, frac + shift)
    for prec in levels:
        up, frac = prec + _GUARD - frac, prec + _GUARD
        zs = [(zr << up, zi << up) for zr, zi in zs]
        coeffs = [(c << (frac + shift * (n - k))) // p.num[-1] for k, c in enumerate(p.num)]
        for _ in range(200 + 20 * n + prec // 8):
            worst = 0
            for i in range(n):
                w = _correction(coeffs, zs, i, frac)
                if w is not None:
                    wr, wi = w
                    zs[i] = (zs[i][0] - wr, zs[i][1] - wi)
                    worst = max(worst, wr * wr + wi * wi)
            if worst.bit_length() <= target:
                break
    disks = []
    for i, (zr, zi) in enumerate(zs):
        wr, wi = _correction(coeffs, zs, i, frac) or (0, 0)
        w = -(-(isqrt(wr * wr + wi * wi) + 1) >> shift)
        disks.append((zr >> shift, zi >> shift, 2 * n * w + 256 + 2 * (shift > 0)))
    return tuple(disks), (frac, zs)


def _scale_up(x: int, e: int) -> int:
    """ceil(x·2^e) for an int x."""
    return x << e if e >= 0 else -(-x >> -e)


def _modulus_up(xr: int, xi: int, frac: int) -> int:
    """An upper bound of |xr + i·xi|·2^-frac at scale 2^-64, from the
    top 64 bits of the larger part."""
    s = max(0, max(abs(xr), abs(xi)).bit_length() - 64)
    ar, ai = (abs(xr) >> s) + 1, (abs(xi) >> s) + 1
    return _scale_up(isqrt(ar * ar + ai * ai) + 1, s + 64 - frac)


def _value_disks(p: Poly, roots, frac: int) -> list:
    """Disks (re, im, radius) at scale 2^-frac that hold p(z) for every
    z in each root disk (re, im, radius) of ``roots``.

    The centre is fixed-point Horner at the root's centre, at 2^-frac.
    The radius is the sum of three terms, each rounded up: the drift of
    p over the root disk, by the mean-value bound
    r·sum_k k|a_k| (|z| + r)^(k-1); a slack of
    (|centre| + drift + 1)·2^-(frac - 8); and 3·sum_k (|z| + r)^k units
    of 2^-frac, which bounds the rounding of the coefficients and of
    Horner's products.  The sums, |z| and |centre| are upper bounds at
    the fixed scale 2^-64, |z| and |centre| from the top 64 bits of
    their parts, so only the centre costs products of frac bits."""
    den = p.den
    coeffs = [(c << frac) // den for c in p.num]
    slopes = [-((-k * abs(c) << 64) // den) for k, c in enumerate(p.num) if k]
    disks = []
    for zr, zi, r in roots:
        cr, ci = _horner(coeffs, zr, zi, frac)
        reach = _modulus_up(zr, zi, frac) + _scale_up(r, 64 - frac)
        power, powers, slope = 1 << 64, 1 << 64, 0
        for k_mag in slopes:
            slope += -(-k_mag * power >> 64)
            power = -(-power * reach >> 64)
            powers += power
        drift = -(-r * slope >> 64)
        # 256 units stand for the 1, and one unit rounds up each shift
        slack = (_modulus_up(cr, ci, frac) >> 56) + (drift >> (frac - 8)) + 258
        disks.append((cr, ci, drift + slack + 3 * -(-powers >> 64)))
    return disks


def _cluster_indices(disks):
    """Indices of the disks (re, im, radius), grouped by overlap chains:
    two disks overlap when the squared distance of their centres is at
    most the squared sum of their radii, compared exactly.  A pair whose
    centres differ by more than that sum in one part is apart without
    the squares."""
    parent = list(range(len(disks)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, (ar, ai, ra) in enumerate(disks):
        for j in range(i + 1, len(disks)):
            br, bi, rb = disks[j]
            dr, di, reach = ar - br, ai - bi, ra + rb
            if abs(dr) <= reach and abs(di) <= reach and dr * dr + di * di <= reach * reach:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(len(disks)):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda g: (-len(g), g))


def _can_pack(cluster_sizes, parts):
    """Can the expected coincidence sizes (`parts`) be grouped so each
    observed cluster is a disjoint union of them?  Small backtracking —
    the inputs are critical-point counts, so at most ~a dozen entries."""
    cluster_sizes = sorted(cluster_sizes, reverse=True)
    parts = sorted(parts, reverse=True)
    if sum(cluster_sizes) != sum(parts):
        return False

    def fill(sizes, pool):
        if not sizes:
            return not pool
        head, rest = sizes[0], sizes[1:]

        def choose(target, pool, start):
            if target == 0:
                return fill(rest, pool)
            for k in range(start, len(pool)):
                if pool[k] <= target and (k == start or pool[k] != pool[k - 1]):
                    if choose(target - pool[k], pool[:k] + pool[k + 1 :], k):
                        return True
            return False

        return choose(head, pool, 0)

    return fill(cluster_sizes, parts)


def _steps(structures, precision_bits: int):
    """The escalation ladder both oracles judge, over the critical
    points of the given sides: at precision_bits and at every doubling
    up to PRECISION_CAP, yields (bits, tagged, groups).  ``tagged``
    holds (side index, point multiplicity, value disk) for every
    critical point, and ``groups`` the indices into it clustered by
    overlap.  The class factors come from :func:`analyze`, each
    squarefree, so none is checked again: a class from Yun's
    decomposition is squarefree by construction, and a side certified
    as the one class P' made monic has an image U with disc(U) != 0 mod
    p, which a repeated root of the class would make 0.  Each distinct
    factor is isolated once per step, seeded with its iterates from the
    step before."""
    prec, iterates = precision_bits, {}
    while True:
        roots = {}
        for cs in structures:
            for cls in cs.classes:
                f = cls.factor
                if f not in roots:
                    roots[f], iterates[f] = _isolate(f, prec, iterates.get(f))
        tagged = [
            (side, cls.multiplicity, disk)
            for side, cs in enumerate(structures)
            for cls in cs.classes
            for disk in _value_disks(cs.poly, roots[cls.factor], prec + _GUARD)
        ]
        yield prec, tagged, _cluster_indices([d for _, _, d in tagged])
        if prec * 2 > PRECISION_CAP:
            return
        prec *= 2


def corroborate_hypothesis_I(
    p: Poly,
    precision_bits: int = DEFAULT_PRECISION,
) -> HypothesisOracle:
    """Numerically re-check whether all critical values of p are simple.

    Compares the observed cluster-size multiset of the critical values
    against the exact one, ``value_multiplicities`` from :func:`analyze`.
    Distinctness is shown by disjoint disks; observed coincidence is
    only ever "consistent", so a matching picture counts as agreement
    and a split of an exact coincidence into disjoint disks is a
    disagreement.
    """
    if precision_bits < 1:
        raise ValueError(f"precision_bits must be at least 1, got {precision_bits}")
    cs = analyze(p)
    symbolic, expected = cs.hypothesis_I, cs.value_multiplicities
    for prec, _, groups in _steps([cs], precision_bits):
        sizes = tuple(sorted((len(g) for g in groups), reverse=True))
        if sizes == expected:
            return HypothesisOracle(OracleOutcome.AGREE, symbolic, prec, sizes)
        if not _can_pack(sizes, expected):
            return HypothesisOracle(OracleOutcome.DISAGREE, symbolic, prec, sizes)
    return HypothesisOracle(OracleOutcome.AMBIGUOUS, symbolic, prec, sizes)


def verify_pair_counts(
    pp: PolynomialPair,
    pm: PairMatching | None = None,
    precision_bits: int = DEFAULT_PRECISION,
) -> PairCountOracle:
    """Recount the matched critical-value pairs with error disks.

    Agreement requires the numeric clusters to reproduce the exact
    matching exactly: one P-point and one Q-point per matched value,
    the same (p, q) multiset, and the same unmatched multiplicities,
    with everything else in disjoint disks.  A matching the disks
    refute (a claimed coincidence that separates) is a disagreement;
    unresolved overlap escalates precision and then reports ambiguity.
    """
    if precision_bits < 1:
        raise ValueError(f"precision_bits must be at least 1, got {precision_bits}")
    pm = pm or pp.matching()
    if not (pp.critical_p().hypothesis_I and pp.critical_q().hypothesis_I):
        return PairCountOracle(
            OracleOutcome.AMBIGUOUS,
            precision_bits,
            None,
            None,
            "hypothesis I fails symbolically; the per-point recount is not certified",
        )
    expected_pairs = tuple(sorted(pm.matched_points, reverse=True))
    expected_unm_p = tuple(sorted(pm.unmatched_p_points, reverse=True))
    expected_unm_q = tuple(sorted(pm.unmatched_q_points, reverse=True))
    for prec, tagged, groups in _steps([pp.critical_p(), pp.critical_q()], precision_bits):
        mixed, single_p, single_q = [], [], []
        for g in groups:
            ps = [tagged[i][1] for i in g if tagged[i][0] == 0]
            qs = [tagged[i][1] for i in g if tagged[i][0] == 1]
            if len(ps) > 1 or len(qs) > 1:
                detail = "same-side values still overlap"
                break
            if ps and qs:
                mixed.append((ps[0], qs[0]))
            elif ps:
                single_p.append(ps[0])
            else:
                single_q.append(qs[0])
        else:
            got_pairs = tuple(sorted(mixed, reverse=True))
            got_p = tuple(sorted(single_p, reverse=True))
            got_q = tuple(sorted(single_q, reverse=True))
            extra = _multiset_sub(got_pairs, expected_pairs)
            missing = _multiset_sub(expected_pairs, got_pairs)
            if not extra and not missing and got_p == expected_unm_p and got_q == expected_unm_q:
                return PairCountOracle(
                    OracleOutcome.AGREE, prec, len(got_pairs), got_pairs, ""
                )
            if not extra and missing:
                return PairCountOracle(
                    OracleOutcome.DISAGREE,
                    prec,
                    len(got_pairs),
                    got_pairs,
                    f"matched pairs {list(missing)} refuted by disjoint disks",
                )
            detail = f"unconfirmed extra coincidences {list(extra)}"
    return PairCountOracle(OracleOutcome.AMBIGUOUS, prec, None, None, detail)


def _multiset_sub(a, b):
    out = list(a)
    for x in b:
        if x in out:
            out.remove(x)
    return tuple(out)

