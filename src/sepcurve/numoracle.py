"""High-precision numeric corroboration of the exact critical-value data.

Everything here is a cross-check: complex critical points are
approximated by disks, their values are clustered, and the cluster
picture is compared against what the exact layer claims.  Two disks
that stay disjoint count as distinct; overlap proves nothing and is
resolved by doubling the precision up to a cap.  Outcomes are
three-valued — agreement, disagreement, or ambiguity — and none of them
ever feeds a verdict.

Roots start from Aberth–Ehrlich sweeps in double precision, or from a
scrambled circle when the doubles cannot hold the polynomial, and are
refined by Weierstrass sweeps over a ladder of doubling precisions up
to the requested one; each doubling of an oracle's precision seeds its
one sweep run with the previous step's iterates.  A root disk's radius
is 2n·|w| for the final Weierstrass correction w plus a fixed slack.
Neither it nor the value disks account for rounding, and the root disks
are not proven pairwise disjoint (ROADMAP item 3), so the disks are
estimates, not certificates.  ``mpmath`` is imported on first use, so
importing the package or its CLI does not load it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .critical import CriticalStructure, PairMatching, PolynomialPair, analyze
from .rpoly import Poly, is_squarefree

DEFAULT_PRECISION = 256
PRECISION_CAP = 4096
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


@dataclass(frozen=True)
class ComplexApprox:
    """A complex approximation with an error radius.

    Two approximations are known-distinct only when their disks are
    disjoint; overlapping disks stay inconclusive until refined.
    """

    __slots__ = ("real", "imag", "radius")
    real: object  # mpmath.mpf
    imag: object
    radius: object

    @property
    def value(self):
        import mpmath
        return mpmath.mpc(self.real, self.imag)


@dataclass(frozen=True)
class PairCountOracle:
    __slots__ = ("outcome", "precision_bits", "l0_numeric", "matched_numeric", "detail")
    outcome: OracleOutcome
    precision_bits: int
    l0_numeric: Optional[int]
    matched_numeric: Optional[tuple]
    detail: str

    @property
    def agrees(self) -> bool:
        return self.outcome is OracleOutcome.AGREE


@dataclass(frozen=True)
class HypothesisOracle:
    __slots__ = ("outcome", "symbolic", "precision_bits", "cluster_sizes")
    outcome: OracleOutcome
    symbolic: bool
    precision_bits: int
    cluster_sizes: tuple


def _to_mpf(x):
    import mpmath
    return mpmath.mpf(int(x.numerator)) / mpmath.mpf(int(x.denominator))


def _horner(coeffs, z):
    import mpmath
    acc = mpmath.mpc(0)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def complex_roots(p: Poly, precision_bits: int = DEFAULT_PRECISION):
    """All complex roots of a squarefree polynomial, as disks.

    Aberth–Ehrlich sweeps in double precision give the start, and
    Weierstrass sweeps refine it over a ladder of doubling precisions
    (:func:`_isolate`).  The radius of each disk is 2 * deg(p) * |w|,
    for the Weierstrass correction w at the final iterate, plus a fixed
    slack of 2^-(precision_bits + 56).  It does not yet account for
    rounding, and the disks are not proven pairwise disjoint (ROADMAP
    item 3), so a disk is an estimate, not a certificate.  Raise the
    precision to shrink the disks (multiplicities are handled
    symbolically upstream, so repeated roots are a caller bug and raise
    ValueError).
    """
    _require_squarefree(p)
    return _isolate(p, precision_bits)[0]


def _require_squarefree(p: Poly) -> None:
    if p.degree < 1:
        raise ValueError(f"need a nonconstant polynomial, got degree {p.degree}")
    if not is_squarefree(p):
        raise ValueError(
            "polynomial must be squarefree for numeric root isolation "
            f"(got {p.to_string()})"
        )


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


def _correction(coeffs, zs, i):
    """Weierstrass correction p(z_i) / prod_(j != i) (z_i - z_j) of the
    monic polynomial with coefficients ``coeffs``."""
    import mpmath
    denom = mpmath.mpc(1)
    for j, zj in enumerate(zs):
        if j != i:
            denom *= zs[i] - zj
    return _horner(coeffs, zs[i]) / denom


def _isolate(p: Poly, precision_bits: int, zs=None):
    """complex_roots for a p already proven nonconstant and squarefree,
    with the iterates it ended on: (disks, iterates).

    Iterates ``zs`` from an earlier call at a lower precision seed a
    single Weierstrass run at ``precision_bits``.  Without them the start
    is :func:`_float_start`, or the scrambled circle through the Cauchy
    bound when the doubles cannot hold p, and Weierstrass runs on the
    ladder ceil(precision_bits / 2^j) for j = k, ..., 1, 0, whose lowest
    level is the first one at most 64 bits.  Each level sweeps until
    every correction is below 2^-(level + 32) * max(1, bound), or until
    its iteration cap.
    """
    import mpmath
    n = p.degree
    with mpmath.workprec(precision_bits + _GUARD):
        lc = _to_mpf(p.lc)
        coeffs = [_to_mpf(c) / lc for c in p.coeffs]
        bound = 1 + max(abs(c) for c in coeffs[:-1])
    if zs is not None:
        levels, zs = [precision_bits], list(zs)
    else:
        levels = [precision_bits]
        while levels[0] > 64:
            levels.insert(0, -(-levels[0] // 2))
        start = _float_start(p)
        if start is not None:
            zs = [mpmath.mpc(z) for z in start]
        else:
            with mpmath.workprec(levels[0] + _GUARD):
                zs = [bound * mpmath.expjpi(_circle_angle(k, n)) for k in range(n)]
    for prec in levels:
        with mpmath.workprec(prec + _GUARD):
            target = mpmath.mpf(2) ** (-(prec + _GUARD // 2)) * max(1, bound)
            for _ in range(200 + 20 * n + prec // 8):
                worst = mpmath.mpf(0)
                for i in range(n):
                    w = _correction(coeffs, zs, i)
                    zs[i] = zs[i] - w
                    worst = max(worst, abs(w))
                if worst < target:
                    break
    with mpmath.workprec(precision_bits + _GUARD):
        slack = mpmath.mpf(2) ** (-(precision_bits + _GUARD - 8))
        disks = []
        for i, z in enumerate(zs):
            radius = 2 * n * abs(_correction(coeffs, zs, i)) + slack
            disks.append(ComplexApprox(real=z.real, imag=z.imag, radius=radius))
        return tuple(disks), zs


def _value_disk(coeffs, root: ComplexApprox):
    """Disk containing p(z) for every z in the root disk, up to
    rounding, for the p with mpf coefficients ``coeffs`` (low to high)."""
    import mpmath
    z = root.value
    center = _horner(coeffs, z)
    az, r = abs(z), root.radius
    # |p(z+e)-p(z)| <= sum |a_k| ((|z|+r)^k - |z|^k) for |e| <= r
    drift = mpmath.mpf(0)
    for k, c in enumerate(coeffs):
        if k and c:
            drift += abs(c) * ((az + r) ** k - az**k)
    slack = (abs(center) + drift + 1) * mpmath.mpf(2) ** (-(mpmath.mp.prec - 8))
    return ComplexApprox(real=center.real, imag=center.imag, radius=drift + slack)


def _cluster_indices(disks):
    parent = list(range(len(disks)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(disks)):
        for j in range(i + 1, len(disks)):
            di, dj = disks[i], disks[j]
            if abs(di.value - dj.value) <= di.radius + dj.radius:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(len(disks)):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda g: (-len(g), g))


def _class_roots(structures, precision_bits: int, iterates: dict) -> dict:
    """Root disks of every class factor of the given sides at one
    precision step, each distinct factor isolated once.  ``iterates``
    maps a factor to its iterates from the previous step, which seed
    this one, and is updated in place.  The factors must already be
    proven squarefree (:func:`_require_critical_squarefree`, once per
    oracle call)."""
    roots = {}
    for cs in structures:
        for cls in cs.classes:
            f = cls.factor
            if f not in roots:
                roots[f], iterates[f] = _isolate(f, precision_bits, iterates.get(f))
    return roots


def _critical_value_disks(cs: CriticalStructure, roots: dict):
    """(point multiplicity, value disk) for every critical point of
    cs.poly, from the disks of its class factors' roots."""
    coeffs = [_to_mpf(c) for c in cs.poly.coeffs]
    return [
        (cls.multiplicity, _value_disk(coeffs, root))
        for cls in cs.classes
        for root in roots[cls.factor]
    ]


def _require_critical_squarefree(*structures: CriticalStructure) -> None:
    for cs in structures:
        for cls in cs.classes:
            _require_squarefree(cls.factor)


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
    import mpmath
    if precision_bits < 1:
        raise ValueError(f"precision_bits must be at least 1, got {precision_bits}")
    cs = analyze(p)
    _require_critical_squarefree(cs)
    symbolic = cs.hypothesis_I
    expected = cs.value_multiplicities

    prec = precision_bits
    sizes = ()
    iterates = {}
    while True:
        with mpmath.workprec(prec + _GUARD):
            roots = _class_roots([cs], prec, iterates)
            disks = [d for _, d in _critical_value_disks(cs, roots)]
            groups = _cluster_indices(disks)
            sizes = tuple(sorted((len(g) for g in groups), reverse=True))
            if sizes == expected:
                return HypothesisOracle(OracleOutcome.AGREE, symbolic, prec, sizes)
            if not _can_pack(sizes, expected):
                return HypothesisOracle(OracleOutcome.DISAGREE, symbolic, prec, sizes)
        if prec * 2 > PRECISION_CAP:
            return HypothesisOracle(OracleOutcome.AMBIGUOUS, symbolic, prec, sizes)
        prec *= 2


def verify_pair_counts(
    pp: PolynomialPair,
    pm: Optional[PairMatching] = None,
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
    import mpmath
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
    _require_critical_squarefree(pp.critical_p(), pp.critical_q())
    expected_pairs = tuple(sorted(pm.matched_points, reverse=True))
    expected_unm_p = tuple(sorted(pm.unmatched_p_points, reverse=True))
    expected_unm_q = tuple(sorted(pm.unmatched_q_points, reverse=True))

    prec = precision_bits
    detail = ""
    iterates = {}
    while True:
        with mpmath.workprec(prec + _GUARD):
            roots = _class_roots([pp.critical_p(), pp.critical_q()], prec, iterates)
            tagged = [("P", m, d) for m, d in _critical_value_disks(pp.critical_p(), roots)]
            tagged += [("Q", m, d) for m, d in _critical_value_disks(pp.critical_q(), roots)]
            groups = _cluster_indices([d for _, _, d in tagged])
            mixed, single_p, single_q = [], [], []
            unresolved = False
            for g in groups:
                ps = [tagged[i][1] for i in g if tagged[i][0] == "P"]
                qs = [tagged[i][1] for i in g if tagged[i][0] == "Q"]
                if len(ps) > 1 or len(qs) > 1:
                    unresolved = True
                    break
                if ps and qs:
                    mixed.append((ps[0], qs[0]))
                elif ps:
                    single_p.append(ps[0])
                else:
                    single_q.append(qs[0])
            if not unresolved:
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
            else:
                detail = "same-side values still overlap"
        if prec * 2 > PRECISION_CAP:
            return PairCountOracle(OracleOutcome.AMBIGUOUS, prec, None, None, detail)
        prec *= 2


def _multiset_sub(a, b):
    out = list(a)
    for x in b:
        if x in out:
            out.remove(x)
    return tuple(out)

