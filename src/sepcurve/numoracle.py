"""High-precision numeric corroboration of the exact critical-value data.

Everything here is a cross-check: complex critical points are
approximated with certified disks, their values are clustered, and the
cluster picture is compared against what the exact layer claims.  Two
disks that stay disjoint certify distinctness; overlap proves nothing
and is resolved by doubling the precision up to a cap.  Outcomes are
three-valued — agreement, certified disagreement, or ambiguity — and
none of them ever feeds a verdict.  ``mpmath`` is imported on first
use, so importing the package or its CLI does not load it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .critical import CriticalStructure, PairMatching, PolynomialPair, analyze
from .rpoly import Poly, is_squarefree, resultant_shift

DEFAULT_PRECISION = 256
PRECISION_CAP = 4096
_GUARD = 64


class OracleOutcome(enum.Enum):
    AGREE = "Agree"
    DISAGREE = "Disagree"
    AMBIGUOUS = "Ambiguous"


@dataclass(frozen=True)
class ComplexApprox:
    """A complex approximation with a certified error radius.

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
    """All complex roots of a squarefree polynomial, as certified disks.

    Simultaneous Weierstrass iteration from a scrambled circle; the
    radius of each disk is the classical a posteriori bound
    deg(p) * |correction| at the final iterate.  Raise the precision to
    shrink the disks (multiplicities are handled symbolically upstream,
    so repeated roots are a caller bug and raise ValueError).
    """
    _require_squarefree(p)
    return _isolate(p, precision_bits)


def _require_squarefree(p: Poly) -> None:
    if p.degree < 1:
        raise ValueError(f"need a nonconstant polynomial, got degree {p.degree}")
    if not is_squarefree(p):
        raise ValueError(
            "polynomial must be squarefree for numeric root isolation "
            f"(got {p.to_string()})"
        )


def _isolate(p: Poly, precision_bits: int):
    """complex_roots for a p already proven nonconstant and squarefree."""
    import mpmath
    n = p.degree
    with mpmath.workprec(precision_bits + _GUARD):
        lc = _to_mpf(p.lc)
        coeffs = [_to_mpf(c) / lc for c in p.coeffs]
        bound = 1 + max(abs(c) for c in coeffs[:-1]) if n else mpmath.mpf(1)
        zs = [
            bound * mpmath.expjpi(mpmath.mpf(2 * k + 1) / n + mpmath.mpf(1) / (2 * n + 3))
            for k in range(n)
        ]
        target = mpmath.mpf(2) ** (-(precision_bits + _GUARD // 2)) * max(1, bound)
        max_iters = 200 + 20 * n + precision_bits // 8
        corrections = [mpmath.mpc(0)] * n
        for _ in range(max_iters):
            worst = mpmath.mpf(0)
            for i in range(n):
                denom = mpmath.mpc(1)
                for j in range(n):
                    if j != i:
                        denom *= zs[i] - zs[j]
                w = _horner(coeffs, zs[i]) / denom
                corrections[i] = w
                zs[i] = zs[i] - w
                worst = max(worst, abs(w))
            if worst < target:
                break
        out = []
        for i in range(n):
            denom = mpmath.mpc(1)
            for j in range(n):
                if j != i:
                    denom *= zs[i] - zs[j]
            w = _horner(coeffs, zs[i]) / denom
            radius = 2 * n * abs(w) + mpmath.mpf(2) ** (-(precision_bits + _GUARD - 8))
            out.append(ComplexApprox(real=zs[i].real, imag=zs[i].imag, radius=radius))
        return tuple(out)


def _value_disk(p: Poly, root: ComplexApprox):
    """Disk certified to contain p(z) for every z in the root disk."""
    import mpmath
    coeffs = [_to_mpf(c) for c in p.coeffs]
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


def _critical_value_disks(cs: CriticalStructure, precision_bits: int):
    """(point multiplicity, value disk) for every critical point of
    cs.poly.  The class factors must already be proven squarefree
    (:func:`_require_critical_squarefree`, once per oracle call)."""
    out = []
    for cls in cs.classes:
        for root in _isolate(cls.factor, precision_bits):
            out.append((cls.multiplicity, _value_disk(cs.poly, root)))
    return out


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
    Distinctness is certified by disjoint disks; observed coincidence is
    only ever "consistent", so a matching picture counts as agreement
    and a certified split of an exact coincidence is a disagreement.
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
    while True:
        with mpmath.workprec(prec + _GUARD):
            disks = [d for _, d in _critical_value_disks(cs, prec)]
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
    """Recount the matched critical-value pairs with certified disks.

    Agreement requires the numeric clusters to reproduce the exact
    matching exactly: one P-point and one Q-point per matched value,
    the same (p, q) multiset, and the same unmatched multiplicities,
    with everything else certified disjoint.  A matching the disks
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
    while True:
        with mpmath.workprec(prec + _GUARD):
            tagged = [("P", m, d) for m, d in _critical_value_disks(pp.critical_p(), prec)]
            tagged += [("Q", m, d) for m, d in _critical_value_disks(pp.critical_q(), prec)]
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


def check_resultant_product(
    s: Poly,
    p: Poly,
    ys=None,
    precision_bits: int = DEFAULT_PRECISION,
) -> bool:
    """Sample check of resultant_shift(s, p) == prod (y - p(root of s)).

    Evaluates both sides at rational sample points; the numeric side
    carries interval bounds propagated through the product, and the
    check passes only when the exact value sits inside them at every
    sample.
    """
    import mpmath
    if ys is None:
        from .rationals import Rat

        ys = [Rat(2), Rat(-1), Rat(1, 2), Rat(3), Rat(-2, 3), Rat(5), Rat(-5), Rat(7, 2)]
    shifted = resultant_shift(s, p)
    with mpmath.workprec(precision_bits + _GUARD):
        value_disks = [
            _value_disk(p, root) for root in complex_roots(s, precision_bits)
        ]
        for y in ys:
            exact = _to_mpf(shifted(y))
            ym = _to_mpf(y)
            center = mpmath.mpc(1)
            hi, lo = mpmath.mpf(1), mpmath.mpf(1)
            for d in value_disks:
                f = ym - d.value
                center *= f
                hi *= abs(f) + d.radius
                lo *= abs(f)
            slack = (hi + abs(exact) + 1) * mpmath.mpf(2) ** (-(precision_bits // 2))
            if abs(exact - center) > hi - lo + slack:
                return False
    return True
