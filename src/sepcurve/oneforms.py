"""Wronskian-type 1-form witnesses for the hyperbolicity verdicts.

Each rule a verdict can cite comes with two explicit rational 1-forms
on the projective curve, given as symbolic factor lists: linear forms
through the singular points (``alpha``/``beta`` tags index the matched
critical pairs, ``chord`` a line through two of them), coordinate
factors, and a Wronskian W(zi, zj).  Nothing is expanded into
coordinates — every regularity condition is arithmetic in the
multiplicity aggregates.

Each rule's emitter returns its two forms as (numerator, denominator)
factor lists; ``emit_witnesses`` adds the Wronskian the denominator
pairs with (``_PAIRED_W``) and the verdict's rule label.

``check_regularity`` re-validates a form clause by clause: degree
balance, Wronskian/denominator pairing, divisibility of the denominator
into the matching partial derivative, a per-point pole-order budget at
the singular points, and the extra z2 condition at infinity when the
degrees differ.  Every emitted form must pass; a failure here is a bug,
not an input problem.

Factor tags are 2-tuples: ``("alpha", i)``, ``("beta", i)``,
``("chord", (i, j))``, ``("z", k)``.  Point index i counts matched
pairs 1..l0 in the stored (descending) order, then unmatched points of
the relevant side from l0+1 on.
"""

from __future__ import annotations

import math
from collections import defaultdict, namedtuple

from .classify import Outcome, Verdict
from .critical import (
    HomogenizedCurveMeta,
    PairMatching,
    homogenized_meta,
    theorem1_lhs,
)

Z0 = ("z", 0)
Z1 = ("z", 1)
Z2 = ("z", 2)
W12 = (1, 2)
W20 = (2, 0)
W01 = (0, 1)

# the Wronskian each kind of denominator factor pairs with
_PAIRED_W = {"alpha": W12, "beta": W20, "z2": W01}


def _pairing_kind(kind):
    """A factor kind as the pairing reads it: coordinates count as z2."""
    return "z2" if kind == "z" else kind

INDEPENDENCE_NOTE = (
    "linear independence of the two forms is guaranteed by the absence "
    "of a linear factor"
)


class MalformedFormError(ValueError):
    """A form whose factor degrees cannot define a 1-form on the curve."""


class OneFormSpec(
    namedtuple("OneFormSpec", "numerator_factors denominator_factors wronskian source_rule")
):
    """One rational 1-form (R/S) * W(zi, zj) as factor lists.

    ``numerator_factors`` and ``denominator_factors`` are tuples of
    (tag, exponent); the Wronskian (i, j) is kept separate and counts as
    degree 2.  ``source_rule`` names the verdict rule the form
    witnesses.
    """

    __slots__ = ()

    def numerator_degree(self) -> int:
        return sum(e for _, e in self.numerator_factors) + 2

    def denominator_degree(self) -> int:
        return sum(e for _, e in self.denominator_factors)

    def to_text(self) -> str:
        """Canonical serialization, stable across runs.

        >>> OneFormSpec((), ((Z2, 2),), W01, "Theorem 2").to_text()
        'W(z0,z1) / z2^2'
        """
        num = " * ".join(
            _factor_text(tag, e) for tag, e in _display_order(self.numerator_factors)
        )
        wtxt = f"W(z{self.wronskian[0]},z{self.wronskian[1]})"
        num = f"{num} * {wtxt}" if num else wtxt
        den_parts = [
            _factor_text(tag, e) for tag, e in _display_order(self.denominator_factors)
        ]
        if not den_parts:
            return num
        den = " * ".join(den_parts)
        if len(den_parts) > 1:
            den = f"({den})"
        return f"{num} / {den}"


class RegularityCheck(namedtuple("RegularityCheck", "subject clause satisfied margin")):
    """One audited clause: its subject and clause texts, whether it
    holds and by what int margin."""

    __slots__ = ()


class RegularityReport(namedtuple("RegularityReport", "checks overall notes")):
    """A form's audit: its RegularityChecks, whether all hold, and a
    tuple of note texts."""

    __slots__ = ()


_FACTOR_RANK = {"z": 0, "chord": 1, "alpha": 2, "beta": 3}


def _display_order(factors):
    return sorted(factors, key=lambda fe: (_FACTOR_RANK[fe[0][0]], fe[0][1]))


def _factor_text(tag, e):
    kind, idx = tag
    if kind == "z":
        base = f"z{idx}"
    elif kind == "alpha":
        base = f"(z0 - a{idx}*z2)"
    elif kind == "beta":
        base = f"(z1 - b{idx}*z2)"
    elif kind == "chord":
        base = f"L({idx[0]},{idx[1]})"
    else:
        raise ValueError(f"unknown factor kind {kind!r}")
    return f"{base}^{e}" if e != 1 else base


def _alpha(i):
    return ("alpha", i)


def _beta(i):
    return ("beta", i)


def _chord(i, j):
    return ("chord", (i, j))


def _unsupported(matching, why):
    return ValueError(
        f"{why} (matched={matching.matched_points}, "
        f"unmatched p={matching.unmatched_p_points}, "
        f"q={matching.unmatched_q_points})"
    )


# ---------------------------------------------------------------------------
# emission, rule by rule: each emitter returns its two forms as
# (numerator, denominator) factor lists


def _emit_theorem2(matching):
    return ((), ((Z2, 2),)), (((Z0, 1),), ((Z2, 3),))


def _emit_theorem1(matching):
    t = theorem1_lhs(matching)
    if t < 3:
        raise _unsupported(matching, f"excess mass {t} below 3")
    excess = [
        (i, p, q) for i, (p, q) in enumerate(matching.matched_points, 1) if p > q
    ]
    l0 = matching.matched_pair_count
    den = [(_alpha(i), p) for i, p, _ in excess]
    den += [
        (_alpha(l0 + 1 + k), p)
        for k, p in enumerate(matching.unmatched_p_points)
    ]
    num_shared = [(_beta(i), q) for i, _, q in excess]
    return ([(Z0, 1), (Z2, t - 3)] + num_shared, den), ([(Z2, t - 2)] + num_shared, den)


def _emit_big2a(matching):
    pts = matching.matched_points
    l0 = matching.matched_pair_count
    ump = matching.unmatched_p_mass
    if l0 < 2 or theorem1_lhs(matching) != 2:
        raise _unsupported(matching, "needs two matched pairs and excess 2")
    excess = [(i, p, q) for i, (p, q) in enumerate(pts, 1) if p > q]
    u1 = l0 + 1  # first unmatched point on the P side, when present

    if len(excess) == 1 and excess[0][1] - excess[0][2] == 2 and ump == 0:
        i, p, q = excess[0]
        j = 1 if i != 1 else 2
        form1 = ([(_beta(i), q)], [(_alpha(i), p)])
        form2 = (
            [(_chord(*sorted((i, j))), 2), (_beta(i), q - 1)],
            [(_alpha(i), p), (_alpha(j), 1)],
        )
        return form1, form2
    if len(excess) == 2 and ump == 0:
        (i, pi, qi), (j, pj, qj) = excess
        shared_den = [(_alpha(i), pi), (_alpha(j), pj)]
        form1 = ([(_beta(i), qi), (_beta(j), qj)], shared_den)
        form2 = ([(_chord(i, j), 1), (_beta(i), qi - 1), (_beta(j), qj)], shared_den)
        return form1, form2
    if len(excess) == 1 and ump == 1:
        k = excess[0][0]
        j = 1 if k != 1 else 2
        den = [(_alpha(k), 2), (_alpha(j), 1), (_alpha(u1), 1)]
        chord = _chord(*sorted((k, j)))
        return ([(chord, 2)], den), ([(_beta(j), 1), (chord, 1)], den)
    if not excess and ump == 2:
        return _emit_unmatched_mass_pair(matching)
    raise _unsupported(matching, "no form template for this excess mass split")


def _emit_unmatched_mass_pair(matching):
    """The two forms for unmatched P-mass exactly 2 (any matched pairs
    balanced).  With a second matched point available the chord variant
    is used; with a single matched pair the shared-value variant — the
    latter is exactly what breaks on a lone (1, 3) pair, which the
    conditions exclude."""
    l0 = matching.matched_pair_count
    unm = [(_alpha(l0 + 1 + k), p) for k, p in enumerate(matching.unmatched_p_points)]
    if l0 >= 2:
        form2 = ([(_chord(1, 2), 2)], [(_alpha(1), 1), (_alpha(2), 1)] + unm)
    else:
        if matching.matched_points[0] == (1, 3):
            raise _unsupported(matching, "excluded (1, 3) single-pair shape")
        form2 = ([(_beta(1), 1)], [(_alpha(1), 1)] + unm)
    return ([], unm), form2


def _emit_big2b(matching):
    if matching.unmatched_p_mass != 2 or matching.matched_pair_count < 1:
        raise _unsupported(matching, "needs unmatched mass exactly 2")
    return _emit_unmatched_mass_pair(matching)


def _emit_big2c(matching):
    pts = matching.matched_points
    l0 = matching.matched_pair_count
    if l0 < 2 or matching.p_point_count != l0 + 1:
        raise _unsupported(matching, "needs exactly one unmatched point")
    if matching.unmatched_p_mass != 1 or any(p > q for p, q in pts):
        raise _unsupported(matching, "shape is handled by an excess rule first")
    u1 = l0 + 1
    p1 = pts[0][0]
    base_den = [(_alpha(1), 1), (_alpha(2), 1), (_alpha(u1), 1)]
    form1 = ([(_chord(1, 2), 1)], base_den)
    if p1 >= 2:
        form2 = ([(_chord(1, 2), 2)], [(_alpha(1), 2), (_alpha(2), 1), (_alpha(u1), 1)])
    elif l0 >= 3:
        form2 = (
            [(_chord(1, 2), 1), (_chord(1, 3), 1)],
            [(_alpha(1), 1), (_alpha(2), 1), (_alpha(3), 1), (_alpha(u1), 1)],
        )
    else:
        raise _unsupported(matching, "excluded all-simple two-pair shape")
    return form1, form2


def _emit_theorem3(matching):
    pts = matching.matched_points
    l0 = matching.matched_pair_count
    if (
        l0 < 2
        or matching.p_point_count != l0
        or matching.q_point_count != l0
        or any(abs(p - q) > 1 for p, q in pts)
    ):
        raise _unsupported(matching, "fallthrough region has fully matched near-equal pairs")
    p1, q1 = pts[0]
    p2 = pts[1][0]
    if p2 >= 3:
        den = [(_alpha(1), 3), (_alpha(2), 3)]
        core = [(_chord(1, 2), 3)]
        return ([(Z0, 1)] + core, den), ([(Z1, 1)] + core, den)
    if p2 == 2:
        form1 = ([(_chord(1, 2), 2)], [(_alpha(1), 2), (_alpha(2), 2)])
        if l0 >= 3:
            form2 = (
                [(_chord(1, 2), 2), (_chord(1, 3), 1)],
                [(_alpha(1), 2), (_alpha(2), 2), (_alpha(3), 1)],
            )
        elif p1 >= 3:
            form2 = ([(_chord(1, 2), 3)], [(_alpha(1), 3), (_alpha(2), 2)])
        else:
            qs = sorted((pts[0][1], pts[1][1]), reverse=True)
            if qs != [3, 1]:
                raise _unsupported(matching, "two double points need q's {3,1}")
            i3 = 1 if pts[0][1] == 3 else 2
            i1 = 3 - i3
            form1 = ([(_chord(1, 2), 1)], [(_beta(i3), 2), (_beta(i1), 1)])
            form2 = ([(_chord(1, 2), 2)], [(_beta(i3), 3), (_beta(i1), 1)])
        return form1, form2
    # p2 == 1: at most the top pair is non-simple on the P side
    if l0 == 2:
        if p1 < 3 or q1 != p1 - 1 or pts[1] != (1, 2):
            raise _unsupported(matching, "small two-pair shapes are exceptional")
        return (
            ([(_chord(1, 2), 1)], [(_alpha(1), 2), (_alpha(2), 1)]),
            ([(_chord(1, 2), 2)], [(_alpha(1), 3), (_alpha(2), 1)]),
        )
    if l0 == 3:
        if p1 < 2:
            raise _unsupported(matching, "all-simple degree-4 shape is exceptional")
        form1 = (
            [(_chord(1, 2), 1), (_chord(1, 3), 1)],
            [(_alpha(1), 2), (_alpha(2), 1), (_alpha(3), 1)],
        )
        if p1 == 2 and q1 < p1:
            form2 = (
                [(_chord(1, 2), 1), (_chord(2, 3), 1)],
                [(_alpha(1), 2), (_alpha(2), 1), (_alpha(3), 1)],
            )
        elif p1 >= 3:
            form2 = (
                [(_chord(1, 2), 1), (_chord(1, 3), 2)],
                [(_alpha(1), 3), (_alpha(2), 1), (_alpha(3), 1)],
            )
        else:
            raise _unsupported(matching, "balanced double point needs degree 5")
        return form1, form2
    den = [(_alpha(i), 1) for i in (1, 2, 3, 4)]
    return (
        ([(_chord(1, 2), 1), (_chord(3, 4), 1)], den),
        ([(_chord(1, 3), 1), (_chord(2, 4), 1)], den),
    )


# ---------------------------------------------------------------------------
# mirrored rules: swap the roles of the two polynomials


def _mirrored_matching(matching):
    """Matching with the P/Q roles exchanged, plus the map from new
    matched-point indices back to the original ones.  The sort is
    stable, as in :meth:`PairMatching.mirrored`, so equal points keep
    their order."""
    pts = matching.matched_points
    order = sorted(range(len(pts)), key=lambda k: pts[k][::-1], reverse=True)
    return matching.mirrored(), {new: k + 1 for new, k in enumerate(order, 1)}


def _mirror_tag(tag, index_map, l0):
    kind, idx = tag
    if kind == "alpha":
        return ("beta", index_map[idx] if idx <= l0 else idx)
    if kind == "beta":
        return ("alpha", index_map[idx] if idx <= l0 else idx)
    if kind == "chord":
        i, j = (index_map[k] for k in idx)
        return ("chord", tuple(sorted((i, j))))
    raise ValueError(f"unknown factor kind {kind!r}")


def _mirrored(builder):
    """The Q-side rule of a P-side emitter: run it on the mirrored
    matching and map every factor back to the original points."""

    def emit(matching):
        mirrored, index_map = _mirrored_matching(matching)
        l0 = matching.matched_pair_count
        return tuple(
            tuple([(_mirror_tag(t, index_map, l0), e) for t, e in part] for part in form)
            for form in builder(mirrored)
        )

    return emit


_EMITTERS = {
    "Theorem 2": _emit_theorem2,
    "Theorem 1": _emit_theorem1,
    "big2(a)": _emit_big2a,
    "big2(b)": _emit_big2b,
    "big2(c)": _emit_big2c,
    "big2c(b)": _mirrored(_emit_big2b),
    "big2c(c)": _mirrored(_emit_big2c),
    "Theorem 3": _emit_theorem3,
}


def _verdict_matching(verdict):
    """The one matching a verdict's witnesses are emitted from and
    audited against: the verdict's own, else its pair's."""
    return verdict.matching or verdict.pair.matching()


def emit_witnesses(verdict: Verdict):
    """The two 1-forms prescribed by the rule that fired.

    Only Hyperbolic verdicts carry witnesses; the exponents are filled
    in from the matching aggregates of the verdict's pair.  Zero
    exponents are dropped, and each form takes the Wronskian its
    denominator pairs with (``_PAIRED_W``; W(z1,z2) when it is empty).
    """
    if verdict.outcome is not Outcome.HYPERBOLIC:
        raise ValueError("no witness for low-genus verdicts")
    matching = _verdict_matching(verdict)
    try:
        emitter = _EMITTERS[verdict.rule]
    except KeyError:
        raise ValueError(f"no witness emitter for rule {verdict.rule!r}") from None
    try:
        forms = emitter(matching)
    except ValueError as why:
        raise ValueError(
            f"aggregate shape not produced by the classifier for {verdict.rule}: {why}"
        ) from None
    specs = []
    for num, den in forms:
        num = tuple((tag, e) for tag, e in num if e > 0)
        den = tuple((tag, e) for tag, e in den if e > 0)
        kind = _pairing_kind(den[0][0][0]) if den else "alpha"
        specs.append(OneFormSpec(num, den, _PAIRED_W[kind], verdict.rule))
    return tuple(specs)


# ---------------------------------------------------------------------------
# regularity


def _point_multiplicities(matching, side, idx):
    """(p, q) of matched point idx, or the one-sided multiplicity of an
    unmatched point (the other entry None)."""
    l0 = matching.matched_pair_count
    if idx <= l0:
        return matching.matched_points[idx - 1]
    k = idx - l0 - 1
    if side == "alpha":
        return matching.unmatched_p_points[k], None
    return None, matching.unmatched_q_points[k]


def check_regularity(
    form: OneFormSpec,
    matching: PairMatching | None = None,
    meta: HomogenizedCurveMeta | None = None,
) -> RegularityReport:
    """Clause-by-clause regularity audit of one emitted form.

    Raises MalformedFormError when the degree balance fails (the form
    would not even be well-defined); everything else lands in the
    report.  ``matching`` is required as soon as the form mentions
    alpha/beta factors, ``meta`` as soon as z2 appears in the
    denominator or the degrees differ.
    """
    num_deg = form.numerator_degree()
    den_deg = form.denominator_degree()
    if num_deg != den_deg:
        raise MalformedFormError(
            f"degree balance violated: numerator {num_deg} != denominator {den_deg}"
        )
    checks = []

    den_kinds = {_pairing_kind(kind) for (kind, _), _ in form.denominator_factors}
    for kind in sorted(den_kinds):
        expected = _PAIRED_W.get(kind)
        ok = expected is None or form.wronskian == expected
        checks.append(
            RegularityCheck(
                subject=f"{kind} denominators",
                clause="wronskian-pairing",
                satisfied=ok,
                margin=0,
            )
        )

    needs_matching = any(
        kind in ("alpha", "beta")
        for (kind, _), _ in form.numerator_factors + form.denominator_factors
    )
    if needs_matching and matching is None:
        raise ValueError("matching required to check point factors")

    for (kind, idx), e in form.denominator_factors:
        if kind == "z":
            if idx != 2:
                checks.append(
                    RegularityCheck(f"z{idx} denominator", "divides-partial", False, -e)
                )
                continue
            if meta is None:
                raise ValueError("meta required to check z2 denominators")
            bound = meta.z2_exponent_in_dz2
            checks.append(
                RegularityCheck("z2 denominator", "divides-partial", e <= bound, bound - e)
            )
            continue
        p, q = _point_multiplicities(matching, kind, idx)
        cap = p if kind == "alpha" else q
        checks.append(
            RegularityCheck(
                subject=f"{kind} {idx} exponent",
                clause="divides-partial",
                satisfied=e <= cap,
                margin=cap - e,
            )
        )

    if matching is not None:
        # total exponent per (kind, point index); a chord counts at both ends
        den, num = defaultdict(int), defaultdict(int)
        for tag, e in form.denominator_factors:
            den[tag] += e
        for (kind, idx), e in form.numerator_factors:
            for k in idx if kind == "chord" else (idx,):
                num[kind, k] += e
        for i, (p, q) in enumerate(matching.matched_points, 1):
            v0, v1 = den["alpha", i], den["beta", i]
            if v0 == 0 and v1 == 0:
                continue
            # (p+1)*ord0 = (q+1)*ord1, as the reduced ratio ord0 : ord1
            g = math.gcd(p + 1, q + 1)
            o0, o1 = (q + 1) // g, (p + 1) // g
            if form.wronskian == W12:
                ord_w = o1 - 1
            elif form.wronskian == W20:
                ord_w = o0 - 1
            else:
                ord_w = min(o0, o1) - 1
            margin = (
                num["chord", i] * min(o0, o1)
                + num["alpha", i] * o0
                + num["beta", i] * o1
                + ord_w
                - v0 * o0
                - v1 * o1
            )
            checks.append(
                RegularityCheck(
                    subject=f"point {i} (p={p}, q={q})",
                    clause="pole-order",
                    satisfied=margin >= 0,
                    margin=margin,
                )
            )

    if meta is not None and meta.n > meta.m and "alpha" in den_kinds:
        z2num = sum(
            e for (kind, idx), e in form.numerator_factors if kind == "z" and idx == 2
        )
        need = meta.n - meta.m
        checks.append(
            RegularityCheck(
                subject="infinity",
                clause="z2-numerator",
                satisfied=z2num >= need,
                margin=z2num - need,
            )
        )

    checks = tuple(checks)
    return RegularityReport(
        checks=checks, overall=all(c.satisfied for c in checks), notes=()
    )


def verify_witnesses(verdict: Verdict, matching: PairMatching | None = None):
    """Emit both witnesses for a Hyperbolic verdict and audit them
    against the matching they were emitted from; a ``matching`` passed
    in stands in for the verdict's own in both steps.

    Returns (forms, reports); each report carries the shared
    independence note.  Any unsatisfied check means the emitted form
    contradicts its own rule — callers should treat that as a bug.
    """
    if matching is not None:
        verdict = verdict._replace(matching=matching)
    matching = _verdict_matching(verdict)
    meta = homogenized_meta(verdict.pair) if verdict.pair is not None else None
    forms = emit_witnesses(verdict)
    reports = tuple(
        RegularityReport(
            checks=r.checks, overall=r.overall, notes=(INDEPENDENCE_NOTE,)
        )
        for r in (check_regularity(f, matching, meta) for f in forms)
    )
    return forms, reports
