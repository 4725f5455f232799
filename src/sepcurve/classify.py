"""Verdict cascade for P(x) - Q(y) = 0.

``classify(pair)`` runs the steps that read the polynomials, in order:

1. a linear factor forces a low-genus (rational) component;
2. the wide-gap criterion ("Theorem 2"): n == m, both polynomials
   carry an intermediate term (n0 >= 1 and m0 >= 1), and
   n >= max(n0, m0) + 4;
3. Hypothesis I: a side without simple critical values leaves the
   verdict inconclusive.

Then ``decide(matching)`` runs the steps that read only the matching:

4. the excess criteria ("Theorem 1", "Corollary 1") and, for equal
   degrees, the small sufficient conditions ("big2(a)".."big2c(c)");
5. for equal degrees, the exceptional shapes (cases 2-7): any match
   means a low-genus component, no match means hyperbolic ("Theorem 3");
6. otherwise (unequal degrees) inconclusive.

Rule labels are the report vocabulary used by the CLI/JSON interface.
"""

from __future__ import annotations

import enum
from collections import namedtuple

from . import rpoly
from .critical import PairMatching, PolynomialPair, corollary1_lhs, theorem1_lhs
from .linfactor import find_linear_factor


class Outcome(enum.Enum):
    HYPERBOLIC = "Hyperbolic"
    HAS_LOW_GENUS_COMPONENT = "HasLowGenusComponent"
    INCONCLUSIVE = "Inconclusive"


class Verdict(
    namedtuple(
        "Verdict",
        "outcome rule pair case matching linear_witness hyp_p hyp_q"
        " fired_rules failed_hypotheses trace",
        defaults=(None,) * 5 + ((),) * 3,
    )
):
    """One cascade result: the ``Outcome``, the rule label cited, the
    ``PolynomialPair`` (None from ``decide(matching)``), the exceptional
    case id, the ``PairMatching``, the ``LinearFactorWitness``, whether
    each side has simple critical values, and the tuples of rules fired,
    hypotheses failed and trace lines."""

    __slots__ = ()


def sufficient_conditions(matching: PairMatching, trace=None):
    """All of the small sufficient hyperbolicity conditions that hold
    for these aggregates (equal degrees, both sides with simple
    critical values assumed).  Returns rule labels in check order:
    big2(a)..big2(c) on the matching, then big2c(a)..big2c(c), the same
    conditions on the matching with the roles of P and Q exchanged."""
    fired = []
    notes = trace if trace is not None else []
    l0 = matching.matched_pair_count
    # (label, the excluded single pair as written, note suffix, matching)
    for rule, single, side, m in (
        ("big2", "(1,3)", "", matching),
        ("big2c", "(3,1)", ", q side", matching.mirrored()),
    ):
        ump, pts = m.unmatched_p_mass, m.matched_points  # pts descending
        if l0 >= 2 and theorem1_lhs(m) == 2:
            fired.append(f"{rule}(a)")
        if l0 >= 1 and ump == 2:
            if l0 == 1 and pts[0] == (1, 3):
                notes.append(f"{rule}(b) skipped: excluded shape (single pair {single})")
            else:
                fired.append(f"{rule}(b)")
        if l0 >= 2 and m.p_point_count == l0 + 1:
            exception_parts = [ump == 1, pts[0][0] == 1, pts[1][0] == 1]
            if l0 == 2 and all(exception_parts):
                notes.append(
                    f"{rule}(c) skipped: excluded shape (two simple matched points "
                    f"and one simple unmatched point{side})"
                )
            else:
                if l0 == 2 and sum(exception_parts) == 2:
                    notes.append(
                        f"{rule}(c) near-miss: two of the three excluded-shape "
                        "equalities hold"
                    )
                fired.append(f"{rule}(c)")
    return fired


def _case4_shape(m: PairMatching) -> bool:
    """Case 4 as stated for P: one critical point of P, of multiplicity
    k, matched at (k, k - 1) against Q's two points, of k - 1 and 1."""
    pms = m.p_multiset
    return (
        len(pms) == 1
        and m.q_point_count == 2
        and m.q_multiset == (pms[0] - 1, 1)
        and (pms[0], pms[0] - 1) in m.matched_points
    )


def matching_case_ids(matching: PairMatching):
    """Every exceptional-shape id (2-7) whose defining conditions hold.
    Case 1, a linear factor, is a fact about the pair, not the matching.

    The classifier reports the first; this helper exists for traces,
    diagnostics and tests of shapes that satisfy several definitions at
    once."""
    n, pts = matching.deg_p, matching.matched_points
    pms, qms = matching.p_multiset, matching.q_multiset
    ids = []
    if n in (2, 3):
        ids.append(2)
    if n == 4 and (len(pts) >= 2 or (len(pts) == 1 and abs(pts[0][0] - pts[0][1]) == 2)):
        ids.append(3)
    if _case4_shape(matching) or _case4_shape(matching.mirrored()):
        ids.append(4)
    if (
        len(pms) == 2
        and pms[1] == 1
        and qms == pms
        and (pms[0], pms[0]) in pts
        and n == pms[0] + 2
    ):
        ids.append(5)
    if n == 5 and pms == qms == (2, 1, 1) and pts == ((2, 2), (1, 1), (1, 1)):
        ids.append(6)
    if n == 5 and len(pms) == len(qms) == 2 and pts == ((2, 2), (2, 2)):
        ids.append(7)
    return ids


def decide(matching: PairMatching) -> Verdict:
    """The aggregate steps of the cascade, on the matching alone.

    Both sides are taken to have simple critical values (Hypothesis I),
    so each side's matched plus unmatched mass must be its degree - 1;
    the verdict has ``hyp_p = hyp_q = True`` and no pair, and its trace
    holds only these steps.

    >>> from sepcurve.critical import PairMatching
    >>> m = PairMatching(deg_p=5, deg_q=5, matched_points=((4, 3),),
    ...                  unmatched_p_points=(), unmatched_q_points=(1,),
    ...                  p_multiset=(4,), q_multiset=(3, 1))
    >>> v = decide(m)
    >>> v.outcome.value, v.rule, v.case
    ('HasLowGenusComponent', 'Theorem 3 case 4', 4)
    >>> v.trace[-1]
    'exceptional shape(s) matched: [4]'
    >>> decide(m.mirrored()).rule
    'Theorem 3 case 4'
    """
    n, m = matching.deg_p, matching.deg_q
    t1 = theorem1_lhs(matching)
    c1 = corollary1_lhs(matching)
    trace, fired = [], []
    if t1 >= n - m + 3:
        fired.append("Theorem 1")
    trace.append(f"theorem1_lhs = {t1} (threshold {n - m + 3})")
    if c1 >= 3:
        fired.append("Corollary 1")
    trace.append(f"corollary1_lhs = {c1} (threshold 3)")
    if n == m:
        fired.extend(sufficient_conditions(matching, trace))
    outcome, case, failed = Outcome.HYPERBOLIC, None, ()
    if fired:
        trace.append("sufficient conditions fired: " + ", ".join(fired))
    else:
        trace.append("no sufficient condition fired")
        ids = matching_case_ids(matching) if n == m else []
        if ids:
            trace.append(f"exceptional shape(s) matched: {ids}")
            outcome, case = Outcome.HAS_LOW_GENUS_COMPONENT, ids[0]
            fired = [f"Theorem 3 case {i}" for i in ids]
        elif n == m:
            trace.append("no exceptional shape matched")
            fired = ["Theorem 3"]
        else:
            trace.append("degrees differ and no excess criterion reached its threshold")
            outcome = Outcome.INCONCLUSIVE
            failed = ("excess criteria below threshold (unequal degrees)",)
    return Verdict(
        outcome=outcome,
        rule=fired[0] if fired else "inconclusive",
        case=case,
        pair=None,
        matching=matching,
        hyp_p=True,
        hyp_q=True,
        fired_rules=tuple(fired),
        failed_hypotheses=failed,
        trace=tuple(trace),
    )


def _no_shared_value(pair: PolynomialPair) -> bool:
    """True when both sides have simple critical values and the matching
    shares none, so the pair has no linear factor: y = s*x + t would
    give P(x) = Q(s*x + t), so every critical value of P is one of Q's
    (Kozen & Landau, J. Symb. Comp. 7, 1989).  Asked only where the
    cascade reads the matching next when the pair has no linear factor.
    With ``rpoly.DEBUG_CHECKS`` on (SEPCURVE_DEBUG_CHECKS set when the
    package is first imported) the skipped search runs and must find
    nothing."""
    if not (pair.critical_p().hypothesis_I and pair.critical_q().hypothesis_I):
        return False
    if pair.matching().matched_pair_count:
        return False
    if rpoly.DEBUG_CHECKS and find_linear_factor(pair) is not None:
        raise ArithmeticError("linear factor found on a pair that shares no critical value")
    return True


def classify(pair: PolynomialPair) -> Verdict:
    """Run the full cascade.  Every rule consulted lands in the trace;
    the verdict cites the first that fired."""
    n, m, n0, m0 = pair.n, pair.m, pair.n0, pair.m0
    gap = max(n0, m0) + 4
    gap_fires = n == m and n0 >= 1 and m0 >= 1 and n >= gap

    witness = None  # unequal degrees admit no linear factor
    if n == m and (gap_fires or not _no_shared_value(pair)):
        witness = find_linear_factor(pair)
    if witness is not None:  # so n == m
        hyp_p = pair.critical_p().hypothesis_I
        hyp_q = pair.critical_q().hypothesis_I
        rule, case = ("Theorem 3 case 1", 1) if hyp_p and hyp_q else ("linear factor", None)
        return Verdict(
            outcome=Outcome.HAS_LOW_GENUS_COMPONENT,
            rule=rule,
            case=case,
            pair=pair,
            linear_witness=witness,
            hyp_p=hyp_p,
            hyp_q=hyp_q,
            fired_rules=(rule,),
            trace=(f"linear factor found (family of {witness.family_size} factor(s))",),
        )
    trace = ["linear factor: none"]

    # The wide-gap rule presumes both polynomials actually have an
    # intermediate nonzero coefficient; a pure power (n0 = 0) is handled
    # by the excess criteria below instead.
    if gap_fires:
        trace.append(f"degree gap: n = {n} >= max(n0, m0) + 4 = {gap}")
        return Verdict(
            outcome=Outcome.HYPERBOLIC,
            rule="Theorem 2",
            pair=pair,
            fired_rules=("Theorem 2",),
            trace=tuple(trace),
        )
    if n == m and n >= gap:
        trace.append(f"degree gap rule declined: no intermediate term (n0 = {n0}, m0 = {m0})")
    else:
        trace.append(f"degree gap rule not applicable (n = {n}, m = {m}, max(n0, m0) + 4 = {gap})")

    hyp_p = pair.critical_p().hypothesis_I
    hyp_q = pair.critical_q().hypothesis_I
    if not (hyp_p and hyp_q):
        sides = (("P", hyp_p), ("Q", hyp_q))
        failed = tuple(f"simple critical values for {s}" for s, ok in sides if not ok)
        trace.append("failed: " + ", ".join(failed))
        return Verdict(
            outcome=Outcome.INCONCLUSIVE,
            rule="inconclusive",
            pair=pair,
            hyp_p=hyp_p,
            hyp_q=hyp_q,
            failed_hypotheses=failed,
            trace=tuple(trace),
        )

    v = decide(pair.matching())
    return v._replace(pair=pair, trace=tuple(trace) + v.trace)
