"""Verdict cascade for P(x) - Q(y) = 0.

The decision order is fixed:

1. a linear factor forces a low-genus (rational) component;
2. the wide-gap criterion ("Theorem 2"): n == m, both polynomials
   carry an intermediate term (n0 >= 1 and m0 >= 1), and
   n >= max(n0, m0) + 4;
3. with simple critical values on both sides, the excess criteria
   ("Theorem 1", "Corollary 1") and the exhaustive list of small
   sufficient conditions ("big2(a)".."big2c(c)", equal degrees only);
4. for equal degrees with simple critical values, the closed list of
   exceptional shapes (cases 1-7): any match means a low-genus
   component, no match means hyperbolic ("Theorem 3");
5. otherwise inconclusive, listing what failed.

Rule labels are the report vocabulary used by the CLI/JSON interface.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .critical import PairMatching, PolynomialPair, corollary1_lhs, theorem1_lhs
from .linfactor import LinearFactorWitness, find_linear_factor


class Outcome(enum.Enum):
    HYPERBOLIC = "Hyperbolic"
    HAS_LOW_GENUS_COMPONENT = "HasLowGenusComponent"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Verdict:
    outcome: Outcome
    rule: str
    pair: PolynomialPair
    case: Optional[int] = None
    matching: Optional[PairMatching] = None
    linear_witness: Optional[LinearFactorWitness] = None
    hyp_p: Optional[bool] = None
    hyp_q: Optional[bool] = None
    fired_rules: tuple = ()
    failed_hypotheses: tuple = ()
    trace: tuple = ()


def sufficient_conditions(matching: PairMatching, trace=None):
    """All of the small sufficient hyperbolicity conditions that hold
    for these aggregates (equal degrees, both sides with simple
    critical values assumed).  Returns rule labels in check order."""
    fired = []
    notes = trace if trace is not None else []
    l0 = matching.matched_pair_count
    l = matching.p_point_count
    h = matching.q_point_count
    ump = matching.unmatched_p_mass
    umq = matching.unmatched_q_mass
    t1 = theorem1_lhs(matching)
    c1 = corollary1_lhs(matching)
    ps = [p for p, _ in matching.matched_points]  # descending: index order
    qs = sorted((q for _, q in matching.matched_points), reverse=True)

    if l0 >= 2 and t1 == 2:
        fired.append("big2(a)")
    if l0 >= 1 and ump == 2:
        if l0 == 1 and matching.matched_points[0] == (1, 3):
            notes.append("big2(b) skipped: excluded shape (single pair (1,3))")
        else:
            fired.append("big2(b)")
    if l0 >= 2 and l == l0 + 1:
        exception_parts = [ump == 1, len(ps) >= 1 and ps[0] == 1, len(ps) >= 2 and ps[1] == 1]
        if l0 == 2 and all(exception_parts):
            notes.append(
                "big2(c) skipped: excluded shape (two simple matched points "
                "and one simple unmatched point)"
            )
        else:
            if l0 == 2 and sum(exception_parts) == 2:
                notes.append(
                    "big2(c) near-miss: two of the three excluded-shape "
                    "equalities hold"
                )
            fired.append("big2(c)")
    if l0 >= 2 and c1 == 2:
        fired.append("big2c(a)")
    if l0 >= 1 and umq == 2:
        if l0 == 1 and matching.matched_points[0] == (3, 1):
            notes.append("big2c(b) skipped: excluded shape (single pair (3,1))")
        else:
            fired.append("big2c(b)")
    if l0 >= 2 and h == l0 + 1:
        exception_parts = [umq == 1, len(qs) >= 1 and qs[0] == 1, len(qs) >= 2 and qs[1] == 1]
        if l0 == 2 and all(exception_parts):
            notes.append(
                "big2c(c) skipped: excluded shape (two simple matched points "
                "and one simple unmatched point, q side)"
            )
        else:
            if l0 == 2 and sum(exception_parts) == 2:
                notes.append(
                    "big2c(c) near-miss: two of the three excluded-shape "
                    "equalities hold"
                )
            fired.append("big2c(c)")
    return fired


def matching_case_ids(matching: PairMatching, has_linear_factor: bool):
    """Every exceptional-shape id (1-7) whose defining conditions hold.

    The classifier reports the first; this helper exists for traces,
    diagnostics and tests of shapes that satisfy several definitions at
    once."""
    n = matching.deg_p
    l0 = matching.matched_pair_count
    l = matching.p_point_count
    h = matching.q_point_count
    pts = matching.matched_points
    pms = matching.p_multiset
    qms = matching.q_multiset
    ids = []
    if has_linear_factor:
        ids.append(1)
    if n in (2, 3):
        ids.append(2)
    if n == 4 and (l0 >= 2 or (l0 == 1 and abs(pts[0][0] - pts[0][1]) == 2)):
        ids.append(3)
    if (
        l == 1
        and h == 2
        and qms == (pms[0] - 1, 1)
        and (pms[0], pms[0] - 1) in pts
    ):
        ids.append(4)
    elif (
        h == 1
        and l == 2
        and pms == (qms[0] - 1, 1)
        and (qms[0] - 1, qms[0]) in pts
    ):
        ids.append(4)
    if (
        l == 2
        and h == 2
        and len(pms) == 2
        and pms[1] == 1
        and qms == pms
        and (pms[0], pms[0]) in pts
        and n == pms[0] + 2
    ):
        ids.append(5)
    if (
        n == 5
        and l0 == 3
        and l == 3
        and h == 3
        and pms == (2, 1, 1)
        and qms == (2, 1, 1)
        and pts == ((2, 2), (1, 1), (1, 1))
    ):
        ids.append(6)
    if n == 5 and l0 == 2 and l == 2 and h == 2 and pts == ((2, 2), (2, 2)):
        ids.append(7)
    return ids


def classify(pair: PolynomialPair) -> Verdict:
    """Run the full cascade.  Every rule consulted lands in the trace;
    the verdict cites the first that fired."""
    trace = []
    n, m = pair.n, pair.m

    witness = find_linear_factor(pair)
    if witness is not None:
        trace.append(f"linear factor found ({witness.description})")
        hyp_p = pair.critical_p().hypothesis_I
        hyp_q = pair.critical_q().hypothesis_I
        if n == m and hyp_p and hyp_q:
            rule, case = "Theorem 3 case 1", 1
        else:
            rule, case = "linear factor", None
        return Verdict(
            outcome=Outcome.HAS_LOW_GENUS_COMPONENT,
            rule=rule,
            case=case,
            pair=pair,
            linear_witness=witness,
            hyp_p=hyp_p,
            hyp_q=hyp_q,
            fired_rules=(rule,),
            trace=tuple(trace),
        )
    trace.append("linear factor: none")

    # The wide-gap rule presumes both polynomials actually have an
    # intermediate nonzero coefficient; a pure power (n0 = 0) is handled
    # by the excess criteria below instead.
    gap = max(pair.n0, pair.m0) + 4
    if n == m and pair.n0 >= 1 and pair.m0 >= 1 and n >= gap:
        trace.append(f"degree gap: n = {n} >= max(n0, m0) + 4 = {gap}")
        return Verdict(
            outcome=Outcome.HYPERBOLIC,
            rule="Theorem 2",
            pair=pair,
            fired_rules=("Theorem 2",),
            trace=tuple(trace),
        )
    if n == m and n >= gap:
        trace.append(
            "degree gap rule declined: no intermediate term "
            f"(n0 = {pair.n0}, m0 = {pair.m0})"
        )
    else:
        trace.append(
            f"degree gap rule not applicable (n = {n}, m = {m}, "
            f"max(n0, m0) + 4 = {gap})"
        )

    hyp_p = pair.critical_p().hypothesis_I
    hyp_q = pair.critical_q().hypothesis_I
    if not (hyp_p and hyp_q):
        failed = tuple(
            f"simple critical values for {side}"
            for side, ok in (("P", hyp_p), ("Q", hyp_q))
            if not ok
        )
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

    matching = pair.matching()
    t1 = theorem1_lhs(matching)
    c1 = corollary1_lhs(matching)
    fired = []
    if t1 >= n - m + 3:
        fired.append("Theorem 1")
    trace.append(f"theorem1_lhs = {t1} (threshold {n - m + 3})")
    if c1 >= 3:
        fired.append("Corollary 1")
    trace.append(f"corollary1_lhs = {c1} (threshold 3)")
    if n == m:
        fired.extend(sufficient_conditions(matching, trace))
    if fired:
        trace.append("sufficient conditions fired: " + ", ".join(fired))
        return Verdict(
            outcome=Outcome.HYPERBOLIC,
            rule=fired[0],
            pair=pair,
            matching=matching,
            hyp_p=hyp_p,
            hyp_q=hyp_q,
            fired_rules=tuple(fired),
            trace=tuple(trace),
        )
    trace.append("no sufficient condition fired")

    if n == m:
        ids = matching_case_ids(matching, has_linear_factor=False)
        if ids:
            trace.append(f"exceptional shape(s) matched: {ids}")
            return Verdict(
                outcome=Outcome.HAS_LOW_GENUS_COMPONENT,
                rule=f"Theorem 3 case {ids[0]}",
                case=ids[0],
                pair=pair,
                matching=matching,
                hyp_p=hyp_p,
                hyp_q=hyp_q,
                fired_rules=tuple(f"Theorem 3 case {i}" for i in ids),
                trace=tuple(trace),
            )
        trace.append("no exceptional shape matched")
        return Verdict(
            outcome=Outcome.HYPERBOLIC,
            rule="Theorem 3",
            pair=pair,
            matching=matching,
            hyp_p=hyp_p,
            hyp_q=hyp_q,
            fired_rules=("Theorem 3",),
            trace=tuple(trace),
        )

    trace.append("degrees differ and no excess criterion reached its threshold")
    return Verdict(
        outcome=Outcome.INCONCLUSIVE,
        rule="inconclusive",
        pair=pair,
        matching=matching,
        hyp_p=hyp_p,
        hyp_q=hyp_q,
        failed_hypotheses=("excess criteria below threshold (unequal degrees)",),
        trace=tuple(trace),
    )
