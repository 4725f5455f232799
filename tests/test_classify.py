import importlib
import itertools
import os
import pathlib
import random
import subprocess
import sys
from collections import Counter
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_matching, poly_of, random_perturbed_pair
import sepcurve.critical as critical
import sepcurve.linfactor as linfactor
from sepcurve.classify import (
    Outcome,
    classify,
    decide,
    matching_case_ids,
    sufficient_conditions,
)
from sepcurve.critical import PolynomialPair, match_pairs
from sepcurve.oneforms import verify_witnesses
from sepcurve.rationals import Rat, rat
from sepcurve.rpoly import Poly
from sepcurve.instances import (
    CASE_IDS,
    affine_image,
    case_instance,
    inconclusive_pair,
    random_affine_image,
    random_linear_factor_pair,
    random_polynomial,
    theorem1_pair,
    theorem2_pair,
    theorem3_pair,
)

cascade = importlib.import_module("sepcurve.classify")  # the package exports classify() under that name


def test_pinned_low_genus_cases():
    for cid in CASE_IDS:
        v = classify(case_instance(cid))
        assert v.outcome is Outcome.HAS_LOW_GENUS_COMPONENT
        expected = 1 if cid == 7 else cid  # the case-7 instance is a disguised case 1
        assert v.case == expected, (cid, v.rule)
        assert v.rule == f"Theorem 3 case {expected}"


def test_case7_instance_satisfies_both_shapes():
    # the matching has the case-7 shape; the linear factor makes it case 1
    assert matching_case_ids(match_pairs(case_instance(7))) == [7]
    assert classify(case_instance(7)).case == 1


def test_pinned_hyperbolic_rules():
    assert classify(theorem2_pair()).rule == "Theorem 2"
    v = classify(theorem1_pair())
    assert v.rule == "Theorem 1"
    for k in (3, 5, 8):
        v = classify(theorem3_pair(k))
        assert (v.outcome, v.rule) == (Outcome.HYPERBOLIC, "Theorem 3")


def test_inconclusive_unequal_degrees():
    v = classify(inconclusive_pair())
    assert v.outcome is Outcome.INCONCLUSIVE
    assert v.rule == "inconclusive"
    assert v.failed_hypotheses == ("excess criteria below threshold (unequal degrees)",)


def test_linear_factor_without_simple_values_is_not_case_1():
    # x^4 - 2x^2 pairs with itself: x - y divides, but two critical
    # points share a value, so the structured case-1 label is withheld
    p = poly_of(0, 0, -2, 0, 1)
    v = classify(PolynomialPair(p, p))
    assert v.outcome is Outcome.HAS_LOW_GENUS_COMPONENT
    assert v.rule == "linear factor" and v.case is None
    assert v.linear_witness is not None
    assert v.hyp_p is False


def test_linear_factor_past_the_int_to_str_digit_limit():
    """A witness whose coefficients have more digits than Python will
    print still yields a verdict: its text is formatted only when read."""
    src = pathlib.Path(__file__).parent.parent / "src"
    code = (
        "from sepcurve.classify import classify\n"
        "from sepcurve.critical import PolynomialPair\n"
        "from sepcurve.parsepoly import parse_poly\n"
        "v = classify(PolynomialPair(parse_poly('3^9000*x^2'), parse_poly('1/5^6000*x^2')))\n"
        "print(v.outcome.value, v.rule, v.case, v.trace[0], sep='|')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONINTMAXSTRDIGITS": "4300"},
        check=True,
    )
    assert out.stdout.rstrip("\n").split("|") == [
        "HasLowGenusComponent",
        "Theorem 3 case 1",
        "1",
        "linear factor found (family of 2 factor(s))",
    ]


def test_simple_value_failure_is_inconclusive():
    v = classify(PolynomialPair(poly_of(0, 0, -2, 0, 1), poly_of(0, 1, 0, 0, 1)))
    assert v.outcome is Outcome.INCONCLUSIVE
    assert v.failed_hypotheses == ("simple critical values for P",)
    assert v.hyp_p is False and v.hyp_q is True


def test_gap_rule_fires_at_its_boundary():
    # x^5 + x: n = 5 = max(n0, m0) + 4 exactly
    v = classify(PolynomialPair(poly_of(0, 1, 0, 0, 0, 1), poly_of(0, 2, 0, 0, 0, 1)))
    assert v.rule == "Theorem 2"
    # one below the gap the rule must not fire
    w = classify(PolynomialPair(poly_of(0, 1, 0, 0, 1), poly_of(0, 2, 0, 0, 1)))
    assert w.rule != "Theorem 2"


def test_gap_rule_declines_pure_powers():
    # x^7 has no intermediate term; the unmatched-count rule takes over
    v = classify(PolynomialPair(poly_of(0, 0, 0, 0, 0, 0, 0, 1), poly_of(0, 1, 0, 0, 0, 0, 0, 1)))
    assert v.rule == "Theorem 1"
    assert any("declined" in line for line in v.trace)


def test_natural_case_5_shape():
    v = classify(PolynomialPair(poly_of(0, 0, 0, 0, 0, 0, 1, 1), poly_of(0, 0, 0, 0, 0, 0, 2, 1)))
    assert (v.case, v.rule) == (5, "Theorem 3 case 5")


def test_a_dense_pair_runs_no_yun_and_no_linear_factor_search(monkeypatch, debug_checks):
    """Both sides certified as one class and no value shared: neither
    Yun's decomposition nor the linear-factor search runs."""
    debug_checks(False)  # they rerun both
    calls = Counter()
    for module, name in (
        (critical, "squarefree_decomposition"),
        (cascade, "find_linear_factor"),
        (linfactor, "find_linear_factor"),
    ):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, r=real, n=name: calls.update([n]) or r(*a))
    rng = random.Random(26)
    pair = PolynomialPair(*(random_polynomial(rng, 12, 12, sparse=False) for _ in "pq"))
    v = classify(pair)
    assert v.trace[0] == "linear factor: none" and v.linear_witness is None
    assert pair.matching().matched_pair_count == 0
    assert calls == Counter()


def test_the_gap_rule_pair_searches_for_a_linear_factor_before_any_analysis(monkeypatch):
    events = []
    for module, name in (
        (critical, "analyze"),
        (cascade, "find_linear_factor"),
        (linfactor, "find_linear_factor"),
    ):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda a, r=real, n=name: events.append(n) or r(a))
    x7 = poly_of(0, 0, 0, 0, 0, 0, 0, 1)
    v = classify(PolynomialPair(x7 + poly_of(0, 1), x7 + poly_of(0, 2)))
    assert v.rule == "Theorem 2"
    assert events == ["find_linear_factor"]


def test_a_skipped_linear_factor_search_is_rerun_under_debug_checks(monkeypatch, debug_checks):
    """A certificate that wrongly says the value images are coprime
    skips the search; the debug checks run it and find the factor."""
    debug_checks(False)
    p = theorem3_pair(4).p  # 5x^6 - 6x^5: points of multiplicity 4 and 1, values 0 and -1
    monkeypatch.setattr(critical, "_images_coprime", lambda pair: True)
    v = classify(PolynomialPair(p, p.shift_argument(3)))  # y = x - 3 is a factor
    assert v.linear_witness is None  # the faulty certificate is trusted...
    debug_checks(True)
    with pytest.raises(ArithmeticError, match="linear factor found"):
        classify(PolynomialPair(p, p.shift_argument(3)))  # ...unless debug checks search


_NO_FACTOR = "linear factor: none"
_EQUAL_DEGREES = [
    "theorem1_lhs = 1 (threshold 3)",
    "corollary1_lhs = 1 (threshold 3)",
    "no sufficient condition fired",
]
_X4_2X2 = poly_of(0, 0, -2, 0, 1)

# each pair with its whole trace
_PINNED_TRACES = [
    (theorem2_pair(), (_NO_FACTOR, "degree gap: n = 7 >= max(n0, m0) + 4 = 5")),
    (
        theorem1_pair(),
        (
            _NO_FACTOR,
            "degree gap rule declined: no intermediate term (n0 = 0, m0 = 1)",
            "theorem1_lhs = 4 (threshold 3)",
            "corollary1_lhs = 4 (threshold 3)",
            "sufficient conditions fired: Theorem 1, Corollary 1",
        ),
    ),
    (
        theorem3_pair(4),
        (
            _NO_FACTOR,
            "degree gap rule not applicable (n = 6, m = 6, max(n0, m0) + 4 = 9)",
            *_EQUAL_DEGREES,
            "no exceptional shape matched",
        ),
    ),
    (
        case_instance(4),
        (
            _NO_FACTOR,
            "degree gap rule not applicable (n = 5, m = 5, max(n0, m0) + 4 = 8)",
            *_EQUAL_DEGREES,
            "exceptional shape(s) matched: [4]",
        ),
    ),
    (
        inconclusive_pair(),
        (
            _NO_FACTOR,
            "degree gap rule not applicable (n = 5, m = 2, max(n0, m0) + 4 = 4)",
            "theorem1_lhs = 3 (threshold 6)",
            "corollary1_lhs = 0 (threshold 3)",
            "no sufficient condition fired",
            "degrees differ and no excess criterion reached its threshold",
        ),
    ),
    (
        PolynomialPair(_X4_2X2, poly_of(0, 1, 0, 0, 1)),
        (
            _NO_FACTOR,
            "degree gap rule not applicable (n = 4, m = 4, max(n0, m0) + 4 = 6)",
            "failed: simple critical values for P",
        ),
    ),
    (PolynomialPair(_X4_2X2, _X4_2X2), ("linear factor found (family of 2 factor(s))",)),
]


def test_verdict_trace_records_the_path():
    decided = 0
    for pair, trace in _PINNED_TRACES:
        v = classify(pair)
        assert v.trace == trace
        if v.matching is not None:  # two pair-level lines, then decide's
            d = decide(pair.matching())
            assert v == d._replace(pair=pair, trace=trace[:2] + d.trace)
            decided += 1
    assert decided == 4


def test_verdicts_invariant_under_affine_images():
    rng = random.Random(99)
    for base in (case_instance(4), case_instance(6), theorem3_pair(3), theorem2_pair()):
        expected = classify(base)
        for _ in range(3):
            image = classify(random_affine_image(base, rng))
            assert image.outcome is expected.outcome
            assert image.case == expected.case


@st.composite
def instance_pairs(draw):
    """A pair from the instances generators: a case instance, the
    Theorem 2 or a theorem3_pair, a linear-factor or perturbed pair, or
    a random pair of degree up to 9."""
    kinds = ["case", "theorem2", "theorem3", "linear factor", "perturbed", "random"]
    kind = draw(st.sampled_from(kinds))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "case":
        return case_instance(draw(st.sampled_from(CASE_IDS)))
    if kind == "theorem2":
        return theorem2_pair()
    if kind == "theorem3":
        return theorem3_pair(draw(st.integers(3, 11)))
    if kind == "linear factor":
        return random_linear_factor_pair(rng)[0]
    if kind == "perturbed":
        return random_perturbed_pair(rng)
    return PolynomialPair(random_polynomial(rng, 2, 9), random_polynomial(rng, 2, 9))


small_rats = st.builds(rat, st.integers(-7, 7), st.integers(1, 4))
nonzero_rats = st.builds(rat, st.integers(1, 7).map(lambda k: k * (-1) ** k), st.integers(1, 4))


def _verdict_and_aggregates(pair):
    v = classify(pair)
    hyp = (pair.critical_p().hypothesis_I, pair.critical_q().hypothesis_I)
    return (v.outcome, v.rule, v.case, v.fired_rules, v.failed_hypotheses), (hyp, pair.matching())


@given(pair=instance_pairs(), a=nonzero_rats, b=small_rats, c=nonzero_rats, d=small_rats)
@settings(deadline=None, max_examples=150)
def test_affine_images_keep_verdict_rule_and_aggregates(pair, a, b, c, d):
    """x -> a x + b on P and y -> c y + d on Q map the curve onto an
    isomorphic one, so the critical aggregates, the linear factors and
    the verdict carry over."""
    verdict, aggregates = _verdict_and_aggregates(pair)
    image_verdict, image_aggregates = _verdict_and_aggregates(affine_image(pair, (a, b), (c, d)))
    assert image_aggregates == aggregates
    # the gap rule (Theorem 2) reads which coefficients are nonzero, and a
    # shift b, d != 0 changes that: only there may the verdict move
    if not ((b or d) and "Theorem 2" in (verdict[1], image_verdict[1])):
        assert image_verdict == verdict


@given(pair=instance_pairs(), v=small_rats)
@settings(deadline=None, max_examples=60)
def test_a_shared_constant_keeps_verdict_rule_and_aggregates(pair, v):
    """P + v and Q + v define the same curve as P and Q."""
    image = affine_image(pair, (1, 0), (1, 0), (1, v))
    assert _verdict_and_aggregates(image) == _verdict_and_aggregates(pair)


# --- aggregate-level rules on synthetic matchings ---


def test_sufficient_conditions_excess_two():
    assert sufficient_conditions(make_matching([(3, 1), (1, 1)])) == ["big2(a)"]
    assert sufficient_conditions(make_matching([(2, 1), (3, 2)])) == ["big2(a)"]


def test_sufficient_conditions_unmatched_mass_two():
    fired = sufficient_conditions(make_matching([(2, 2)], unm_p=(1, 1)))
    assert fired == ["big2(b)"]
    # mirrored on the q side
    fired = sufficient_conditions(make_matching([(2, 2)], unm_q=(1, 1)))
    assert fired == ["big2c(b)"]


def test_sufficient_conditions_excluded_shapes_note_and_skip():
    trace = []
    fired = sufficient_conditions(make_matching([(1, 3)], unm_p=(1, 1)), trace)
    assert "big2(b)" not in fired
    assert any("excluded shape" in line for line in trace)

    trace = []
    fired = sufficient_conditions(
        make_matching([(1, 1), (1, 1)], unm_p=(1,), unm_q=(1,)), trace
    )
    assert "big2(c)" not in fired
    assert any("excluded shape" in line for line in trace)


def test_sufficient_conditions_single_extra_point():
    fired = sufficient_conditions(make_matching([(2, 2), (2, 2)], unm_p=(1,), unm_q=(1,)))
    assert "big2(c)" in fired and "big2c(c)" in fired


def test_case_shape_ids_on_synthetic_aggregates():
    # case 4: one critical point against two
    m = make_matching([(4, 3)], unm_q=(1,))
    assert matching_case_ids(m) == [4]
    # case 5: balanced two-point shape
    m = make_matching([(4, 4), (1, 1)])
    assert matching_case_ids(m) == [5]
    # case 6: the five-point configuration
    m = make_matching([(2, 2), (1, 1), (1, 1)])
    assert matching_case_ids(m) == [6]
    # case 7: two double-double points at degree 5
    m = make_matching([(2, 2), (2, 2)], deg=(5, 5))
    assert matching_case_ids(m) == [7]
    # and a shape outside the list matches nothing
    m = make_matching([(3, 3), (3, 3)])
    assert matching_case_ids(m) == []
    # low degrees always land in case 2
    m = make_matching([(1, 1)], unm_p=(1,), unm_q=(1,), deg=(3, 3))
    assert 2 in matching_case_ids(m)


# --- exchanging P and Q ---

# each Q-side rule label against its P-side rule
_SWAP = {"Theorem 1": "Corollary 1"}
_SWAP.update({f"big2({c})": f"big2c({c})" for c in "abc"})
_SWAP.update({v: k for k, v in _SWAP.items()})


def _swapped_labels(labels):
    return Counter(_SWAP.get(r, r) for r in labels)


def _antiderivative(a, b, s):
    """The antiderivative of x^a (x - s)^b vanishing at 0: critical
    points 0 and s of multiplicities a and b."""
    x = Poly.x()
    d = x**a * (x - s) ** b
    return Poly([Rat(0)] + [d.coeff(k) / (k + 1) for k in range(d.degree + 1)])


def _equal_degree_swap_pairs():
    rng = random.Random(9)
    pairs = [case_instance(cid) for cid in CASE_IDS]
    pairs += [theorem3_pair(k) for k in range(3, 7)]
    pairs += [random_affine_image(pair, rng) for pair in list(pairs)]
    for _ in range(40):
        n = rng.randint(2, 6)
        pairs.append(PolynomialPair(random_polynomial(rng, n, n), random_polynomial(rng, n, n)))
    for _ in range(8):
        p = random_polynomial(rng, 2, 6)
        pairs.append(PolynomialPair(p, p))
    # two critical points a side, one shared value: the small conditions
    for total in range(2, 6):
        for a, c in itertools.product(range(1, total), repeat=2):
            for s in (1, -1):
                p, q = _antiderivative(a, total - a, 1), _antiderivative(c, total - c, s)
                pairs.append(PolynomialPair(p, q))
    pairs.append(PolynomialPair(poly_of(0, 0, -2, 0, 1), poly_of(0, 1, 0, 0, 1)))
    return pairs


def test_swapping_p_and_q_mirrors_the_verdict():
    fired, hyp_failures = Counter(), 0
    for pair in _equal_degree_swap_pairs():
        p, q = pair.p, pair.q
        v, w = classify(PolynomialPair(p, q)), classify(PolynomialPair(q, p))
        assert (w.outcome, w.case) == (v.outcome, v.case), pair
        assert (w.hyp_p, w.hyp_q) == (v.hyp_q, v.hyp_p), pair
        assert _swapped_labels(w.fired_rules) == Counter(v.fired_rules), pair
        # the mirror against an independent computation of the swapped matching
        assert match_pairs(PolynomialPair(q, p)) == match_pairs(PolynomialPair(p, q)).mirrored()
        fired.update(v.fired_rules)
        hyp_failures += not (v.hyp_p and v.hyp_q)
    # the draws reach the small conditions and both branches of case 4
    for rule in ("big2(a)", "big2(b)", "big2c(b)", "Theorem 3 case 4", "Corollary 1"):
        assert fired[rule] > 0, rule
    assert hyp_failures > 0


def _small_equal_degree_matchings():
    points = [(p, q) for p in range(1, 4) for q in range(1, 4)]
    unmatched = [(), (1,), (2,), (1, 1)]
    for k in range(4):
        for matched in itertools.combinations_with_replacement(points, k):
            for unm_p, unm_q in itertools.product(unmatched, repeat=2):
                m = make_matching(matched, unm_p, unm_q)
                if m.deg_p == m.deg_q:
                    yield m
                yield make_matching(matched, unm_p, unm_q, deg=(5, 5))


def test_mirrored_matching_fires_the_mirrored_rules():
    seen = Counter()
    for m in _small_equal_degree_matchings():
        fired = sufficient_conditions(m)
        assert _swapped_labels(sufficient_conditions(m.mirrored())) == Counter(fired), m
        ids = matching_case_ids(m)
        assert matching_case_ids(m.mirrored()) == ids, m
        v, w = decide(m), decide(m.mirrored())
        assert (w.outcome, w.case, _swapped_labels(w.fired_rules)) == (
            v.outcome, v.case, Counter(v.fired_rules)
        ), m
        seen.update(fired)
        seen.update(f"case {i}" for i in ids)
    for label in ("big2(a)", "big2(b)", "big2(c)", "big2c(c)", "case 4", "case 6"):
        assert seen[label] > 0, label


def _partitions(total, largest=None):
    """The partitions of total, each a descending tuple."""
    if total == 0:
        yield ()
    for k in range(min(total, largest or total), 0, -1):
        for rest in _partitions(total - k, k):
            yield (k,) + rest


def _pair_multisets(ps, qs):
    """Every multiset of matched (p, q) points drawing its p's from the
    multiset ps and its q's from qs, each once, with what is left of
    ps and qs unmatched: (matched, unmatched p's, unmatched q's)."""
    kinds = list(itertools.product(sorted(set(ps)), sorted(set(qs))))

    def extend(i, ps, qs):
        if i == len(kinds):
            yield (), tuple(ps.elements()), tuple(qs.elements())
            return
        p, q = kinds[i]
        for c in range(min(ps[p], qs[q]) + 1):
            for rest, unm_p, unm_q in extend(i + 1, ps - Counter({p: c}), qs - Counter({q: c})):
                yield ((p, q),) * c + rest, unm_p, unm_q

    yield from extend(0, Counter(ps), Counter(qs))


def _mass_identity_matchings():
    """Every matching a pair satisfying Hypothesis I can have with
    n >= m >= 2 and n <= 8: P's multiplicities are a partition of n - 1,
    Q's of m - 1, and any multiset of pairs of them is matched."""
    for n in range(2, 9):
        for m in range(2, n + 1):
            for ps, qs in itertools.product(_partitions(n - 1), _partitions(m - 1)):
                for matched, unm_p, unm_q in _pair_multisets(ps, qs):
                    yield make_matching(matched, unm_p, unm_q)


def test_decide_feeds_the_witness_audit_on_bare_matchings():
    rules, audited, refused = Counter(), 0, []
    for m in _mass_identity_matchings():
        v = decide(m)
        rules[v.rule] += 1
        # the mass identity: theorem1_lhs - corollary1_lhs = n - m, so
        # each mirrored rule without an emitter fires with its P-side rule
        fired = set(v.fired_rules)
        assert ("Corollary 1" in fired) == ("Theorem 1" in fired), m
        assert ("big2c(a)" in fired) == ("big2(a)" in fired), m
        if v.outcome is not Outcome.HYPERBOLIC:
            continue
        try:
            forms, reports = verify_witnesses(v)
        except ValueError:
            refused.append(m)
            continue
        assert all(r.overall for r in reports), (m, v.rule)
        audited += 1
    assert sum(rules.values()) == 9858 and audited == 7373
    # x^n vs y^n: one point of multiplicity n - 1 a side, both at value 0.
    # decide calls it Theorem 3, but the pair has linear factors
    # y = zeta x, so the linear-factor step of classify reports case 1
    # before decide runs
    assert refused == [make_matching([(k, k)]) for k in range(3, 8)]
    assert classify(PolynomialPair(poly_of(0, 0, 0, 0, 1), poly_of(0, 0, 0, 0, 1))).case == 1
    # so neither is ever a verdict's rule
    assert rules["Corollary 1"] == rules["big2c(a)"] == 0


def _euler_characteristic(matching):
    """χ of the curve P(x) = Q(y) read off a bare matching under
    Hypothesis I, by Riemann–Hurwitz over the t-line: 2nm, less
    nm - gcd(n, m) at infinity.  A matched (p, q) is one value where P
    has one point of index e = p + 1 and Q one of index f = q + 1: that
    pair loses ef - gcd(e, f), Q's point against P's n - e others f - 1
    each, and P's against Q's m - f others e - 1 each.  An unmatched
    point of P of multiplicity p loses p·m, and one of Q, q·n."""
    n, m = matching.deg_p, matching.deg_q
    chi = n * m + gcd(n, m)
    chi -= m * sum(matching.unmatched_p_points) + n * sum(matching.unmatched_q_points)
    for p, q in matching.matched_points:
        e, f = p + 1, q + 1
        chi -= e * f - gcd(e, f) + (e - 1) * (m - f) + (f - 1) * (n - e)
    return chi


def test_euler_characteristic_agrees_with_decide_on_bare_matchings():
    """χ is even on every shape of the degree-8 sweep, at least 0 on
    every shape decide sends to Theorem 3 cases 2-7 (a component of
    genus at most one), and at most -2 on every Hyperbolic shape but
    six.  Those six force Q = P∘affine, so the linear-factor step of
    classify decides them before decide is asked."""
    shapes, low, exceptions = 0, 0, {}
    for m in _mass_identity_matchings():
        v, chi = decide(m), _euler_characteristic(m)
        assert chi % 2 == 0, m
        shapes += 1
        if v.case in range(2, 8):
            assert chi >= 0, m
            low += 1
        elif v.outcome is Outcome.HYPERBOLIC and chi > -2:
            exceptions[m] = chi
    assert (shapes, low) == (9858, 42)
    # x^n vs y^n, n = k + 1: χ = 2k + 2, and the emitter refuses them
    pinned = {make_matching([(k, k)]): 2 * k + 2 for k in range(3, 8)}
    # n = 6 with shared values of multiplicities 3 and 2: χ = 0, and its
    # witnesses pass the audit
    pinned[make_matching([(3, 3), (2, 2)])] = 0
    assert exceptions == pinned


def test_excluded_shape_and_near_miss_notes_on_both_sides():
    def run(*args, **kwargs):
        notes = []
        return sufficient_conditions(make_matching(*args, **kwargs), notes), notes

    assert run([(1, 3)], unm_p=(1, 1)) == (
        [], ["big2(b) skipped: excluded shape (single pair (1,3))"]
    )
    assert run([(3, 1)], unm_q=(1, 1)) == (
        [], ["big2c(b) skipped: excluded shape (single pair (3,1))"]
    )
    assert run([(1, 1), (1, 1)], unm_p=(1,), unm_q=(1,)) == (
        [],
        [
            "big2(c) skipped: excluded shape (two simple matched points "
            "and one simple unmatched point)",
            "big2c(c) skipped: excluded shape (two simple matched points "
            "and one simple unmatched point, q side)",
        ],
    )
    # a double matched point breaks one of the three equalities on each side
    assert run([(2, 2), (1, 1)], unm_p=(1,), unm_q=(1,)) == (
        ["big2(c)", "big2c(c)"],
        [
            "big2(c) near-miss: two of the three excluded-shape equalities hold",
            "big2c(c) near-miss: two of the three excluded-shape equalities hold",
        ],
    )
