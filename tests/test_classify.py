import random

from helpers import make_matching, poly_of
from sepcurve.classify import (
    Outcome,
    classify,
    matching_case_ids,
    sufficient_conditions,
)
from sepcurve.critical import PolynomialPair, match_pairs
from sepcurve.instances import (
    CASE_IDS,
    case_instance,
    inconclusive_pair,
    random_affine_image,
    theorem1_pair,
    theorem2_pair,
    theorem3_pair,
)


def test_pinned_low_genus_cases():
    for cid in CASE_IDS:
        v = classify(case_instance(cid))
        assert v.outcome is Outcome.HAS_LOW_GENUS_COMPONENT
        expected = 1 if cid == 7 else cid  # the case-7 instance is a disguised case 1
        assert v.case == expected, (cid, v.rule)
        assert v.rule == f"Theorem 3 case {expected}"


def test_case7_instance_satisfies_both_shapes():
    matching = match_pairs(case_instance(7))
    assert matching_case_ids(matching, has_linear_factor=True) == [1, 7]


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


def test_verdict_trace_records_the_path():
    v = classify(theorem2_pair())
    assert v.trace[0] == "linear factor: none"
    assert any("degree gap" in line for line in v.trace)

    v = classify(theorem3_pair(4))
    assert any("no exceptional shape matched" in line for line in v.trace)


def test_verdicts_invariant_under_affine_images():
    rng = random.Random(99)
    for base in (case_instance(4), case_instance(6), theorem3_pair(3), theorem2_pair()):
        expected = classify(base)
        for _ in range(3):
            image = classify(random_affine_image(base, rng))
            assert image.outcome is expected.outcome
            assert image.case == expected.case


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
    assert matching_case_ids(m, has_linear_factor=False) == [4]
    # case 5: balanced two-point shape
    m = make_matching([(4, 4), (1, 1)])
    assert matching_case_ids(m, has_linear_factor=False) == [5]
    # case 6: the five-point configuration
    m = make_matching([(2, 2), (1, 1), (1, 1)])
    assert matching_case_ids(m, has_linear_factor=False) == [6]
    # case 7: two double-double points at degree 5
    m = make_matching([(2, 2), (2, 2)], deg=(5, 5))
    assert matching_case_ids(m, has_linear_factor=False) == [7]
    # a linear factor puts case 1 first, ahead of any shape
    assert matching_case_ids(m, has_linear_factor=True) == [1, 7]
    # and a shape outside the list matches nothing
    m = make_matching([(3, 3), (3, 3)])
    assert matching_case_ids(m, has_linear_factor=False) == []
    # low degrees always land in case 2
    m = make_matching([(1, 1)], unm_p=(1,), unm_q=(1,), deg=(3, 3))
    assert 2 in matching_case_ids(m, has_linear_factor=False)
