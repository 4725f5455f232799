import itertools

import pytest

from helpers import hyperbolic_verdict, make_matching, poly_of
from sepcurve.classify import Outcome, classify
from sepcurve.critical import PolynomialPair
from sepcurve.instances import theorem1_pair, theorem2_pair, theorem3_pair
from sepcurve.oneforms import (
    MalformedFormError,
    OneFormSpec,
    check_regularity,
    emit_witnesses,
    order_bounds,
    verify_witnesses,
)


def assert_verified(rule, matching, *, expect_texts=None):
    v = hyperbolic_verdict(rule, matching)
    forms, reports = verify_witnesses(v)
    assert len(forms) == 2
    for f, r in zip(forms, reports):
        bad = [c for c in r.checks if not c.satisfied]
        assert r.overall, (rule, f.to_text(), bad)
    if expect_texts is not None:
        assert [f.to_text() for f in forms] == expect_texts
    return forms


def test_gap_rule_forms_end_to_end():
    v = classify(theorem2_pair())
    forms, reports = verify_witnesses(v)
    assert [f.to_text() for f in forms] == [
        "W(z0,z1) / z2^2",
        "z0 * W(z0,z1) / z2^3",
    ]
    assert all(r.overall for r in reports)
    assert all("linear independence" in n for r in reports for n in r.notes)


def test_count_threshold_forms_end_to_end():
    v = classify(theorem1_pair())
    forms, reports = verify_witnesses(v)
    assert [f.to_text() for f in forms] == [
        "z0 * z2 * W(z1,z2) / (z0 - a1*z2)^4",
        "z2^2 * W(z1,z2) / (z0 - a1*z2)^4",
    ]
    assert all(r.overall for r in reports)


@pytest.mark.parametrize("k", range(3, 9))
def test_generic_rule_family_forms(k):
    v = classify(theorem3_pair(k))
    assert v.outcome is Outcome.HYPERBOLIC and v.rule == "Theorem 3"
    _forms, reports = verify_witnesses(v)
    assert all(r.overall for r in reports)


def test_low_genus_verdicts_refuse_witnesses():
    v = classify(PolynomialPair(poly_of(0, 0, 0, 1), poly_of(0, 0, 0, 1)))
    assert v.outcome is not Outcome.HYPERBOLIC
    with pytest.raises(ValueError, match="no witness for low-genus verdicts"):
        emit_witnesses(v)


BIG2A_SHAPES = [
    ([(3, 1), (1, 1)], {}, "one wide pair"),
    ([(3, 1), (1, 3)], {}, "wide pair plus mirror-wide"),
    ([(4, 2), (2, 2)], {}, "wide pair, higher multiplicity"),
    ([(2, 1), (3, 2)], {}, "two step pairs"),
    ([(2, 1), (1, 1)], {"unm_p": (1,)}, "step plus unmatched"),
    ([(3, 2), (1, 2)], {"unm_p": (1,)}, "step plus unmatched, minus-one partner"),
    ([(2, 2), (1, 1)], {"unm_p": (1, 1)}, "two unmatched points"),
]


@pytest.mark.parametrize("matched,extra,label", BIG2A_SHAPES, ids=[s[2] for s in BIG2A_SHAPES])
def test_excess_two_emission(matched, extra, label):
    assert_verified("big2(a)", make_matching(matched, **extra))


@pytest.mark.parametrize(
    "matched,extra",
    [
        ([(2, 2)], {"unm_p": (1, 1)}),
        ([(1, 2)], {"unm_p": (1, 1)}),
        ([(2, 4)], {"unm_p": (1, 1)}),
    ],
)
def test_unmatched_mass_two_emission(matched, extra):
    assert_verified("big2(b)", make_matching(matched, **extra))


def test_unmatched_mass_two_excluded_shape_raises():
    v = hyperbolic_verdict("big2(b)", make_matching([(1, 3)], unm_p=(1, 1)))
    with pytest.raises(ValueError, match="excluded \\(1, 3\\)"):
        emit_witnesses(v)


@pytest.mark.parametrize(
    "matched,extra",
    [
        ([(2, 2), (2, 2)], {"unm_p": (1,), "unm_q": (1,)}),
        ([(2, 3), (2, 2)], {"unm_p": (1,)}),
        ([(1, 2), (1, 1), (1, 1)], {"unm_p": (1,)}),
        ([(3, 3), (1, 1), (1, 1)], {"unm_p": (1,), "unm_q": (1,)}),
    ],
)
def test_single_extra_point_emission(matched, extra):
    assert_verified("big2(c)", make_matching(matched, **extra))


def test_single_extra_point_excluded_shape_raises():
    v = hyperbolic_verdict(
        "big2(c)", make_matching([(1, 1), (1, 1)], unm_p=(1,), unm_q=(1,))
    )
    with pytest.raises(ValueError, match="excluded all-simple two-pair"):
        emit_witnesses(v)


@pytest.mark.parametrize(
    "rule,matched,extra",
    [
        ("big2c(a)", [(1, 3), (1, 1)], {}),
        ("big2c(a)", [(1, 2), (2, 3)], {}),
        ("big2c(a)", [(1, 2), (1, 2)], {"unm_p": (1,)}),
        ("big2c(a)", [(1, 2), (1, 1)], {"unm_q": (1,)}),
        ("big2c(b)", [(2, 2)], {"unm_q": (1, 1)}),
        ("big2c(b)", [(2, 1)], {"unm_p": (1,), "unm_q": (1, 1)}),
        ("big2c(c)", [(2, 2), (2, 2)], {"unm_p": (1,), "unm_q": (1,)}),
    ],
)
def test_mirrored_rule_emission(rule, matched, extra):
    assert_verified(rule, make_matching(matched, **extra))


def test_mirrored_excluded_shape_raises():
    v = hyperbolic_verdict("big2c(b)", make_matching([(3, 1)], unm_q=(1, 1)))
    with pytest.raises(ValueError, match="excluded \\(1, 3\\)"):
        emit_witnesses(v)


def test_corollary_rule_mirrors_count_threshold():
    m = make_matching([(1, 3)], unm_q=(2, 1))
    assert_verified("Corollary 1", m)


THEOREM3_SHAPES = [
    [(3, 3), (3, 3)],
    [(4, 3), (3, 4)],
    [(2, 2), (2, 2), (2, 2)],
    [(2, 1), (2, 2), (1, 2), (1, 1)],
    [(3, 3), (2, 2)],
    [(4, 4), (2, 2)],
    [(2, 3), (2, 1)],
    [(3, 2), (1, 2)],
    [(4, 3), (1, 2)],
    [(3, 4), (2, 1)],
    [(3, 2), (2, 3)],
    [(2, 1), (1, 2), (1, 1)],
    [(3, 3), (1, 1), (1, 1)],
    [(4, 3), (1, 2), (1, 1)],
    [(1, 1)] * 5,
    [(2, 1), (1, 2), (1, 1), (1, 1)],
]


@pytest.mark.parametrize("matched", THEOREM3_SHAPES, ids=[str(s) for s in THEOREM3_SHAPES])
def test_generic_rule_branches(matched):
    assert_verified("Theorem 3", make_matching(matched))


def test_generic_rule_guards():
    # the balanced two-pair shape belongs to an exceptional case, never here
    v = hyperbolic_verdict("Theorem 3", make_matching([(4, 4), (1, 1)]))
    with pytest.raises(ValueError, match="small two-pair"):
        emit_witnesses(v)
    # unmatched points never reach the generic rule
    v = hyperbolic_verdict(
        "Theorem 3", make_matching([(2, 2), (2, 2)], unm_p=(1,), unm_q=(1,))
    )
    with pytest.raises(ValueError, match="fully matched"):
        emit_witnesses(v)


def test_pole_order_rejects_the_excluded_shared_value_form():
    # the (1,3) single-pair shape: the na(i)ve form has margin exactly -1
    m = make_matching([(1, 3)], unm_p=(1, 1))
    bad = OneFormSpec(
        ((("beta", 1), 1),),
        ((("alpha", 1), 1), (("alpha", 2), 1), (("alpha", 3), 1)),
        (1, 2),
        "big2(b)",
    )
    rep = check_regularity(bad, m)
    assert not rep.overall
    failed = [c for c in rep.checks if not c.satisfied]
    assert failed and failed[0].clause == "pole-order" and failed[0].margin == -1


def test_order_bounds_examples():
    assert order_bounds(1, 2).bound == 3
    assert order_bounds(2, 4).bound == 5
    assert order_bounds(3, 3) == (1, (1, 1))
    assert order_bounds(2, 2).ratio == (1, 1)
    with pytest.raises(ValueError):
        order_bounds(0, 2)


def test_order_bounds_ratio_identity_and_symmetry():
    for p, q in itertools.product(range(1, 13), repeat=2):
        o0, o1 = order_bounds(p, q).ratio
        assert (p + 1) * o0 == (q + 1) * o1
        assert order_bounds(q, p).ratio == (o1, o0)


def test_degree_balance_is_enforced():
    with pytest.raises(MalformedFormError, match="degree balance"):
        check_regularity(OneFormSpec(((("z", 0), 1),), ((("z", 2), 1),), (0, 1), "x"))


def test_point_checks_require_a_matching():
    form = OneFormSpec(
        ((("beta", 1), 1),),
        ((("alpha", 1), 3),),
        (1, 2),
        "big2(a)",
    )
    with pytest.raises(ValueError, match="matching required"):
        check_regularity(form)
