import pytest

from helpers import hyperbolic_verdict, make_matching, poly_of
from sepcurve.classify import Outcome, classify
from sepcurve.critical import HomogenizedCurveMeta, PolynomialPair, homogenized_meta
from sepcurve.instances import theorem1_pair, theorem2_pair, theorem3_pair
from sepcurve.oneforms import (
    MalformedFormError,
    OneFormSpec,
    check_regularity,
    emit_witnesses,
    verify_witnesses,
)
from sepcurve.parsepoly import parse_poly


def assert_verified(rule, matching, *, expect_texts=None):
    v = hyperbolic_verdict(rule, matching)
    forms, reports = verify_witnesses(v)
    assert len(forms) == 2
    for f, r in zip(forms, reports):
        bad = [c for c in r.checks if not c.satisfied]
        assert r.overall, (rule, f.to_text(), bad)
    if expect_texts is not None:
        assert [f.to_text() for f in forms] == list(expect_texts)
    return forms


def _ids(shapes):
    """pytest's own ids for a (matched, extra, ...) list: matched0-extra0, ..."""
    return [f"matched{i}-extra{i}" for i in range(len(shapes))]


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
    (
        [(3, 1), (1, 1)],
        {},
        "one wide pair",
        (
            "(z1 - b1*z2) * W(z1,z2) / (z0 - a1*z2)^3",
            "L(1,2)^2 * W(z1,z2) / ((z0 - a1*z2)^3 * (z0 - a2*z2))",
        ),
    ),
    (
        [(3, 1), (1, 3)],
        {},
        "wide pair plus mirror-wide",
        (
            "(z1 - b1*z2) * W(z1,z2) / (z0 - a1*z2)^3",
            "L(1,2)^2 * W(z1,z2) / ((z0 - a1*z2)^3 * (z0 - a2*z2))",
        ),
    ),
    (
        [(4, 2), (2, 2)],
        {},
        "wide pair, higher multiplicity",
        (
            "(z1 - b1*z2)^2 * W(z1,z2) / (z0 - a1*z2)^4",
            "L(1,2)^2 * (z1 - b1*z2) * W(z1,z2) / ((z0 - a1*z2)^4 * (z0 - a2*z2))",
        ),
    ),
    (
        [(2, 1), (3, 2)],
        {},
        "two step pairs",
        (
            "(z1 - b1*z2)^2 * (z1 - b2*z2) * W(z1,z2) / ((z0 - a1*z2)^3 * (z0 - a2*z2)^2)",
            "L(1,2) * (z1 - b1*z2) * (z1 - b2*z2) * W(z1,z2) / ((z0 - a1*z2)^3 * (z0 - a2*z2)^2)",
        ),
    ),
    (
        [(2, 1), (1, 1)],
        {"unm_p": (1,)},
        "step plus unmatched",
        (
            "L(1,2)^2 * W(z1,z2) / ((z0 - a1*z2)^2 * (z0 - a2*z2) * (z0 - a3*z2))",
            "L(1,2) * (z1 - b2*z2) * W(z1,z2) / ((z0 - a1*z2)^2 * (z0 - a2*z2) * (z0 - a3*z2))",
        ),
    ),
    (
        [(3, 2), (1, 2)],
        {"unm_p": (1,)},
        "step plus unmatched, minus-one partner",
        (
            "L(1,2)^2 * W(z1,z2) / ((z0 - a1*z2)^2 * (z0 - a2*z2) * (z0 - a3*z2))",
            "L(1,2) * (z1 - b2*z2) * W(z1,z2) / ((z0 - a1*z2)^2 * (z0 - a2*z2) * (z0 - a3*z2))",
        ),
    ),
    (
        [(2, 2), (1, 1)],
        {"unm_p": (1, 1)},
        "two unmatched points",
        (
            "W(z1,z2) / ((z0 - a3*z2) * (z0 - a4*z2))",
            "L(1,2)^2 * W(z1,z2) / ((z0 - a1*z2) * (z0 - a2*z2) * (z0 - a3*z2) * (z0 - a4*z2))",
        ),
    ),
]


@pytest.mark.parametrize(
    "matched,extra,label,texts", BIG2A_SHAPES, ids=[s[2] for s in BIG2A_SHAPES]
)
def test_excess_two_emission(matched, extra, label, texts):
    assert_verified("big2(a)", make_matching(matched, **extra), expect_texts=texts)


UNMATCHED_MASS_TWO_SHAPES = [
    (
        [(2, 2)],
        {"unm_p": (1, 1)},
        (
            "W(z1,z2) / ((z0 - a2*z2) * (z0 - a3*z2))",
            "(z1 - b1*z2) * W(z1,z2) / ((z0 - a1*z2) * (z0 - a2*z2) * (z0 - a3*z2))",
        ),
    ),
    (
        [(1, 2)],
        {"unm_p": (1, 1)},
        (
            "W(z1,z2) / ((z0 - a2*z2) * (z0 - a3*z2))",
            "(z1 - b1*z2) * W(z1,z2) / ((z0 - a1*z2) * (z0 - a2*z2) * (z0 - a3*z2))",
        ),
    ),
    (
        [(2, 4)],
        {"unm_p": (1, 1)},
        (
            "W(z1,z2) / ((z0 - a2*z2) * (z0 - a3*z2))",
            "(z1 - b1*z2) * W(z1,z2) / ((z0 - a1*z2) * (z0 - a2*z2) * (z0 - a3*z2))",
        ),
    ),
]


@pytest.mark.parametrize(
    "matched,extra,texts", UNMATCHED_MASS_TWO_SHAPES, ids=_ids(UNMATCHED_MASS_TWO_SHAPES)
)
def test_unmatched_mass_two_emission(matched, extra, texts):
    assert_verified("big2(b)", make_matching(matched, **extra), expect_texts=texts)


def test_unmatched_mass_two_excluded_shape_raises():
    v = hyperbolic_verdict("big2(b)", make_matching([(1, 3)], unm_p=(1, 1)))
    with pytest.raises(ValueError, match="excluded \\(1, 3\\)"):
        emit_witnesses(v)


SINGLE_EXTRA_POINT_SHAPES = [
    (
        [(2, 2), (2, 2)],
        {"unm_p": (1,), "unm_q": (1,)},
        (
            "L(1,2) * W(z1,z2) / ((z0 - a1*z2) * (z0 - a2*z2) * (z0 - a3*z2))",
            "L(1,2)^2 * W(z1,z2) / ((z0 - a1*z2)^2 * (z0 - a2*z2) * (z0 - a3*z2))",
        ),
    ),
    (
        [(2, 3), (2, 2)],
        {"unm_p": (1,)},
        (
            "L(1,2) * W(z1,z2) / ((z0 - a1*z2) * (z0 - a2*z2) * (z0 - a3*z2))",
            "L(1,2)^2 * W(z1,z2) / ((z0 - a1*z2)^2 * (z0 - a2*z2) * (z0 - a3*z2))",
        ),
    ),
    (
        [(1, 2), (1, 1), (1, 1)],
        {"unm_p": (1,)},
        (
            "L(1,2) * W(z1,z2) / ((z0 - a1*z2) * (z0 - a2*z2) * (z0 - a4*z2))",
            "L(1,2) * L(1,3) * W(z1,z2) / ((z0 - a1*z2) * (z0 - a2*z2) * (z0 - a3*z2) * (z0 - a4*z2))",
        ),
    ),
    (
        [(3, 3), (1, 1), (1, 1)],
        {"unm_p": (1,), "unm_q": (1,)},
        (
            "L(1,2) * W(z1,z2) / ((z0 - a1*z2) * (z0 - a2*z2) * (z0 - a4*z2))",
            "L(1,2)^2 * W(z1,z2) / ((z0 - a1*z2)^2 * (z0 - a2*z2) * (z0 - a4*z2))",
        ),
    ),
]


@pytest.mark.parametrize(
    "matched,extra,texts", SINGLE_EXTRA_POINT_SHAPES, ids=_ids(SINGLE_EXTRA_POINT_SHAPES)
)
def test_single_extra_point_emission(matched, extra, texts):
    assert_verified("big2(c)", make_matching(matched, **extra), expect_texts=texts)


def test_single_extra_point_excluded_shape_raises():
    v = hyperbolic_verdict(
        "big2(c)", make_matching([(1, 1), (1, 1)], unm_p=(1,), unm_q=(1,))
    )
    with pytest.raises(ValueError, match="excluded all-simple two-pair"):
        emit_witnesses(v)


MIRRORED_SHAPES = [
    (
        "big2c(b)",
        [(2, 2)],
        {"unm_q": (1, 1)},
        (
            "W(z2,z0) / ((z1 - b2*z2) * (z1 - b3*z2))",
            "(z0 - a1*z2) * W(z2,z0) / ((z1 - b1*z2) * (z1 - b2*z2) * (z1 - b3*z2))",
        ),
    ),
    (
        "big2c(b)",
        [(2, 1)],
        {"unm_p": (1,), "unm_q": (1, 1)},
        (
            "W(z2,z0) / ((z1 - b2*z2) * (z1 - b3*z2))",
            "(z0 - a1*z2) * W(z2,z0) / ((z1 - b1*z2) * (z1 - b2*z2) * (z1 - b3*z2))",
        ),
    ),
    (
        "big2c(c)",
        [(2, 2), (2, 2)],
        {"unm_p": (1,), "unm_q": (1,)},
        (
            "L(1,2) * W(z2,z0) / ((z1 - b1*z2) * (z1 - b2*z2) * (z1 - b3*z2))",
            "L(1,2)^2 * W(z2,z0) / ((z1 - b1*z2)^2 * (z1 - b2*z2) * (z1 - b3*z2))",
        ),
    ),
]


@pytest.mark.parametrize(
    "rule,matched,extra,texts",
    MIRRORED_SHAPES,
    # numbered from 4 so that each keeps its test id
    ids=[f"{s[0]}-matched{i}-extra{i}" for i, s in enumerate(MIRRORED_SHAPES, 4)],
)
def test_mirrored_rule_emission(rule, matched, extra, texts):
    assert_verified(rule, make_matching(matched, **extra), expect_texts=texts)


def test_mirrored_excluded_shape_raises():
    v = hyperbolic_verdict("big2c(b)", make_matching([(3, 1)], unm_q=(1, 1)))
    with pytest.raises(ValueError, match="excluded \\(1, 3\\)"):
        emit_witnesses(v)


@pytest.mark.parametrize("rule", ["Corollary 1", "big2c(a)"])
def test_rules_no_verdict_cites_have_no_emitter(rule):
    # Theorem 1 and big2(a) fire on every shape these do, and come first
    v = hyperbolic_verdict(rule, make_matching([(1, 3), (1, 1)]))
    with pytest.raises(ValueError, match="no witness emitter for rule"):
        emit_witnesses(v)


THEOREM3_SHAPES = [
    (
        [(3, 3), (3, 3)],
        (
            "z0 * L(1,2)^3 * W(z1,z2) / ((z0 - a1*z2)^3 * (z0 - a2*z2)^3)",
            "z1 * L(1,2)^3 * W(z1,z2) / ((z0 - a1*z2)^3 * (z0 - a2*z2)^3)",
        ),
    ),
    (
        [(4, 3), (3, 4)],
        (
            "z0 * L(1,2)^3 * W(z1,z2) / ((z0 - a1*z2)^3 * (z0 - a2*z2)^3)",
            "z1 * L(1,2)^3 * W(z1,z2) / ((z0 - a1*z2)^3 * (z0 - a2*z2)^3)",
        ),
    ),
    (
        [(2, 2), (2, 2), (2, 2)],
        (
            "L(1,2)^2 * W(z1,z2) / ((z0 - a1*z2)^2 * (z0 - a2*z2)^2)",
            "L(1,2)^2 * L(1,3) * W(z1,z2) / ((z0 - a1*z2)^2 * (z0 - a2*z2)^2 * (z0 - a3*z2))",
        ),
    ),
    (
        [(2, 1), (2, 2), (1, 2), (1, 1)],
        (
            "L(1,2)^2 * W(z1,z2) / ((z0 - a1*z2)^2 * (z0 - a2*z2)^2)",
            "L(1,2)^2 * L(1,3) * W(z1,z2) / ((z0 - a1*z2)^2 * (z0 - a2*z2)^2 * (z0 - a3*z2))",
        ),
    ),
    (
        [(3, 3), (2, 2)],
        (
            "L(1,2)^2 * W(z1,z2) / ((z0 - a1*z2)^2 * (z0 - a2*z2)^2)",
            "L(1,2)^3 * W(z1,z2) / ((z0 - a1*z2)^3 * (z0 - a2*z2)^2)",
        ),
    ),
    (
        [(4, 4), (2, 2)],
        (
            "L(1,2)^2 * W(z1,z2) / ((z0 - a1*z2)^2 * (z0 - a2*z2)^2)",
            "L(1,2)^3 * W(z1,z2) / ((z0 - a1*z2)^3 * (z0 - a2*z2)^2)",
        ),
    ),
    (
        [(2, 3), (2, 1)],
        (
            "L(1,2) * W(z2,z0) / ((z1 - b1*z2)^2 * (z1 - b2*z2))",
            "L(1,2)^2 * W(z2,z0) / ((z1 - b1*z2)^3 * (z1 - b2*z2))",
        ),
    ),
    (
        [(3, 2), (1, 2)],
        (
            "L(1,2) * W(z1,z2) / ((z0 - a1*z2)^2 * (z0 - a2*z2))",
            "L(1,2)^2 * W(z1,z2) / ((z0 - a1*z2)^3 * (z0 - a2*z2))",
        ),
    ),
    (
        [(4, 3), (1, 2)],
        (
            "L(1,2) * W(z1,z2) / ((z0 - a1*z2)^2 * (z0 - a2*z2))",
            "L(1,2)^2 * W(z1,z2) / ((z0 - a1*z2)^3 * (z0 - a2*z2))",
        ),
    ),
    (
        [(3, 4), (2, 1)],
        (
            "L(1,2)^2 * W(z1,z2) / ((z0 - a1*z2)^2 * (z0 - a2*z2)^2)",
            "L(1,2)^3 * W(z1,z2) / ((z0 - a1*z2)^3 * (z0 - a2*z2)^2)",
        ),
    ),
    (
        [(3, 2), (2, 3)],
        (
            "L(1,2)^2 * W(z1,z2) / ((z0 - a1*z2)^2 * (z0 - a2*z2)^2)",
            "L(1,2)^3 * W(z1,z2) / ((z0 - a1*z2)^3 * (z0 - a2*z2)^2)",
        ),
    ),
    (
        [(2, 1), (1, 2), (1, 1)],
        (
            "L(1,2) * L(1,3) * W(z1,z2) / ((z0 - a1*z2)^2 * (z0 - a2*z2) * (z0 - a3*z2))",
            "L(1,2) * L(2,3) * W(z1,z2) / ((z0 - a1*z2)^2 * (z0 - a2*z2) * (z0 - a3*z2))",
        ),
    ),
    (
        [(3, 3), (1, 1), (1, 1)],
        (
            "L(1,2) * L(1,3) * W(z1,z2) / ((z0 - a1*z2)^2 * (z0 - a2*z2) * (z0 - a3*z2))",
            "L(1,2) * L(1,3)^2 * W(z1,z2) / ((z0 - a1*z2)^3 * (z0 - a2*z2) * (z0 - a3*z2))",
        ),
    ),
    (
        [(4, 3), (1, 2), (1, 1)],
        (
            "L(1,2) * L(1,3) * W(z1,z2) / ((z0 - a1*z2)^2 * (z0 - a2*z2) * (z0 - a3*z2))",
            "L(1,2) * L(1,3)^2 * W(z1,z2) / ((z0 - a1*z2)^3 * (z0 - a2*z2) * (z0 - a3*z2))",
        ),
    ),
    (
        [(1, 1), (1, 1), (1, 1), (1, 1), (1, 1)],
        (
            "L(1,2) * L(3,4) * W(z1,z2) / ((z0 - a1*z2) * (z0 - a2*z2) * (z0 - a3*z2) * (z0 - a4*z2))",
            "L(1,3) * L(2,4) * W(z1,z2) / ((z0 - a1*z2) * (z0 - a2*z2) * (z0 - a3*z2) * (z0 - a4*z2))",
        ),
    ),
    (
        [(2, 1), (1, 2), (1, 1), (1, 1)],
        (
            "L(1,2) * L(3,4) * W(z1,z2) / ((z0 - a1*z2) * (z0 - a2*z2) * (z0 - a3*z2) * (z0 - a4*z2))",
            "L(1,3) * L(2,4) * W(z1,z2) / ((z0 - a1*z2) * (z0 - a2*z2) * (z0 - a3*z2) * (z0 - a4*z2))",
        ),
    ),
]


@pytest.mark.parametrize(
    "matched,texts", THEOREM3_SHAPES, ids=[str(s[0]) for s in THEOREM3_SHAPES]
)
def test_generic_rule_branches(matched, texts):
    assert_verified("Theorem 3", make_matching(matched), expect_texts=texts)


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


def _failed(form, matching=None, meta=None):
    """The (clause, subject, margin) of every unsatisfied check."""
    rep = check_regularity(form, matching, meta)
    failed = [(c.clause, c.subject, c.margin) for c in rep.checks if not c.satisfied]
    assert rep.overall == (not failed)
    return failed


# Emitted forms pair their Wronskian by construction, so each clause is
# also checked on hand-built forms that break it.
def test_wronskian_pairing_rejects_an_alpha_denominator_with_w20():
    m = make_matching([(3, 1), (1, 1)])
    good = OneFormSpec(((("beta", 1), 1),), ((("alpha", 1), 3),), (1, 2), "x")
    assert not _failed(good, m)
    failed = _failed(good._replace(wronskian=(2, 0)), m)
    assert ("wronskian-pairing", "alpha denominators", 0) in failed


def test_divides_partial_rejects_an_alpha_exponent_above_p():
    form = OneFormSpec((), ((("alpha", 2), 2),), (1, 2), "x")
    failed = _failed(form, make_matching([(3, 1), (1, 1)]))
    assert ("divides-partial", "alpha 2 exponent", -1) in failed


def test_divides_partial_rejects_a_z0_denominator():
    form = OneFormSpec((), ((("z", 0), 2),), (0, 1), "x")
    assert _failed(form) == [("divides-partial", "z0 denominator", -2)]


def test_divides_partial_rejects_a_z2_exponent_above_the_partial():
    form = OneFormSpec(((("z", 0), 1),), ((("z", 2), 3),), (0, 1), "x")
    meta = HomogenizedCurveMeta(n=5, m=5, z2_exponent_in_dz2=2)
    assert _failed(form, meta=meta) == [("divides-partial", "z2 denominator", -1)]
    assert not _failed(form, meta=meta._replace(z2_exponent_in_dz2=3))


def test_infinity_rejects_too_little_z2_in_the_numerator():
    p = parse_poly("1/6*x^6 - 4/5*x^5 + 3/2*x^4 - 4/3*x^3 + 1/2*x^2")
    v = classify(PolynomialPair(p, parse_poly("1/5*x^5 - 3/4*x^4 + x^3 - 1/2*x^2")))
    meta = homogenized_meta(v.pair)
    assert (v.rule, meta.n - meta.m) == ("Theorem 1", 1)
    good = emit_witnesses(v)[0]
    assert good.to_text() == "z0 * z2 * W(z1,z2) / (z0 - a2*z2)^4"
    assert not _failed(good, v.pair.matching(), meta)
    bad = good._replace(numerator_factors=((("z", 0), 2),))
    assert _failed(bad, v.pair.matching(), meta) == [("z2-numerator", "infinity", -1)]


def test_pole_order_reads_the_reduced_order_ratio():
    # at a matched (1, 3) point (p+1)*ord0 = (q+1)*ord1 gives ord0 : ord1
    # = 2 : 1, and gcd(2, 4) = 2; the unreduced 4 : 2 would read each
    # margin m as 2m + 1, here 1 and -3
    m = make_matching([(1, 3)], unm_p=(1, 1))
    cancelled = OneFormSpec(
        ((("alpha", 1), 1),),
        ((("alpha", 1), 1), (("alpha", 2), 1), (("alpha", 3), 1)),
        (1, 2),
        "x",
    )
    (pole,) = [c for c in check_regularity(cancelled, m).checks if c.clause == "pole-order"]
    assert (pole.satisfied, pole.margin) == (True, 0)
    bare = OneFormSpec((), ((("alpha", 1), 1), (("alpha", 3), 1)), (1, 2), "x")
    assert _failed(bare, m) == [("pole-order", "point 1 (p=1, q=3)", -2)]


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
