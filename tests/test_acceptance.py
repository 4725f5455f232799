"""Acceptance suite: seven capstone criteria, one test (= one pytest -v
line) per criterion.  Each test states its full pass condition and
enforces its own runtime budget; a red line here means the package does
not meet the contract, and the right fix is in the source, never in the
assertion."""

import functools
import random
import time

from helpers import (
    check_resultant_product,
    make_matching,
    random_perturbed_pair,
    reassemble,
    shift_for_scale,
    squarefree_part,
)
from sepcurve.classify import Outcome, classify, matching_case_ids
from sepcurve.critical import (
    analyze,
    hypothesis_I,
    match_pairs,
    theorem1_lhs,
)
from sepcurve.geometry import GenusMethod, genus_from_matching, genus_if_supported
from sepcurve.instances import (
    CASE_IDS,
    case_instance,
    random_affine_image,
    random_linear_factor_pair,
    random_polynomial,
    theorem1_pair,
    theorem2_pair,
    theorem3_pair,
)
from sepcurve.linfactor import find_linear_factor
from sepcurve.numoracle import OracleOutcome, corroborate_hypothesis_I
from sepcurve.oneforms import verify_witnesses
from sepcurve.rpoly import squarefree_decomposition


def test_criterion_1_pinned_genus_values():
    """Genus oracle reproduces the four pinned configurations exactly,
    in under a second."""
    t0 = time.perf_counter()

    # five ordinary points of multiplicities {3, 2, 2} at degree 5
    rep = genus_from_matching(make_matching([(2, 2), (1, 1), (1, 1)], deg=(5, 5)))
    assert (rep.delta, rep.genus) == (1, 1)

    # two ordinary triple points at degree 5
    rep = genus_from_matching(make_matching([(2, 2), (2, 2)], deg=(5, 5)))
    assert (rep.delta, rep.genus) == (0, 0)

    # one non-ordinary point from the (4, 3) pair at degree 5
    rep = genus_from_matching(make_matching([(4, 3)], deg=(5, 5)))
    assert (rep.delta, rep.genus) == (0, 0)

    # degree 4 with a single (3, 1) point: one quadratic transform
    rep = genus_from_matching(make_matching([(3, 1)], deg=(4, 4)))
    assert rep.method is GenusMethod.QUADRATIC_TRANSFORM_ADJUSTED
    assert (rep.delta, rep.genus) == (2, 1)

    assert time.perf_counter() - t0 < 1.0


@functools.lru_cache(maxsize=1)
def _criterion_2_verdicts():
    """(label, verdict) for every instance criterion 2 classifies."""
    out = []
    for cid in CASE_IDS:
        out.append((f"case {cid}", classify(case_instance(cid))))
    rng = random.Random(20260816)
    for i in range(50):
        pair = random_affine_image(theorem3_pair(rng.randint(3, 8)), rng)
        out.append((f"random generic #{i}", classify(pair)))
    return tuple(out)


def test_criterion_2_exceptional_round_trip():
    """Cases 1-7 classify to their ids (the case-7 instance is also a
    case-1 shape and reports 1, with 7 still listed among its matches);
    50 randomized fully-matched instances all land on the generic
    hyperbolic rule; genus and verdict never contradict.  Under 30 s."""
    t0 = time.perf_counter()
    verdicts = dict(_criterion_2_verdicts())

    for cid in CASE_IDS:
        v = verdicts[f"case {cid}"]
        assert v.outcome is Outcome.HAS_LOW_GENUS_COMPONENT, (cid, v.rule)
        expected = 1 if cid == 7 else cid
        assert v.case == expected, (cid, v.case)
    assert matching_case_ids(match_pairs(case_instance(7))) == [7]

    for label, v in verdicts.items():
        if label.startswith("random"):
            assert (v.outcome, v.rule) == (Outcome.HYPERBOLIC, "Theorem 3"), (
                label,
                v.rule,
            )

    for label, v in verdicts.items():
        rep = genus_if_supported(v.pair)
        if rep.genus is None:
            continue
        if v.outcome is Outcome.HAS_LOW_GENUS_COMPONENT:
            assert rep.genus <= 1, (label, rep)
        elif v.outcome is Outcome.HYPERBOLIC:
            assert rep.genus >= 2, (label, rep)

    assert time.perf_counter() - t0 < 30.0


@functools.lru_cache(maxsize=1)
def _criterion_3_verdicts():
    return (
        ("gap rule", classify(theorem2_pair())),
        ("count threshold", classify(theorem1_pair())),
    )


def test_criterion_3_threshold_rules():
    """The sparse degree-7 pair fires the gap rule; (x^5, x^5 + x)
    fires the count threshold with left-hand side exactly 4."""
    by_label = dict(_criterion_3_verdicts())
    v = by_label["gap rule"]
    assert (v.outcome, v.rule) == (Outcome.HYPERBOLIC, "Theorem 2")

    v = by_label["count threshold"]
    assert (v.outcome, v.rule) == (Outcome.HYPERBOLIC, "Theorem 1")
    assert theorem1_lhs(match_pairs(v.pair)) == 4


def test_criterion_4_invariant_suite():
    """500 random polynomials of degree 2-10: critical mass identity,
    exact squarefree reassembly, certified resultant product formula,
    and numeric corroboration of the simple-critical-values check with
    zero disagreements.  Under 120 s."""
    t0 = time.perf_counter()
    rng = random.Random(424242)
    for i in range(500):
        p = random_polynomial(rng, 2, 10)

        cs = analyze(p)
        assert (
            sum(c.multiplicity * c.factor.degree for c in cs.classes) == p.degree - 1
        ), (i, p)

        dec = squarefree_decomposition(p)
        assert reassemble(dec) == p, (i, p)

        s = squarefree_part(p.derivative())
        if s.degree >= 1:
            assert check_resultant_product(s, p), (i, p)

        rep = corroborate_hypothesis_I(p)
        assert rep.outcome is OracleOutcome.AGREE, (i, p, rep.outcome)
        assert rep.symbolic == hypothesis_I(p), (i, p)

    assert time.perf_counter() - t0 < 120.0


def test_criterion_5_linear_factor_detector():
    """100 composed pairs always produce a (re-verified) witness; 100
    constant-perturbed pairs produce none; nothing unsound either way."""
    rng = random.Random(77)
    for i in range(100):
        pair, (s, t) = random_linear_factor_pair(rng)
        w = find_linear_factor(pair)
        assert w is not None, (i, pair)
        if not pair.swapped:
            assert w.scale_minpoly(s) == 0, (i, pair)
            assert shift_for_scale(w, s) == t, (i, pair)

    for i in range(100):
        pair = random_perturbed_pair(rng)
        assert find_linear_factor(pair) is None, (i, pair)


def test_criterion_6_witness_regularity():
    """Every hyperbolic verdict from criteria 2-3 emits two one-forms
    whose regularity audit passes in full (100%)."""
    hyperbolic = [
        (label, v)
        for label, v in (*_criterion_2_verdicts(), *_criterion_3_verdicts())
        if v.outcome is Outcome.HYPERBOLIC
    ]
    assert hyperbolic, "criteria 2-3 must contribute hyperbolic verdicts"
    for label, v in hyperbolic:
        forms, reports = verify_witnesses(v)
        assert len(forms) == 2, label
        for form, report in zip(forms, reports):
            unsatisfied = [c for c in report.checks if not c.satisfied]
            assert report.overall, (label, form.to_text(), unsatisfied)


def test_criterion_7_cli_contract(capsys):
    """Golden-file JSON reports are byte-stable across repeated runs and
    exit codes track verdicts exactly."""
    import json
    import pathlib

    from sepcurve.cli import EXIT_BY_OUTCOME, main

    golden_dir = pathlib.Path(__file__).parent / "golden"
    from test_cli import GOLDEN_INSTANCES, _argv

    for name in sorted(GOLDEN_INSTANCES):
        (p, q), expected_exit = GOLDEN_INSTANCES[name]
        runs = []
        for _ in range(2):
            code = main(_argv(p, q))
            runs.append((code, capsys.readouterr().out))
        assert runs[0] == runs[1], name
        code, out = runs[0]
        assert out == (golden_dir / f"{name}.json").read_text(), name
        assert code == expected_exit, name

        verdict = json.loads(out)["verdict"]
        assert EXIT_BY_OUTCOME[Outcome(verdict)] == code, name
