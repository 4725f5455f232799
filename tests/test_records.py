"""The result records: named tuples with a fixed field order, immutable,
equal and hashed by their fields, and cheap to import.

Every record in ``src/`` is a ``collections.namedtuple`` subclass, so
importing the package never loads ``dataclasses`` and the modules it
pulls in (``inspect``, ``ast``, ``dis``, ``tokenize``).
"""

import copy
import json
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

import sepcurve.critical as critical
from helpers import poly_of
from sepcurve.classify import Outcome, Verdict, classify, decide
from sepcurve.critical import (
    CriticalClass,
    CriticalStructure,
    HomogenizedCurveMeta,
    PairMatching,
    PolynomialPair,
    analyze,
    homogenized_meta,
)
from sepcurve.geometry import DeficiencyReport, GenusMethod, genus_if_supported
from sepcurve.instances import theorem3_pair
from sepcurve.linfactor import LinearFactorWitness, find_linear_factor
from sepcurve.numoracle import (
    ComplexApprox,
    HypothesisOracle,
    PairCountOracle,
    complex_roots,
    corroborate_hypothesis_I,
    verify_pair_counts,
)
from sepcurve.oneforms import (
    OneFormSpec,
    OrderBounds,
    RegularityCheck,
    RegularityReport,
    order_bounds,
    verify_witnesses,
)
from sepcurve.rpoly import MultiplicityDecomposition, squarefree_decomposition

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")

FIELDS = {
    Verdict: (
        "outcome", "rule", "pair", "case", "matching", "linear_witness",
        "hyp_p", "hyp_q", "fired_rules", "failed_hypotheses", "trace",
    ),
    CriticalClass: ("factor", "multiplicity"),
    CriticalStructure: ("poly", "classes", "image"),
    PairMatching: (
        "deg_p", "deg_q", "matched_points", "unmatched_p_points",
        "unmatched_q_points", "p_multiset", "q_multiset",
    ),
    HomogenizedCurveMeta: ("n", "m", "z2_exponent_in_dz2"),
    LinearFactorWitness: ("scale_minpoly", "shift_numerator", "shift_denominator"),
    MultiplicityDecomposition: ("content", "parts"),
    DeficiencyReport: ("delta", "genus", "method"),
    ComplexApprox: ("real", "imag", "radius"),
    PairCountOracle: ("outcome", "precision_bits", "l0_numeric", "matched_numeric", "detail"),
    HypothesisOracle: ("outcome", "symbolic", "precision_bits", "cluster_sizes"),
    OneFormSpec: ("numerator_factors", "denominator_factors", "wronskian", "source_rule"),
    RegularityCheck: ("subject", "clause", "satisfied", "margin"),
    RegularityReport: ("checks", "overall", "notes"),
    OrderBounds: ("bound", "ratio"),
}


def _samples() -> dict:
    """One instance of every record, as the package builds it.  The
    verdict is decide's, with no pair."""
    pair = theorem3_pair(3)  # generic degree 5: Hyperbolic by Theorem 3
    verdict = decide(pair.matching())
    forms, reports = verify_witnesses(classify(pair))
    cs = pair.critical_p()
    out = {
        Verdict: verdict,
        CriticalClass: cs.classes[0],
        CriticalStructure: cs,
        PairMatching: pair.matching(),
        HomogenizedCurveMeta: homogenized_meta(pair),
        LinearFactorWitness: find_linear_factor(PolynomialPair(poly_of(0, 0, 1), poly_of(0, 0, 1))),
        MultiplicityDecomposition: squarefree_decomposition(poly_of(0, 0, -2, 0, 1)),
        DeficiencyReport: genus_if_supported(pair),
        ComplexApprox: complex_roots(poly_of(-2, 0, 1))[0],
        PairCountOracle: verify_pair_counts(pair),
        HypothesisOracle: corroborate_hypothesis_I(pair.p),
        OneFormSpec: forms[0],
        RegularityCheck: reports[0].checks[0],
        RegularityReport: reports[0],
        OrderBounds: order_bounds(2, 1),
    }
    assert all(type(r) is cls for cls, r in out.items())
    return out


SAMPLES = _samples()
RECORDS = list(FIELDS)


def _ids(cls):
    return cls.__name__


@pytest.mark.parametrize("cls", RECORDS, ids=_ids)
def test_field_order_and_no_defaults_but_the_verdicts(cls):
    assert cls._fields == FIELDS[cls]
    assert isinstance(SAMPLES[cls], tuple)
    if cls is not Verdict:
        assert cls._field_defaults == {}


def test_verdict_defaults_and_the_positional_form_the_benchmark_builds():
    assert Verdict._field_defaults == {
        "case": None,
        "matching": None,
        "linear_witness": None,
        "hyp_p": None,
        "hyp_q": None,
        "fired_rules": (),
        "failed_hypotheses": (),
        "trace": (),
    }
    pair = theorem3_pair(3)
    m = pair.matching()
    v = Verdict(Outcome.HYPERBOLIC, "Theorem 3", pair, matching=m)
    assert (v.outcome, v.rule, v.pair, v.matching) == (Outcome.HYPERBOLIC, "Theorem 3", pair, m)
    assert v.case is v.linear_witness is v.hyp_p is v.hyp_q is None
    assert v.fired_rules == v.failed_hypotheses == v.trace == ()
    forms, reports = verify_witnesses(v)
    assert forms and all(r.overall for r in reports)


@pytest.mark.parametrize("cls", RECORDS, ids=_ids)
def test_records_are_immutable(cls):
    r = SAMPLES[cls]
    for name in (cls._fields[0], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(r, name, None)


@pytest.mark.parametrize("cls", RECORDS, ids=_ids)
def test_equality_and_hash_by_fields(cls):
    r = SAMPLES[cls]
    twin = cls(*(getattr(r, f) for f in cls._fields))
    assert twin == r and hash(twin) == hash(r) and twin is not r
    assert r._replace(**{cls._fields[-1]: object()}) != r
    assert r == tuple(r)  # a named tuple: equal to the plain tuple of its values


@pytest.mark.parametrize("cls", RECORDS, ids=_ids)
def test_repr_names_every_field(cls):
    r = SAMPLES[cls]
    fields = ", ".join(f"{f}={getattr(r, f)!r}" for f in cls._fields)
    assert repr(r) == f"{cls.__name__}({fields})"


def test_repr_text_pinned():
    m = PairMatching(5, 5, ((4, 3),), (), (1,), (4,), (3, 1))
    assert repr(m) == (
        "PairMatching(deg_p=5, deg_q=5, matched_points=((4, 3),), unmatched_p_points=(), "
        "unmatched_q_points=(1,), p_multiset=(4,), q_multiset=(3, 1))"
    )
    assert repr(HomogenizedCurveMeta(5, 5, 1)) == "HomogenizedCurveMeta(n=5, m=5, z2_exponent_in_dz2=1)"
    assert repr(DeficiencyReport(None, None, GenusMethod.UNSUPPORTED)) == (
        "DeficiencyReport(delta=None, genus=None, method=<GenusMethod.UNSUPPORTED: 'Unsupported'>)"
    )
    assert repr(Verdict(Outcome.INCONCLUSIVE, "inconclusive", None)) == (
        "Verdict(outcome=<Outcome.INCONCLUSIVE: 'Inconclusive'>, rule='inconclusive', pair=None, "
        "case=None, matching=None, linear_witness=None, hyp_p=None, hyp_q=None, fired_rules=(), "
        "failed_hypotheses=(), trace=())"
    )


@pytest.mark.parametrize("cls", RECORDS, ids=_ids)
@pytest.mark.parametrize(
    "roundtrip",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_records_copy_and_pickle(cls, roundtrip):
    r = SAMPLES[cls]
    out = roundtrip(r)
    assert type(out) is cls and out == r


def test_critical_structure_values_are_computed_once(monkeypatch):
    """One resultant_shift per class, on first read or in analyze, and
    never again: the cached values sit in the instance dict."""
    monkeypatch.delenv("SEPCURVE_DEBUG_CHECKS", raising=False)  # rebuilds the table
    calls = []
    real = critical.resultant_shift
    monkeypatch.setattr(critical, "resultant_shift", lambda s, p: calls.append(s) or real(s, p))
    for p, certified in ((poly_of(0, -3, 0, 1), True), (poly_of(0, 0, -2, 0, 1), False)):
        calls.clear()
        cs = analyze(p)
        assert (cs.image is not None) is certified
        values, shape = cs.values, cs.shape
        assert cs.values is values and cs.shape is shape
        assert len(calls) == len(cs.classes)
        assert vars(cs).keys() == {"values", "shape"}
        copied = copy.deepcopy(cs)
        assert copied.values == values and len(calls) == len(cs.classes)


def _loaded_after(body: str) -> dict:
    """Run ``body`` in a fresh interpreter: {"out": its stdout before the
    last line, "new": the modules it loaded}."""
    code = f"import sys\nbefore = set(sys.modules)\n{body}\nprint(' '.join(sorted(set(sys.modules) - before)))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    *out, last = done.stdout.splitlines()
    return {"out": out, "new": set(last.split())}


@pytest.mark.parametrize("module", ["sepcurve", "sepcurve.cli"])
def test_importing_loads_no_dataclasses_machinery(module):
    new = _loaded_after(f"import {module}")["new"]
    assert module in new
    assert new.isdisjoint(HEAVY), sorted(new & set(HEAVY))


def test_a_full_cli_run_loads_no_dataclasses_machinery():
    """Witnesses and both oracles: the lazily imported modules too."""
    argv = ["classify", "--p=x^5 - 5*x^3 + 4*x", "--q=x^5 + 2*x^2 + 3", "--json", "--witness", "--oracle", "both"]
    run = _loaded_after(f"import sepcurve.cli\nsepcurve.cli.main({argv!r})")
    report = json.loads("\n".join(run["out"]))
    assert report["verdict"] == "Hyperbolic" and report["witness_forms"]
    assert report["oracle"]["numeric"]["outcome"] == "Agree"
    assert {"sepcurve.oneforms", "sepcurve.geometry", "sepcurve.numoracle"} <= run["new"]
    assert run["new"].isdisjoint(HEAVY), sorted(run["new"] & set(HEAVY))
