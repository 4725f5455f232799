"""Tests of the benchmark itself: deterministic inputs, the known-answer
gate, and tracing that changes no result.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.prepare_environment()

import tracing  # noqa: E402
import workloads  # noqa: E402

# Small dense degrees keep the generic-draw references cheap here.
workloads.DENSE_DEGREES = ((8, 8), (10, 6))
workloads.DENSE_TOP = ((9, 9),)


def cheap_items(name, seed=3):
    """A few fast items of each kind the workload draws."""
    wl = workloads.WORKLOADS[name]()
    items = wl.items(seed, 2)
    if name == "dense-ladder":
        chosen = [i for i in items if i.kind.startswith(("dense 8x8", "dense 10x6"))]
    elif name == "pinned-cli":
        kinds = ("case 4", "count threshold", "below thresholds", "image case 7", "image theorem3 k=3", "linear factor")
        chosen = [next(i for i in items if i.kind == k) for k in kinds]
    else:
        chosen = [i for i in items if i.kind == "random"][:3]
        chosen += [i for i in items if i.kind == "theorem3 image"][:1]
        chosen += [i for i in items if i.meta.get("k") and 600 <= i.meta["k"] <= 1500]
    return wl, chosen


def digest(wl, item):
    return wl.summarize(item, wl.call(item))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    wl = workloads.WORKLOADS[name]()
    labels = lambda seed: [i.label() for i in wl.items(seed, 2)]  # noqa: E731
    assert labels(5) == labels(5)
    assert labels(5) != labels(6)
    assert labels(run.HOLDOUT_SEED) != labels(5)


def test_dense_top_degrees_skip_the_variant_pass():
    kinds = [i.kind for i in workloads.WORKLOADS["dense-ladder"]().items(5, 2)]
    assert sorted(kinds) == sorted(["dense 8x8", "dense 10x6", "dense 9x9", "dense 8x8 variant 1", "dense 10x6 variant 1"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_known_answers_hold_on_cheap_items(name):
    wl, items = cheap_items(name)
    for item in items:
        assert wl.reference(item) is None, item.label()
        assert wl.check(item, digest(wl, item)) == [], item.label()


def tampered_cli(got, **changes):
    report = json.loads(got["stdout"])
    exit_code = changes.pop("exit", got["exit"])
    report.update(changes)
    return dict(got, exit=exit_code, stdout=json.dumps(report))


def test_gate_rejects_tampered_cli_results(monkeypatch):
    wl, items = cheap_items("pinned-cli")
    hyperbolic = next(i for i in items if i.kind == "count threshold")
    got = digest(wl, hyperbolic)
    assert wl.check(hyperbolic, got) == []
    assert wl.check(hyperbolic, tampered_cli(got, exit=10))
    assert wl.check(hyperbolic, tampered_cli(got, verdict="Inconclusive"))
    assert wl.check(hyperbolic, tampered_cli(got, rule="Theorem 3"))
    assert wl.check(hyperbolic, tampered_cli(got, case=1))
    assert wl.check(hyperbolic, tampered_cli(got, input={"p": "x^5", "q": "x^5"}))
    forms = json.loads(got["stdout"])["witness_forms"]
    assert wl.check(hyperbolic, tampered_cli(got, witness_forms=forms[:1]))
    assert wl.check(hyperbolic, tampered_cli(got, witness_forms=[forms[1], forms[0]]))

    oneforms = wl.m["oneforms"]
    real = oneforms.verify_witnesses

    def failing_audit(verdict, matching=None):
        forms, reports = real(verdict, matching)
        return forms, tuple(r.__class__(checks=r.checks, overall=False, notes=r.notes) for r in reports)

    monkeypatch.setattr(oneforms, "verify_witnesses", failing_audit)
    assert any("audit failed" in p for p in wl.check(hyperbolic, got))


def test_gate_rejects_tampered_api_and_oracle_results():
    wl, items = cheap_items("dense-ladder")
    got = digest(wl, items[0])
    assert wl.check(items[0], got) == []
    for key, value in (("outcome", "Inconclusive"), ("rule", "Theorem 2"), ("l0", 1),
                       ("theorem1_lhs", 0), ("corollary1_lhs", 0)):
        assert wl.check(items[0], dict(got, **{key: value})), key

    wl, items = cheap_items("oracle")
    random_item = items[0]
    wl.reference(random_item)
    got = digest(wl, random_item)
    assert wl.check(random_item, got) == []
    assert wl.check(random_item, dict(got, outcome="Disagree"))
    assert wl.check(random_item, dict(got, outcome="Ambiguous"))
    assert wl.check(random_item, dict(got, symbolic=not got["symbolic"]))
    pair_item = next(i for i in items if len(i.args) == 2)
    got = digest(wl, pair_item)
    assert wl.check(pair_item, got) == []
    assert wl.check(pair_item, dict(got, l0=got["l0"] + 1))


def test_dense_draws_are_confirmed_generic(monkeypatch):
    wl = workloads.WORKLOADS["dense-ladder"]()
    outcomes = iter([("Agree", 1), ("Agree", 0), ("Disagree", None)])

    def fake_oracle(pair):
        outcome, l0 = next(outcomes)
        return type("Rep", (), {"outcome": type("O", (), {"value": outcome}), "l0_numeric": l0, "detail": ""})

    monkeypatch.setattr(wl.m["numoracle"], "verify_pair_counts", fake_oracle)
    rng = workloads.random.Random(1)
    shared, generic = wl._pair_item(workloads.random.Random(1), 8, 8), wl._generic_pair(rng, 8, 8)
    assert generic.args != shared.args and wl.reference(generic) is None
    assert "Disagree" in wl.reference(wl._generic_pair(rng, 8, 8))


def test_failed_items_are_counted():
    wl, items = cheap_items("dense-ladder")
    digests = [{"error": "ArithmeticError: boom"}, dict(digest(wl, items[1]), rule="Theorem 2")]
    failures = run.check_items(wl, items[:2], digests)
    assert len(failures) == 2 and "boom" in failures[0]


def bound_functions():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "sepcurve" or name.startswith("sepcurve.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_changes_no_result_and_counts_repeat(name):
    wl, items = cheap_items(name)
    before = bound_functions()
    _, _, plain = run.run_items(wl, items)
    counts = []
    for _ in range(2):
        with tracing.Tracer() as tracer:
            _, _, traced = run.run_items(wl, items, tracer)
        assert json.dumps(traced, sort_keys=True) == json.dumps(plain, sort_keys=True)
        assert tracer.spans and all(s is not None for s in tracer.spans)
        counts.append(tracer.counts())
        metrics = tracer.metrics(sum(i.sides for i in items), 1.0)
        assert list(metrics) == [m[0] for m in tracing.PER_LAYER]
    assert counts[0] == counts[1]
    assert bound_functions() == before
    entry = {"dense-ladder": "classify.classify.calls", "pinned-cli": "cli.main.calls",
             "oracle": "numoracle.corroborate_hypothesis_I.calls"}[name]
    assert counts[0][entry] >= 3


def test_latencies_scale_to_the_reference_speed():
    wl, items = cheap_items("oracle")
    latencies, calibrations, _ = run.run_items(wl, items[:2])
    assert len(calibrations) == len(latencies) + 1 and min(calibrations) > 0
    assert run.scaled([0.2, 0.1], [run.REFERENCE_S, run.REFERENCE_S * 3, run.REFERENCE_S]) == pytest.approx([0.1, 0.05])
    assert run.at_reference_speed(1.0, run.REFERENCE_S / 2, run.REFERENCE_S / 2) == pytest.approx(2.0)


def test_trace_attributes_time_to_nested_spans():
    spans = [
        ("critical.match_pairs", 0.0, 10.0, None, 0),
        ("critical.analyze", 1.0, 4.0, 0, 0),
        ("rpoly.poly_gcd", 2.0, 3.0, 1, 0),
        ("rpoly.poly_gcd", 5.0, 6.0, 0, 0),
        ("rpoly.poly_gcd", 7.0, 7.5, None, 1),
    ]
    busy, self_s = tracing.span_times(spans)
    assert busy["critical.match_pairs"] == 10.0 and self_s["critical.match_pairs"] == 6.0
    assert self_s["critical.analyze"] == 2.0 and busy["rpoly.poly_gcd"] == 2.5
    assert tracing.span_times(spans, {0})[0]["rpoly.poly_gcd"] == 2.0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def bench(cwd, **env):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pinned-cli", "--seed", "1", "--seconds", "1"],
        cwd=cwd, env=dict(os.environ, **env), capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("env", [{"SEPCURVE_DEBUG_CHECKS": "1"}, {"SEPCURVE_RATIONAL_BACKEND": "gmpy2"}])
def test_refuses_to_time_another_configuration(env):
    done = bench(ROOT, **env)
    assert done.returncode == 2 and done.stdout == ""


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench(tmp_path, PYTHONPATH="")
    assert done.returncode != 0 and done.stdout == ""
