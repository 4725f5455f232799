"""CLI contract tests.

Golden files under tests/golden/ pin the full --json --witness
--oracle both reports for the pinned instances, and
tests/golden/corpus.jsonl pins the --json --witness report, one per
line, of a few hundred seeded pairs drawn from sepcurve.instances;
regenerate both after an intentional schema change with

    python3 tests/test_cli.py --regen
"""

import collections
import contextlib
import gc
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_perturbed_pair
import sepcurve.cli as cli
import sepcurve.critical as critical
import sepcurve.instances as ins
import sepcurve.oneforms as oneforms
from sepcurve.cli import main
from sepcurve.numoracle import PRECISION_CAP
from sepcurve.oneforms import MalformedFormError
from sepcurve.parsepoly import parse_poly
from sepcurve.rpoly import Poly

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
CORPUS = GOLDEN_DIR / "corpus.jsonl"

GOLDEN_INSTANCES = {
    "case1": (("x^3", "x^3"), 10),
    "case2": (("x^3 - 3*x", "x^3"), 10),
    "case3": (("x^4", "3*x^4 - 16*x^3 + 18*x^2"), 10),
    "case4": (("x^5", "4*x^5 - 5*x^4"), 10),
    "case5": (("4*x^5 - 5*x^4", "4*x^5 - 10*x^4"), 10),
    "case6": (("16*x^5 - 20*x^4 - 500*x^3", "12*x^5 - 195*x^4 + 750*x^3"), 10),
    "case7": (("192*x^5 - 480*x^4 + 320*x^3", "6*x^5 - 30*x^4 + 40*x^3"), 10),
    "gap_rule": (("x^7 + x", "x^7 + 2*x"), 0),
    "count_threshold": (("x^5", "x^5 + x"), 0),
    "below_thresholds": (("x^5", "x^2"), 20),
}


def _argv(p, q):
    return ["classify", "--p", p, "--q", q, "--json", "--witness", "--oracle", "both"]


@pytest.mark.parametrize("name", sorted(GOLDEN_INSTANCES))
def test_golden_reports_are_byte_stable(name, capsys):
    (p, q), expected_exit = GOLDEN_INSTANCES[name]
    code = main(_argv(p, q))
    out = capsys.readouterr().out
    assert code == expected_exit
    assert out == (GOLDEN_DIR / f"{name}.json").read_text()


def test_exit_codes_are_verdict_only(capsys):
    # the same pair exits identically with or without extras
    base = main(["classify", "--p", "x^3", "--q", "x^3"])
    capsys.readouterr()
    dressed = main(_argv("x^3", "x^3"))
    capsys.readouterr()
    assert base == dressed == 10


def test_json_report_shape(capsys):
    code = main(_argv("x^7 + x", "x^7 + 2*x"))
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rep["schema"] == 1
    for key in (
        "verdict",
        "rule",
        "case",
        "l0",
        "l",
        "h",
        "theorem1_lhs",
        "corollary1_lhs",
        "witness_forms",
        "oracle",
        "critical",
        "input",
        "swapped",
        "linear_witness",
        "timings",
    ):
        assert key in rep, key
    assert rep["verdict"] == "Hyperbolic" and rep["rule"] == "Theorem 2"
    assert rep["witness_forms"] == ["W(z0,z1) / z2^2", "z0 * W(z0,z1) / z2^3"]
    assert rep["oracle"]["numeric"]["outcome"] == "Agree"
    # lossless machine round-trip
    assert json.loads(json.dumps(rep)) == rep


def test_non_hyperbolic_reports_have_no_forms(capsys):
    main(_argv("x^3", "x^3"))
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "HasLowGenusComponent"
    assert rep["case"] == 1
    assert rep["witness_forms"] == []
    assert "y - (s*x + t)" in rep["linear_witness"]


def test_human_readable_output(capsys):
    code = main(["classify", "--p", "x^3", "--q", "x^3"])
    out = capsys.readouterr().out
    assert code == 10
    assert "verdict: HasLowGenusComponent (rule: Theorem 3 case 1)" in out
    assert "exceptional case: 1" in out
    assert "linear factor:" in out


def test_witness_lines_rendered(capsys):
    code = main(["classify", "--p", "x^7+x", "--q", "x^7+2*x", "--witness"])
    out = capsys.readouterr().out
    assert code == 0
    assert "holomorphic one-forms:" in out
    assert "  W(z0,z1) / z2^2" in out


def test_parse_error_diagnostics(capsys):
    code = main(["classify", "--p", "x^y", "--q", "x^2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "position 2" in captured.err


def test_usage_error_exit_code(capsys):
    assert main(["classify", "--p", "x^3"]) == 1
    assert "required" in capsys.readouterr().err


def test_degree_guard_diagnostics(capsys):
    assert main(["classify", "--p", "x", "--q", "x^3"]) == 1
    assert "degree at least 2" in capsys.readouterr().err


def test_negative_leading_coefficient_via_equals_form(capsys):
    code = main(["classify", "--p=-x^3+3*x", "--q=-x^3"])
    assert code in (0, 10, 20)
    capsys.readouterr()


def test_argument_parser_is_built_once(monkeypatch, capsys):
    # a parser per call leaves ~140 cyclic objects behind every call
    main(["classify", "--p", "x^3", "--q", "x^3"])
    built = []
    monkeypatch.setattr(cli._Parser, "__init__", lambda self, *a, **kw: built.append(a))
    assert main(["classify", "--p", "x^3", "--q", "x^3"]) == 10
    capsys.readouterr()
    assert built == []


def _parse_outcome(parse, argv):
    """(namespace, stdout, stderr, exit code) of one argument parse: the
    namespace as a dict, or None when the parse ends in a usage error
    or in help."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace, code = parse(argv)
        except SystemExit as exc:
            namespace, code = None, exc.code
    return namespace, out.getvalue(), err.getvalue(), code


def _full_parse(argv):
    try:
        return vars(cli._build_argparser().parse_args(argv)), 0
    except cli._UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, 1


CLASSIFY_ARGV = [
    ["--he"], ["-h"], ["--p", "x^3", "-h"],
    ["--p", "x^3", "--q", "x^3", "--js", "--prec", "64", "--witn"],
    ["--q", "x^3"], ["--p", "x^3"], [], ["--p", "x", "--p", "x^3", "--q", "x^3"], ["--p", "x^3", "--q"],
    ["--p", "--q", "x^3"], ["--p", "x^3", "--q", "x^3", "--q=x^2"],
    ["--p", "x^3", "--q", "x^3", "--oracle", "numerics"], ["--p", "x^3", "--q", "x^3", "--oracle"],
    ["--p", "x^3", "--q", "x^3", "--precision", "0"], ["--p", "x^3", "--q", "x^3", "--precision", "5000"],
    ["--p", "x^3", "--q", "x^3", "--precision=64", "--oracle=both", "--timings"],
    ["--"], ["--p", "x^3", "--q", "x^3", "--"], ["--", "--p", "x^3", "--q", "x^3"],
    ["--p", "x^3", "--q", "x^3", "stray"], ["stray", "--p", "x^3", "--q", "x^3"],
    ["--p", "x^3", "--q", "x^3", "--json=1"], ["--p=-x^3", "--q", "x^3", "--bogus"],
]


@pytest.mark.parametrize("rest", CLASSIFY_ARGV, ids=" ".join)
def test_classify_route_parses_as_the_full_parser(rest, monkeypatch):
    """``main`` hands a ``classify`` argv to the subparser alone; that
    gives the full parser's namespace, usage-error text, help text and
    exit code."""
    def via_main(argv):
        seen = []
        monkeypatch.setattr(cli, "_run_classify", lambda args: seen.append(vars(args)) or 0)
        code = main(argv)
        return (seen[0] if seen else None), code

    argv = ["classify", *rest]
    assert _parse_outcome(via_main, argv) == _parse_outcome(_full_parse, argv)


def _json_text(value):
    from json.encoder import encode_basestring_ascii

    out = []
    cli._write_json(value, out, encode_basestring_ascii)
    return "".join(out)


_JSON_TEXT = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f e\xe9\u20ac\U0001d11e') | st.characters())
_JSON_LEAVES = (
    _JSON_TEXT
    | st.integers()
    | st.integers(-(2**200), 2**200)
    | st.booleans()
    | st.none()
    | st.floats()
)


@given(
    st.recursive(
        _JSON_LEAVES,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_TEXT, inner, max_size=4),
        max_leaves=25,
    )
)
@settings(max_examples=300)
def test_json_writer_matches_json_dumps(value):
    assert _json_text(value) == json.dumps(value, sort_keys=True, indent=2)


def test_json_writer_on_reports_and_empty_containers():
    report = json.loads((GOLDEN_DIR / "case6.json").read_text())
    for value in (report, {}, [], {"a": {}, "b": [[], {}]}, (1, "x"), [float("nan"), float("-inf"), 1e300]):
        assert _json_text(value) == json.dumps(value, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        _json_text({"a": {1, 2}})


def test_json_run_leaves_no_cyclic_garbage(capsys):
    argv = ["classify", "--p", "x^5", "--q", "x^5 + x", "--json", "--witness", "--oracle", "geometry"]
    main(argv)  # builds the parser and imports what the flags need
    capsys.readouterr()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    json.loads(capsys.readouterr().out)
    assert garbage == []


def test_timings_flag_adds_fields_without_breaking_schema(capsys):
    main(["classify", "--p", "x^3", "--q", "x^3", "--json", "--timings"])
    rep = json.loads(capsys.readouterr().out)
    assert set(rep["timings"]) == {"parse_ms", "classify_ms"}


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "0 failure(s)" in out
    assert "FAIL" not in out


def test_oracle_precision_flag(capsys):
    for bits in (512, PRECISION_CAP):  # PRECISION_CAP is the largest accepted
        code = main(
            ["classify", "--p", "x^3 - 3*x", "--q", "x^3 - 3*x", "--json",
             "--oracle", "numeric", "--precision", str(bits)]
        )
        rep = json.loads(capsys.readouterr().out)
        assert code == 10  # x - y divides
        assert rep["oracle"]["numeric"]["precision_bits"] == bits


@pytest.mark.parametrize("bits", ["0", "-1", "-8", "4097", "262144"])
def test_precision_must_be_positive(bits, capsys):
    # P = Q resolves at the first precision step, so a missing guard
    # shows up as a report, not as a hang; above PRECISION_CAP one step
    # can run for tens of seconds, so the flag is refused before any
    # oracle work
    t0 = time.perf_counter()
    code = main(
        ["classify", "--p", "x^3 - 3*x", "--q", "x^3 - 3*x", "--json",
         "--oracle", "numeric", f"--precision={bits}"]
    )
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "--precision" in captured.err
    assert time.perf_counter() - t0 < 1.0


def test_precision_must_be_an_integer(capsys):
    code = main(["classify", "--p", "x^3", "--q", "x^3", "--oracle", "numeric", "--precision", "abc"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert f"must be an integer in 1..{PRECISION_CAP}, got 'abc'" in captured.err


def test_text_report_renders_oracles_and_timings(capsys):
    code = main(["classify", "--p", "x^7 + x", "--q", "x^7 + 2*x", "--oracle", "both", "--timings"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[-3].startswith("geometry oracle: delta=")
    assert lines[-2] == "numeric oracle: Agree at 256 bits (l0=0)"
    assert lines[-1].startswith("timings: classify_ms=") and ", parse_ms=" in lines[-1]


def test_oversized_coefficients_are_usage_errors():
    """A coefficient past the int-to-str digit limit is refused by the
    parser, not met as a traceback while the report is printed."""
    src = pathlib.Path(__file__).parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONINTMAXSTRDIGITS": "4300"}
    runs = [
        subprocess.run(
            [sys.executable, "-m", "sepcurve.cli", "classify", f"--p={p}", "--q=x^2"],
            capture_output=True, text=True, env=env,
        )
        for p in ("3^10000*x^2", "3^9000*x^2")
    ]
    assert runs[0].returncode == 1 and runs[0].stdout == ""
    assert runs[0].stderr.startswith("error: ") and "Traceback" not in runs[0].stderr
    assert runs[0].stderr.count("\n") == 1 and "(at position 0)" in runs[0].stderr
    assert runs[1].returncode == 10


def _internal_fault(argv, capsys):
    """Run main on argv and return the one stderr line of its internal
    fault: exit 3, nothing on stdout, no usage error."""
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ") and captured.err.count("\n") == 1
    return captured.err


@pytest.mark.parametrize(
    "fault", [MalformedFormError("bad degrees"), ValueError("internal"), ArithmeticError("kernel")]
)
def test_internal_faults_are_not_usage_errors(fault, monkeypatch, capsys):
    def broken(pair):
        raise fault

    monkeypatch.setattr(cli, "classify", broken)
    err = _internal_fault(["classify", "--p", "x^5", "--q", "x^5 + x"], capsys)
    assert err == f"internal error: {type(fault).__name__}: {fault}\n"


def test_emitter_fault_is_not_a_usage_error(monkeypatch, capsys):
    real = cli.classify
    monkeypatch.setattr(
        cli, "classify", lambda pair: real(pair)._replace(rule="no such rule")
    )
    err = _internal_fault(["classify", "--p", "x^5", "--q", "x^5 + x", "--witness"], capsys)
    assert "ValueError: no witness emitter" in err


def test_unaudited_witness_is_never_printed(monkeypatch, capsys):
    real = oneforms.verify_witnesses

    def failing_audit(verdict, matching=None):
        forms, reports = real(verdict, matching)
        return forms, tuple(r._replace(overall=False) for r in reports)

    monkeypatch.setattr(oneforms, "verify_witnesses", failing_audit)
    for flags in ((), ("--json",)):
        argv = ["classify", "--p", "x^5", "--q", "x^5 + x", "--witness", *flags]
        assert "RuntimeError: witness audit failed" in _internal_fault(argv, capsys)


def test_internal_fault_exit_code_in_a_process():
    """A fault past parsing (here a classifier that raises) exits 3 with
    one stderr line, no traceback and nothing on stdout."""
    src = pathlib.Path(__file__).parent.parent / "src"
    code = (
        "import sys\n"
        "import sepcurve.cli as cli\n"
        "def broken(pair):\n"
        "    raise ValueError('kernel fault')\n"
        "cli.classify = broken\n"
        "sys.exit(cli.main(['classify', '--p=x^3', '--q=x^3']))\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert run.returncode == 3 and run.stdout == ""
    assert run.stderr.startswith("internal error: ValueError: kernel fault")
    assert run.stderr.count("\n") == 1 and "Traceback" not in run.stderr


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_report_past_the_digit_limit_prints_its_verdict(json_flag):
    """The linear witness of 3^9000 x^2 vs 5^-6000 x^2 has coefficients
    past the int-to-str digit limit: its description names the family
    size, and the report prints with the verdict's exit code."""
    src = pathlib.Path(__file__).parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONINTMAXSTRDIGITS": "4300"}
    run = subprocess.run(
        [sys.executable, "-m", "sepcurve.cli", "classify", "--p=3^9000*x^2", "--q=1/5^6000*x^2"]
        + json_flag,
        capture_output=True, text=True, env=env,
    )
    assert run.returncode == 10 and run.stderr == ""
    witness = "family of 2 linear factor(s) y - (s*x + t): coefficients past the int-to-str digit limit"
    if json_flag:
        report = json.loads(run.stdout)
        assert (report["verdict"], report["rule"], report["case"]) == (
            "HasLowGenusComponent", "Theorem 3 case 1", 1
        )
        assert report["linear_witness"] == witness
    else:
        assert "verdict: HasLowGenusComponent (rule: Theorem 3 case 1)" in run.stdout
        assert f"linear factor: {witness}\n" in run.stdout


@pytest.mark.parametrize("fails", ["audit", "emission"])
def test_selftest_reports_a_failing_witness_audit(fails, monkeypatch, capsys):
    real = oneforms.verify_witnesses

    def broken(verdict, matching=None):
        if fails == "emission":
            raise ValueError("no witness emitter")
        forms, reports = real(verdict, matching)
        return forms, tuple(r._replace(overall=False) for r in reports)

    monkeypatch.setattr(oneforms, "verify_witnesses", broken)
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "gap rule                 FAIL (witnesses: " in out
    assert "case 1                   ok" in out  # no witnesses for low-genus verdicts
    assert "selftest: 8 failure(s)" in out  # the eight hyperbolic instances


@pytest.mark.parametrize(
    "p, q",
    [("x^7 + x", "x^7 + 2*x"), ("x^5", "x^5 + x"), ("x^3", "x^3"), ("x^5", "x^2")],
)
def test_matching_is_computed_once_per_call(p, q, monkeypatch, capsys, debug_checks):
    """The exact route runs at most once per call, and not at all on
    x^3 against x^3, whose linear-factor witness gives the matching
    (debug checks rerun it)."""
    debug_checks(False)
    exact = 0 if p == q else 1
    calls = []
    original = critical.match_pairs

    def counting(pair):
        calls.append(pair)
        return original(pair)

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("sepcurve") and getattr(mod, "match_pairs", None) is original:
            monkeypatch.setattr(mod, "match_pairs", counting)
    main(["classify", "--p", p, "--q", q, "--json", "--witness", "--oracle", "geometry"])
    json.loads(capsys.readouterr().out)
    assert len(calls) == exact


def test_cli_import_does_not_load_mpmath():
    src = pathlib.Path(__file__).parent.parent / "src"
    code = "import sys, sepcurve.cli; print('mpmath' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_the_oracles_and_the_witness_audit_unloaded():
    """Importing the CLI loads neither oracle, the witness audit, the
    selftest instances nor ``json``; the package's exports still resolve on access,
    and ``sepcurve.classify`` is the function, not the submodule."""
    src = pathlib.Path(__file__).parent.parent / "src"
    code = (
        "import sys, sepcurve.cli\n"
        "lazy = ['sepcurve.oneforms', 'sepcurve.numoracle', 'sepcurve.geometry', 'sepcurve.instances', 'mpmath', 'json']\n"
        "print(sorted(m for m in lazy if m in sys.modules))\n"
        "import sepcurve\n"
        "namespace = {}\n"
        "exec('from sepcurve import *', namespace)\n"
        "print(sorted(set(sepcurve.__all__) - set(namespace)))\n"
        "print(callable(sepcurve.classify), namespace['classify'] is sepcurve.classify)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )
    assert out.stdout.split("\n")[:3] == ["[]", "[]", "True True"]


def test_classify_without_the_numeric_oracle_leaves_it_unloaded():
    """A degree-5 ``classify`` run, which builds the argument parser and
    checks ``--precision``, loads neither the numeric oracle, mpmath nor
    ``json``; ``--oracle numeric`` loads the oracle and still not mpmath,
    and ``--json`` loads ``json``."""
    src = pathlib.Path(__file__).parent.parent / "src"
    code = (
        "import contextlib, io, sys\n"
        "from sepcurve.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['classify', '--p', 'x^5', '--q', 'x^5 + x', '--precision', '512', *sys.argv[1:]])\n"
        "print([m for m in ('sepcurve.numoracle', 'mpmath', 'json') if m in sys.modules])\n"
    )
    for flags, loaded in (
        ((), "[]"),
        (("--oracle", "numeric"), "['sepcurve.numoracle']"),
        (("--json",), "['json']"),
    ):
        out = subprocess.run(
            [sys.executable, "-c", code, *flags],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            check=True,
        )
        assert out.stdout.strip() == loaded, flags


def _corpus_pairs():
    """(P, Q) for the corpus, from fixed seeds: the case instances and
    affine images of them, theorem3_pair for k = 3..11, the rule
    representatives, linear-factor and perturbed pairs, random sparse
    and dense pairs up to degree 20, multi-class pairs (powers of linear
    factors and their integrals), pairs failing Hypothesis I, the
    antiderivatives of x^a (x - 1)^b, and one pair for each small
    condition that is a verdict's rule nowhere else."""
    rng = random.Random(20140908)
    x = Poly.x()
    pairs = []
    for cid in ins.CASE_IDS:
        pair = ins.case_instance(cid)
        pairs += [pair] + [ins.random_affine_image(pair, rng) for _ in range(4)]
    pairs += [ins.theorem3_pair(k) for k in range(3, 12)]
    pairs += [ins.random_affine_image(ins.theorem3_pair(rng.randint(3, 8)), rng) for _ in range(8)]
    for rule_pair in (ins.theorem1_pair(), ins.theorem2_pair(), ins.inconclusive_pair()):
        pairs += [rule_pair] + [ins.random_affine_image(rule_pair, rng) for _ in range(2)]
    pairs += [ins.random_linear_factor_pair(rng)[0] for _ in range(35)]
    pairs += [random_perturbed_pair(rng) for _ in range(35)]
    pairs += [
        (ins.random_polynomial(rng, 2, 9), ins.random_polynomial(rng, 2, 9))
        for _ in range(50)
    ]
    pairs += [
        (ins.random_polynomial(rng, 10, 20, sparse=False), ins.random_polynomial(rng, 8, 20))
        for _ in range(12)
    ]

    def multiclass():
        prod = Poly.constant(rng.choice([1, -2, 3]))
        for r in rng.sample(range(-3, 4), rng.randint(1, 3)):
            prod = prod * (x - r) ** rng.randint(1, 3)
        if prod.degree < 2 or rng.random() < 0.5:
            return _antiderivative(prod) + rng.randint(-3, 3)
        return prod + rng.randint(-3, 3)

    pairs += [(multiclass(), multiclass()) for _ in range(30)]
    even = [x**4 - 2 * x**2, x**6 - 3 * x**4 + 3 * x**2, (x**2 - 1) ** 3, x**3 * (x - 1) ** 2]
    for p in even:  # each fails Hypothesis I
        pairs += [(p, p + 1), (p, x**4 - 2 * x**2 + 1), (p, ins.random_polynomial(rng, 2, 6))]
    family = [_antiderivative(x**a * (x - 1) ** b) for a in range(1, 5) for b in range(1, 5)]
    pairs += [(p, q) for p in family for q in family if rng.random() < 0.15]
    # a pair for each small condition no draw above makes the verdict's
    # rule, then two of them swapped; big2c(a) and Corollary 1 never are,
    # as theorem1_lhs - corollary1_lhs = n - m lets big2(a) and Theorem 1
    # fire first
    rare = [
        ("1/5*x^5 - 3/4*x^4 + x^3 - 1/2*x^2", "1/5*x^5 - 1/4*x^4"),  # big2(a)
        ("1/4*x^4 - 2/3*x^3 + 1/2*x^2", "1/4*x^4 - 1/3*x^3"),  # big2(b)
        ("1/5*x^5 - 3/8*x^4 + 1/6*x^3", "-7/480*x^5 + 7/384*x^4"),  # big2(c)
    ]
    rare += [(q, p) for p, q in rare[1:]]  # big2c(b), big2c(c)
    pairs += [(parse_poly(p), parse_poly(q)) for p, q in rare]
    out = []
    for pair in pairs:
        p, q = (pair.p, pair.q) if isinstance(pair, critical.PolynomialPair) else pair
        if isinstance(pair, critical.PolynomialPair) and pair.swapped:
            p, q = q, p
        out.append((p.to_string(), q.to_string()))
    return out


def _antiderivative(p):
    return Poly([0] + [c / (k + 1) for k, c in enumerate(p.coeffs)])


def _corpus_argv(p, q, index):
    """The corpus runs --oracle geometry on every pair and the numeric
    oracle too on every 25th, which keeps its cost to about a second."""
    oracle = "both" if index % 25 == 0 else "geometry"
    return ["classify", f"--p={p}", f"--q={q}", "--json", "--witness", "--oracle", oracle]


def _corpus_record(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) in (0, 10, 20), argv
    return json.dumps(json.loads(out.getvalue()), sort_keys=True)


def test_verdict_corpus_is_byte_stable():
    lines = CORPUS.read_text().splitlines()
    assert len(lines) >= 200
    for index, line in enumerate(lines):
        rep = json.loads(line)
        argv = _corpus_argv(rep["input"]["p"], rep["input"]["q"], index)
        assert _corpus_record(argv) == line, argv


def test_corpus_pins_every_reachable_rule():
    """Some corpus record has each of these rules: Theorems 1-3, cases
    1-6, the linear factor, and every small condition but big2c(a),
    which like Corollary 1 is never a verdict's rule (see
    ``_corpus_pairs``)."""
    rules = {json.loads(line)["rule"] for line in CORPUS.read_text().splitlines()}
    reachable = {"Theorem 1", "Theorem 2", "Theorem 3", "linear factor", "inconclusive"}
    reachable |= {"big2(a)", "big2(b)", "big2(c)", "big2c(b)", "big2c(c)"}
    reachable |= {f"Theorem 3 case {i}" for i in range(1, 7)}
    assert reachable <= rules


def test_verdict_corpus_replays_under_debug_checks(debug_checks):
    """SEPCURVE_DEBUG_CHECKS=1 reruns every certified class, shape and
    value image, every skipped linear-factor search, and every
    resultant_shift by the determinant route; every record with both
    degrees at most 9 replays byte-identically."""
    debug_checks(True)
    replayed = 0
    for index, line in enumerate(CORPUS.read_text().splitlines()):
        rep = json.loads(line)
        p, q = rep["input"]["p"], rep["input"]["q"]
        if max(parse_poly(p).degree, parse_poly(q).degree) > 9:
            continue
        assert _corpus_record(_corpus_argv(p, q, index)) == line, (p, q)
        replayed += 1
    assert replayed >= 250


@pytest.mark.parametrize("value, on", [("1", True), ("0", True), ("", False), (None, False)])
def test_debug_switch_is_read_from_the_starting_environment(value, on):
    """A process that starts with SEPCURVE_DEBUG_CHECKS set to any
    non-empty value has rpoly.DEBUG_CHECKS on; without it, off."""
    env = {k: v for k, v in os.environ.items() if k != "SEPCURVE_DEBUG_CHECKS"}
    env["PYTHONPATH"] = str(pathlib.Path(__file__).parent.parent / "src")
    if value is not None:
        env["SEPCURVE_DEBUG_CHECKS"] = value
    run = subprocess.run(
        [sys.executable, "-c", "from sepcurve import rpoly; print(rpoly.DEBUG_CHECKS)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert run.stdout == f"{on}\n"


class _CountingEnviron(collections.UserDict):
    """An ``os.environ`` stand-in that records every key looked up."""

    def __init__(self, data):
        super().__init__(data)
        self.read = []

    def __contains__(self, key):
        self.read.append(key)
        return super().__contains__(key)

    def __getitem__(self, key):
        self.read.append(key)
        return super().__getitem__(key)


def test_cli_runs_never_look_up_the_debug_switch(monkeypatch, capsys):
    """The switch is read once, at import: classifying the selftest pairs
    and a linear-factor pair, with witnesses and the geometry oracle,
    looks SEPCURVE_DEBUG_CHECKS up in no call."""
    environ = _CountingEnviron(os.environ)
    monkeypatch.setattr(os, "environ", environ)
    pairs = [pair for _, pair, *_ in cli._selftest_items()]
    pairs.append(ins.random_linear_factor_pair(random.Random(37))[0])
    for pair in pairs:
        argv = ["--p", pair.p.to_string(), "--q", pair.q.to_string(), "--json", "--witness"]
        main(["classify", *argv, "--oracle", "geometry"])
        json.loads(capsys.readouterr().out)
    assert len(pairs) == 17
    assert "SEPCURVE_DEBUG_CHECKS" not in environ.read


def _regen():
    records = [_corpus_record(_corpus_argv(p, q, i)) for i, (p, q) in enumerate(_corpus_pairs())]
    CORPUS.write_text("".join(r + "\n" for r in records))
    print("wrote corpus,", len(records), "records")
    for name, ((p, q), _) in GOLDEN_INSTANCES.items():
        out = subprocess.run(
            [sys.executable, "-m", "sepcurve.cli", *_argv(p, q)],
            capture_output=True,
            text=True,
        )
        json.loads(out.stdout)
        (GOLDEN_DIR / f"{name}.json").write_text(out.stdout)
        print("wrote", name)


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
