"""Command-line front end: parse a pair, classify, report.

Exit codes encode the verdict and nothing else: 0 Hyperbolic,
10 HasLowGenusComponent, 20 Inconclusive, 1 usage/parse error, 3 an
internal fault (one ``internal error:`` line on stderr, nothing on
stdout).

The ``--json`` report is deterministic (sorted keys, no timestamps) so
golden files can be byte-compared; ``--timings`` adds wall-clock fields
and is therefore kept out of golden runs.
"""

from __future__ import annotations

import functools
import sys
import time
from types import SimpleNamespace

from .classify import Outcome, Verdict, classify
from .critical import DEFAULT_PRECISION, PRECISION_CAP, PolynomialPair, corollary1_lhs, theorem1_lhs
from .parsepoly import parse_poly

# The oracles, the witness audit, the selftest instances, ``json`` and
# ``argparse`` are imported by the functions that use them, so importing
# this module loads none of them; the oracles' precision bounds live in
# ``critical``.

EXIT_BY_OUTCOME = {
    Outcome.HYPERBOLIC: 0,
    Outcome.HAS_LOW_GENUS_COMPONENT: 10,
    Outcome.INCONCLUSIVE: 20,
}


class _UsageError(Exception):
    pass


def _critical_summary(pair: PolynomialPair) -> dict:
    def classes(cs):
        return [
            {"multiplicity": c.multiplicity, "degree": c.factor.degree}
            for c in cs.classes
        ]

    matching = pair.matching()
    return {
        "p_classes": classes(pair.critical_p()),
        "q_classes": classes(pair.critical_q()),
        "matched_points": [list(pq) for pq in matching.matched_points],
        "unmatched_p": list(matching.unmatched_p_points),
        "unmatched_q": list(matching.unmatched_q_points),
        "unmatched_p_mass": matching.unmatched_p_mass,
        "unmatched_q_mass": matching.unmatched_q_mass,
    }


def _witness_texts(verdict: Verdict) -> list:
    """The audited witness forms; a form failing its own regularity
    audit is an internal fault, never printed."""
    from .oneforms import verify_witnesses

    forms, reports = verify_witnesses(verdict)
    if not all(r.overall for r in reports):
        raise RuntimeError(f"witness audit failed for rule {verdict.rule!r}")
    return [f.to_text() for f in forms]


def _oracle_block(pair: PolynomialPair, which: str, precision: int) -> dict:
    block = {}
    if which in ("geometry", "both"):
        from .geometry import genus_if_supported

        rep = genus_if_supported(pair)
        block["geometry"] = {
            "delta": rep.delta,
            "genus": rep.genus,
            "method": rep.method.value,
        }
    if which in ("numeric", "both"):
        from .numoracle import verify_pair_counts

        rep = verify_pair_counts(pair, precision_bits=precision)
        block["numeric"] = {
            "outcome": rep.outcome.value,
            "precision_bits": rep.precision_bits,
            "l0": rep.l0_numeric,
        }
    return block


def build_report(
    p_text: str,
    q_text: str,
    verdict: Verdict,
    *,
    witness: bool = False,
    oracle: str | None = None,
    precision: int = DEFAULT_PRECISION,
    timings: dict | None = None,
) -> dict:
    """Assemble the machine-readable report for one classified pair.

    The critical summary describes the normalized orientation (degree of
    P at least degree of Q); ``swapped`` records whether that orientation
    reversed the inputs.  Every count comes from the pair's one cached
    matching.  ``precision`` is the numeric oracle's start precision in
    bits.
    """
    pair = verdict.pair
    matching = pair.matching()
    witness_forms = []
    if witness and verdict.outcome is Outcome.HYPERBOLIC:
        witness_forms = _witness_texts(verdict)
    return {
        "schema": 1,
        "input": {"p": p_text, "q": q_text},
        "verdict": verdict.outcome.value,
        "rule": verdict.rule,
        "case": verdict.case,
        "swapped": pair.swapped,
        "l0": matching.matched_pair_count,
        "l": matching.p_point_count,
        "h": matching.q_point_count,
        "theorem1_lhs": theorem1_lhs(matching),
        "corollary1_lhs": corollary1_lhs(matching),
        "witness_forms": witness_forms,
        "linear_witness": (
            verdict.linear_witness.description if verdict.linear_witness else None
        ),
        "critical": _critical_summary(pair),
        "oracle": _oracle_block(pair, oracle, precision) if oracle else None,
        "timings": timings,
    }


def render_text(report: dict) -> str:
    lines = [
        f"P: {report['input']['p']}",
        f"Q: {report['input']['q']}",
        f"verdict: {report['verdict']} (rule: {report['rule']})",
    ]
    if report["case"] is not None:
        lines.append(f"exceptional case: {report['case']}")
    if report["linear_witness"]:
        lines.append(f"linear factor: {report['linear_witness']}")
    lines.append(
        "counts: l0={l0}, l={l}, h={h}, theorem1_lhs={theorem1_lhs}, "
        "corollary1_lhs={corollary1_lhs}".format(**report)
    )
    if report["witness_forms"]:
        lines.append("holomorphic one-forms:")
        lines.extend(f"  {t}" for t in report["witness_forms"])
    oracle = report["oracle"] or {}
    if "geometry" in oracle:
        g = oracle["geometry"]
        lines.append(
            f"geometry oracle: delta={g['delta']}, genus={g['genus']},"
            f" method={g['method']}"
        )
    if "numeric" in oracle:
        o = oracle["numeric"]
        lines.append(
            f"numeric oracle: {o['outcome']} at {o['precision_bits']} bits"
            f" (l0={o['l0']})"
        )
    if report["timings"]:
        pieces = ", ".join(f"{k}={v}ms" for k, v in sorted(report["timings"].items()))
        lines.append(f"timings: {pieces}")
    return "\n".join(lines)


def _precision_in_range(text: str) -> int | None:
    """``text`` read as a numeric oracle precision in 1..PRECISION_CAP,
    or None if it is not one."""
    try:
        value = int(text)
    except ValueError:
        return None
    return value if 1 <= value <= PRECISION_CAP else None


_ORACLE_CHOICES = ("geometry", "numeric", "both")
_VALUED_OPTIONS = frozenset(("--p", "--q", "--oracle", "--precision"))
_FLAG_OPTIONS = frozenset(("--json", "--witness", "--timings"))


# One parser per process, built on first use so that importing builds
# none: a parser holds reference cycles that only the cyclic collector
# frees, so one per call would leave that garbage behind every call.
@functools.cache
def _build_argparser():
    import argparse

    class _Parser(argparse.ArgumentParser):
        # argparse exits with 2 on bad usage; the contract wants 1.
        def error(self, message):
            raise _UsageError(message)

    def precision_bits(text):
        value = _precision_in_range(text)
        if value is None:
            raise argparse.ArgumentTypeError(f"must be an integer in 1..{PRECISION_CAP}, got {text!r}")
        return value

    ap = _Parser(prog="sepcurve", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    # main() hands a classify argv to this subparser alone
    cl = ap.classify_parser = sub.add_parser("classify", help="classify one pair P(x) - Q(y)")
    cl.add_argument("--p", required=True, metavar="POLY", help="P, a polynomial in x")
    cl.add_argument(
        "--q", required=True, metavar="POLY",
        help="Q, a polynomial in x (the y-side of the curve)",
    )
    cl.add_argument("--json", action="store_true", help="machine-readable report")
    cl.add_argument(
        "--witness", action="store_true",
        help="emit holomorphic one-forms for hyperbolic verdicts",
    )
    cl.add_argument(
        "--oracle", choices=_ORACLE_CHOICES,
        help=(
            "cross-check with the genus count and/or numeric error disks: "
            "fixed-point integer arithmetic, value disks that bound their own "
            "rounding, exact overlap tests; root disks are estimates, not "
            "certificates"
        ),
    )
    cl.add_argument(
        "--precision", type=precision_bits, default=DEFAULT_PRECISION, metavar="BITS",
        help=f"numeric oracle start precision, 1..{PRECISION_CAP} (default {DEFAULT_PRECISION})",
    )
    cl.add_argument(
        "--timings", action="store_true",
        help="include wall-clock timings (excluded from golden output)",
    )

    sub.add_parser("selftest", help="run the pinned golden instances")
    return ap


def _read_spelled_out(rest: list) -> SimpleNamespace | None:
    """The namespace the classify subparser builds from ``rest``, when
    every option in it is spelled in full and given at most once, each
    value is valid and both --p and --q are present; otherwise None, and
    argparse reads ``rest`` (and words any usage error or help).

    A value follows its option after "=" (but is not "--"), or is the
    next argument when that does not start with "-"; the flags take
    none."""
    given = {}
    i = 0
    while i < len(rest):
        name, eq, value = rest[i].partition("=")
        if name in _FLAG_OPTIONS and not eq:
            value = True
        elif name not in _VALUED_OPTIONS or value == "--":  # argparse drops a "--" value
            return None
        elif not eq:
            i += 1
            if i == len(rest) or rest[i].startswith("-"):
                return None
            value = rest[i]
        if name in given:
            return None
        given[name] = value
        i += 1
    if "--p" not in given or "--q" not in given:
        return None
    oracle = given.get("--oracle")
    if oracle is not None and oracle not in _ORACLE_CHOICES:
        return None
    precision = DEFAULT_PRECISION
    if "--precision" in given:
        precision = _precision_in_range(given["--precision"])
        if precision is None:
            return None
    return SimpleNamespace(
        command="classify", p=given["--p"], q=given["--q"], json="--json" in given,
        witness="--witness" in given, oracle=oracle, precision=precision,
        timings="--timings" in given,
    )


def _run_classify(args) -> int:
    t0 = time.perf_counter()
    try:
        p = parse_poly(args.p)
        q = parse_poly(args.q)
        pair = PolynomialPair(p, q)
    except ValueError as exc:  # ParseError included
        raise _UsageError(str(exc)) from exc
    t1 = time.perf_counter()
    verdict = classify(pair)
    pair.matching()  # the report reads it; time it with the verdict
    t2 = time.perf_counter()
    timings = None
    if args.timings:
        timings = {
            "parse_ms": round((t1 - t0) * 1000, 3),
            "classify_ms": round((t2 - t1) * 1000, 3),
        }
    report = build_report(
        p.to_string(),
        q.to_string(),
        verdict,
        witness=args.witness,
        oracle=args.oracle,
        precision=args.precision,
        timings=timings,
    )
    if args.json:
        from json.encoder import encode_basestring_ascii

        out = []
        _write_json(report, out, encode_basestring_ascii)
        print("".join(out))
    else:
        print(render_text(report))
    return EXIT_BY_OUTCOME[verdict.outcome]


def _write_json(value, out: list, quote, indent: str = "\n") -> None:
    """Append to ``out`` the text of ``json.dumps(value, sort_keys=True,
    indent=2)`` for a JSON value with str keys; ``quote`` is json's
    ``encode_basestring_ascii``.  Unlike json's indenting encoder it
    makes no closures, so a call leaves no cyclic garbage."""
    if isinstance(value, str):
        out.append(quote(value))
    elif value is None or isinstance(value, bool):
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):  # json spells nan, inf and -inf its own way
        text = float.__repr__(value)
        out.append({"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text))
    elif isinstance(value, (dict, list, tuple)):
        is_dict, inner = isinstance(value, dict), indent + "  "
        out.append("{" if is_dict else "[")
        for n, item in enumerate(sorted(value) if is_dict else value):
            out += ("," if n else "", inner)
            if is_dict:
                out += (quote(item), ": ")
                item = value[item]
            _write_json(item, out, quote, inner)
        out.append((indent if value else "") + ("}" if is_dict else "]"))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _selftest_items():
    from .instances import (
        CASE_IDS,
        case_instance,
        inconclusive_pair,
        theorem1_pair,
        theorem2_pair,
        theorem3_pair,
    )

    for cid in CASE_IDS:
        expected_case = 1 if cid == 7 else cid
        yield (
            f"case {cid}",
            case_instance(cid),
            Outcome.HAS_LOW_GENUS_COMPONENT,
            None,
            expected_case,
        )
    yield "gap rule", theorem2_pair(), Outcome.HYPERBOLIC, "Theorem 2", None
    yield "count threshold", theorem1_pair(), Outcome.HYPERBOLIC, "Theorem 1", None
    yield "below thresholds", inconclusive_pair(), Outcome.INCONCLUSIVE, "inconclusive", None
    for k in range(3, 9):
        yield f"generic degree {k + 2}", theorem3_pair(k), Outcome.HYPERBOLIC, "Theorem 3", None


def _run_selftest() -> int:
    failures = 0
    for name, pair, outcome, rule, case in _selftest_items():
        verdict = classify(pair)
        problems = []
        if verdict.outcome is not outcome:
            problems.append(f"outcome {verdict.outcome.value} != {outcome.value}")
        if rule is not None and verdict.rule != rule:
            problems.append(f"rule {verdict.rule!r} != {rule!r}")
        if case is not None and verdict.case != case:
            problems.append(f"case {verdict.case} != {case}")
        if verdict.outcome is Outcome.HYPERBOLIC:
            try:
                _witness_texts(verdict)
            except (RuntimeError, ValueError) as exc:
                problems.append(f"witnesses: {exc}")
        status = "ok" if not problems else "FAIL (" + "; ".join(problems) + ")"
        print(f"{name:24s} {status}")
        failures += bool(problems)
    print(f"selftest: {failures} failure(s)")
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    """Usage and input errors exit 1; any other exception is an internal
    fault, reported in one line on stderr, and exits 3."""
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        if argv[:1] == ["classify"]:  # the top parser would only hand on the rest
            args = _read_spelled_out(argv[1:])
            if args is None:
                parser = _build_argparser().classify_parser
                args = parser.parse_args(argv[1:], SimpleNamespace(command="classify"))
        else:
            args = _build_argparser().parse_args(argv)
        if args.command == "selftest":
            return _run_selftest()
        return _run_classify(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
