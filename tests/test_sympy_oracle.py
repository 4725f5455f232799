"""sympy as an independent algebra oracle on the verdict corpus.

Every other differential check compares one sepcurve route with
another on the same polynomial and integer kernels; here sympy factors
P(x) - Q(y) over Q for each corpus record.  sepcurve itself never
imports sympy, and a host without it skips this module.
"""

import json
import pathlib

import pytest

sympy = pytest.importorskip("sympy")

from sepcurve.parsepoly import parse_poly  # noqa: E402

CORPUS = pathlib.Path(__file__).parent / "golden" / "corpus.jsonl"
X, Y = sympy.symbols("x y")


def _sympy_poly(text, var):
    return sum(sympy.Rational(c.numerator, c.denominator) * var**k for k, c in enumerate(parse_poly(text).coeffs))


@pytest.fixture(scope="module")
def factored_corpus():
    """(record, factors of P(x) - Q(y) over Q as sympy Polys in x, y)."""
    out = []
    for line in CORPUS.read_text().splitlines():
        rec = json.loads(line)
        curve = _sympy_poly(rec["input"]["p"], X) - _sympy_poly(rec["input"]["q"], Y)
        _, factors = sympy.factor_list(curve, X, Y)
        out.append((rec, [sympy.Poly(f, X, Y) for f, _ in factors]))
    assert len(out) == 276
    return out


def test_a_linear_witness_exactly_when_sympy_finds_a_linear_factor(factored_corpus):
    linear = 0
    for rec, factors in factored_corpus:
        has_linear = any(f.total_degree() == 1 for f in factors)
        assert has_linear == (rec["linear_witness"] is not None), rec["input"]
        linear += has_linear
    assert linear == 45


def test_no_hyperbolic_curve_has_a_genus_zero_factor(factored_corpus):
    """A factor of x-degree or y-degree at most 1, or of total degree at
    most 2, is a component of genus 0."""
    for rec, factors in factored_corpus:
        if rec["verdict"] == "Hyperbolic":
            low = [f for f in factors if min(f.degree(X), f.degree(Y)) <= 1 or f.total_degree() <= 2]
            assert low == [], rec["input"]


def test_sepcurve_never_imports_sympy():
    package = pathlib.Path(__file__).parent.parent / "src" / "sepcurve"
    assert [p.name for p in sorted(package.glob("*.py")) if "sympy" in p.read_text()] == []
