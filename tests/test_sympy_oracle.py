"""sympy as an independent algebra oracle on the verdict corpus.

Every other differential check compares one sepcurve route with
another on the same polynomial and integer kernels; here sympy factors
P(x) - Q(y) over Q for each corpus record, and rebuilds each side's
critical classes and value table from its own squarefree decomposition
and resultants.  sepcurve itself never imports sympy, and a host without
it skips this module.
"""

import json
import pathlib
import random
from functools import reduce
from operator import mul

import pytest

sympy = pytest.importorskip("sympy")

from helpers import chebyshev, integral  # noqa: E402
from sepcurve.critical import analyze  # noqa: E402
from sepcurve.parsepoly import parse_poly  # noqa: E402
from sepcurve.rationals import rat  # noqa: E402
from sepcurve.rpoly import Poly  # noqa: E402

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


def _sympy_of(p, var):
    """The sepcurve Poly p as a sympy Poly over QQ in var."""
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs, var, domain="QQ")


def _affine(p, rng):
    """u P(s x + t) + v for small seeded rationals, s and u nonzero."""
    def small(lo=-3):
        return rat(rng.randint(lo, 3), rng.randint(1, 3))

    s, u = (rng.choice((-1, 1)) * small(1) for _ in "su")
    return p.scale_argument(s).shift_argument(small()) * u + Poly([small()])


def _sides():
    """The distinct corpus sides, T_n for n <= 12, compositions R(S(x)),
    integrals of x^a (x - 1)^b, and seeded affine images of the last
    three."""
    sides = set()
    for line in CORPUS.read_text().splitlines():
        rec = json.loads(line)
        sides.update(parse_poly(rec["input"][k]) for k in "pq")
    assert len(sides) == 469
    rng = random.Random(17)

    def small(degree):
        return Poly([rng.randint(-3, 3) for _ in range(degree)] + [rng.choice((-2, -1, 1, 2))])

    drawn = [chebyshev(n) for n in range(2, 13)]
    for _ in range(12):
        outer, inner = rng.sample((2, 3, 4), 2)
        drawn.append(small(outer)(small(inner)))
    x, x1 = Poly([0, 1]), Poly([-1, 1])
    drawn += [integral(x**a * x1**b) for a in range(1, 5) for b in range(0, 5)]
    return sorted(sides, key=str) + drawn + [_affine(p, rng) for p in drawn]


@pytest.fixture(scope="module")
def analyzed_sides():
    return [(p, analyze(p)) for p in _sides()]


def test_the_classes_are_sympys_squarefree_decomposition(analyzed_sides):
    for p, cs in analyzed_sides:
        _, parts = _sympy_of(p, X).diff(X).sqf_list()
        expected = sorted(((f.monic(), k) for f, k in parts), key=lambda part: part[1])
        assert [(_sympy_of(c.factor, X), c.multiplicity) for c in cs.classes] == expected, p


def test_the_value_table_matches_sympys_resultants(analyzed_sides):
    """The pieces multiply to the squarefree part of prod_c res_x(S_c,
    y - P), and each root of a piece is taken, in each class c, by as
    many points as the power of the piece in that class's resultant."""
    for p, cs in analyzed_sides:
        images = []
        for c in cs.classes:
            # S_c is monic, so res_x(S_c, y - P) = prod (y - P(a)) over its
            # roots a, and P mod S_c takes the same values there
            s = _sympy_of(c.factor, X)
            y_minus_r = sympy.Poly(Y - _sympy_of(p, X).rem(s).as_expr(), X, Y)
            u = sympy.Poly(s.as_expr(), X, Y).resultant(y_minus_r)
            images.append((sympy.Poly(u, Y), c.multiplicity))
        pieces = [(_sympy_of(f, Y), mults) for f, mults in cs.values]
        product = reduce(mul, (f for f, _ in pieces))
        assert product == reduce(mul, (u for u, _ in images)).sqf_part().monic(), p
        for f, mults in pieces:
            expected = []
            for u, k in images:
                j = 0
                while u.rem(f).is_zero:
                    u, j = u.quo(f), j + 1
                assert u.gcd(f).degree() == 0, p  # every root of f taken alike
                expected += [k] * j
            assert mults == tuple(sorted(expected, reverse=True)), p
