import contextlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import poly_of, reference_parse_poly
from sepcurve import parsepoly
from sepcurve.parsepoly import MAX_NESTING, ParseError, parse_poly
from sepcurve.rationals import rat
from sepcurve.rpoly import Poly


def test_direct_reading():
    assert parse_poly("x^5 - 3*x + 1").coeffs == (1, -3, 0, 0, 0, 1)
    assert parse_poly("3").coeffs == (3,)
    assert parse_poly("-4/7") == Poly.constant(rat(-4, 7))


def test_products_expand():
    assert parse_poly("(x-1)^2*(x+2)") == poly_of(2, -3, 0, 1)
    assert parse_poly("(x+1)*(x-1)") == poly_of(-1, 0, 1)


def test_whitespace_insensitive():
    assert parse_poly(" x ^ 2+ 1 ") == parse_poly("x^2+1")


def test_rational_coefficients():
    p = parse_poly("1/2*x^2 - 3/4")
    assert p.coeff(2) == rat(1, 2) and p.coeff(0) == rat(-3, 4)


def test_constant_powers_collapse():
    assert parse_poly("2^3") == Poly.constant(8)


def test_leading_minus():
    assert parse_poly("-x^2 + x") == poly_of(0, 1, -1)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("x^y", "integer exponent"),
        ("x^0", "positive"),
        ("x^-2", "integer exponent"),
        ("y + 1", "expected a number"),
        ("2x", "unexpected"),
        ("x x", "unexpected"),
        ("(x+1", "expected ')'"),
        ("1/0", "zero denominator"),
        ("", "end of input"),
        ("x +", "end of input"),
        ("3//2", "denominator"),
        ("x^²", "integer exponent"),
        ("²", "expected a number"),
    ],
)
def test_errors_carry_position(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_poly(text)
    assert fragment in str(err.value)
    assert "position" in str(err.value)
    assert isinstance(err.value.position, int)
    assert 0 <= err.value.position <= len(text)


@pytest.mark.parametrize(
    "text,position,fragment",
    [
        ("x + " + "1" * 5000, 4, "too long"),
        ("x^" + "9" * 5000, 2, "too long"),
        ("x^1000000000", 2, "degree 1000000000"),
        ("(x + 1)^1000000000", 8, "degree"),
        ("x^200 * x^57", 6, "degree 257"),
        ("2^1000000000", 2, "power"),
        ("((2^1000)^1000)^1000", 10, "power"),
        ("(2^32768)*(2^32768)", 9, "product of 32769 + 32769 bits"),
        ("2^30000 * 2^30000 * 2^30000", 18, "product of 60001 + 30001 bits"),
    ],
)
def test_oversized_input_fails_before_expanding(text, position, fragment):
    with pytest.raises(ParseError) as err:
        parse_poly(text)
    assert fragment in str(err.value)
    assert err.value.position == position


@contextlib.contextmanager
def _int_max_str_digits(limit):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def test_caps_sit_above_real_inputs():
    assert parse_poly("x^256").degree == 256
    assert parse_poly("x^200 * x^56").degree == 256
    assert parse_poly("1/2^4800 * x").coeff(1) == rat(1, 2**4800)
    with _int_max_str_digits(0):  # 2^65534 has 19728 digits: only the bit cap applies
        assert parse_poly("2^32767 * 2^32767 * x") == Poly.monomial(rat(2**65534), 1)


@pytest.mark.parametrize(
    "text, degree",
    [
        ("3^10000*x^2", 2),  # 4772 digits
        ("1/7^5000*x + 1/11^4000*x", 1),  # 4226 and 4166 digits, their sum's 8392
        ("10^4300 + x^2", 0),  # one digit past the limit
    ],
)
def test_coefficients_past_the_digit_limit_fail_with_a_position(text, degree):
    with _int_max_str_digits(4300):
        assert parse_poly("3^9000*x^2 + 10^4299").coeff(2) == 3**9000  # 4295 and 4300 digits
        assert parse_poly("3^10000*x - 3^10000*x + x") == Poly.x()  # only the result counts
        with pytest.raises(ParseError) as err:
            parse_poly(text)
    assert f"coefficient of degree {degree} has more than 4300 digits" in str(err.value)
    assert err.value.position == 0


def test_long_products_of_capped_powers_fail_at_the_first_star():
    text = "*".join(["3^32768"] * 400)
    with pytest.raises(ParseError) as err:
        parse_poly(text)
    assert "product" in str(err.value)
    assert err.value.position == 7


def test_nesting_past_the_cap_fails_at_the_first_paren_past_it():
    deep = MAX_NESTING * "(" + "x" + MAX_NESTING * ")"
    assert parse_poly(deep + "^2 + 1") == poly_of(1, 0, 1)
    for depth in (MAX_NESTING + 1, 10_000):
        with pytest.raises(ParseError) as err:
            parse_poly("1 + " + depth * "(" + "x" + depth * ")")
        assert f"nested deeper than {MAX_NESTING}" in str(err.value)
        assert err.value.position == 4 + MAX_NESTING
    # depth counts the parentheses open, not those seen
    assert parse_poly(" + ".join([MAX_NESTING * "(" + "x" + MAX_NESTING * ")"] * 3)) == poly_of(0, 3)


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse_poly("3(x+1)")


coeff_strategy = st.integers(-99, 99)


@given(coeffs=st.lists(coeff_strategy, min_size=1, max_size=8))
@settings(max_examples=80)
def test_round_trip_through_to_string(coeffs):
    p = Poly([rat(c) for c in coeffs])
    if p.is_zero:
        return
    assert parse_poly(p.to_string()) == p


@given(
    num=st.integers(-50, 50),
    den=st.integers(1, 30),
    shift=st.integers(-9, 9),
    power=st.integers(1, 5),
)
@settings(max_examples=60)
def test_structured_expressions(num, den, shift, power):
    text = f"({num}/{den}*x {shift:+d})^{power}"
    expected = (Poly.constant(rat(num, den)) * Poly.x() + shift) ** power
    assert parse_poly(text) == expected


def grammar_string(rng, depth=2) -> str:
    """A random string of the parser's grammar: sums, products, powers,
    rationals and parentheses nested up to ``depth``, with whitespace."""

    def sp():
        return rng.choice(("", "", " "))

    def atom(d):
        kind = rng.randint(0, 2 if d else 1)
        if kind == 0:
            return "x"
        if kind == 1:
            num = str(rng.randint(0, 10**4))
            return num + (f"{sp()}/{sp()}{rng.randint(1, 99)}" if rng.random() < 0.5 else "")
        return f"({sp()}{expr(d - 1)}{sp()})"

    def factor(d):
        return atom(d) + (f"{sp()}^{sp()}{rng.randint(1, 3)}" if rng.random() < 0.5 else "")

    def term(d):
        return f"{sp()}*{sp()}".join(factor(d) for _ in range(rng.randint(1, 3)))

    def expr(d):
        out = ("-" if rng.random() < 0.5 else "") + term(d)
        for _ in range(rng.randint(0, 2)):
            out += f"{sp()}{rng.choice('+-')}{sp()}{term(d)}"
        return out

    return sp() + expr(depth) + sp()


@given(
    rng=st.randoms(use_true_random=False),
    cut=st.integers(0, 60),
    junk=st.sampled_from(["", "x", "(", ")", "^", "*", "/0", "--", "^0", "2"]),
)
@settings(deadline=None, max_examples=100)
def test_fuzzed_expressions_round_trip_and_fail_only_with_parse_error(rng, cut, junk):
    """parse(to_string(parse(s))) == parse(s) on grammar strings, and
    neither they nor their cut or spliced variants raise anything but
    ParseError (a grammar string may still exceed a cap)."""
    text = grammar_string(rng)
    try:
        p = parse_poly(text)
    except ParseError:
        p = None
    if p is not None:
        assert parse_poly(p.to_string()) == p
    for variant in (text[:cut], text[:cut] + junk + text[cut:]):
        try:
            parse_poly(variant)
        except ParseError:
            pass


def _outcome(parse, text):
    """The Poly parsed, or the message and position of the ParseError;
    any other exception propagates."""
    try:
        return parse(text)
    except ParseError as err:
        return str(err), err.position


def _assert_matches_reference(text):
    assert _outcome(parse_poly, text) == _outcome(reference_parse_poly, text), repr(text)


JUNK = ["", "x", "(", ")", "^", "*", "/0", "--", "^0", "2", "\t", "\u00a0", "\u3000", "\u00b2", "\u0663", "y", "/"]


@given(rng=st.randoms(use_true_random=False), cut=st.integers(0, 60), junk=st.sampled_from(JUNK))
@settings(deadline=None, max_examples=200)
def test_fuzzed_expressions_match_the_reference_parser(rng, cut, junk):
    """The token parser returns the character parser's Poly on grammar
    strings, and the same message and position on their cut or spliced
    variants that fail."""
    text = grammar_string(rng)
    for variant in (text, text[:cut], text[:cut] + junk + text[cut:]):
        _assert_matches_reference(variant)


@pytest.mark.parametrize(
    "text",
    [
        "\tx^2\n+\u00a03*x\u3000- 1/2\r",  # Unicode whitespace
        "x\u2028+\u20001",
        "\u00b2", "\u0663", "x + \u0663", "1\u0663", "\u0663/2",  # non-ASCII digits in literals,
        "1/\u0663", "1/\u00b2", "2/3\u0663",  # denominators
        "x^\u00b2", "x^\u0663", "x^1\u0663", "x^ \u0663",  # and exponents
        "", " ", "-", "--x", "+x", "x^0", "x^00", "x^ 0", "x^-1", "x^", "x^ ", "1/0", "1/ 00", "1/", "(x", "x)",
        "()", "(x))", "x x", "2x", "3(x+1)", "x*", "*x", "x^2^3", "1/2/3", "x/2", "(x)/2", "0^3", "(x-x)^3",
        "x - x", "0*x^300", "-0", "x^2 * 0 * x^300", "((x))^2", "x y", "x +", "x + y",
        "x^256", "x^257", "x^200 * x^56", "x^200 * x^57", "(x + 1)^256", "(x^2)^129", "(x - x + x^200) * x^57",
        "3^32768", "3^32769", "1^65536", "1^65537", "(1/3)^32768", "(1/3)^32769", "(2*x)^32768",
        "2^32767 * 2^32767", "2^32767 * 2^32768", "2^32767 * 1/2^32767", "1/2^32768 * 2^32767",
        "2^30000 * 2^30000 * 2^30000", "x^1000000000", "(x + 1)^1000000000",
        # caps on the reduced coefficients, not on the common denominator
        "(1/2 + 1/3*x) * (2^32767 * 2^32766)", "(1/2 + 1/3*x) * (2^32767 * 2^32767)",
        "(1/2^300 + 1/3^100*x)^150", "(1/2^300 + 1/3^100*x)^218",
        # terms the one-step monomial reader leaves to the grammar, and sums mixing both
        "x^257 + 1", "2*x^0", "x^001", "x^0256", "3/0*x", "3/00*x^2", "2*x^3*x", "3/4^2*x", "x^2/3", "-x^2 - -x",
        "x^2 + (x + 1)^2 - 3/4*x", "1/2 - (x - 1/3) + 5/6*x^2",
    ],
)
def test_edge_inputs_match_the_reference_parser(text):
    _assert_matches_reference(text)


@pytest.mark.parametrize(
    "text",
    [
        "1" * 4300, "1" * 4301, "x + " + "1" * 5000, "(" + "1" * 5000, "1" * 5000 + ")", "y + " + "1" * 5000,
        "x^" + "9" * 5000, "1/" + "7" * 5000, "10^4299", "10^4300", "1/10^4299*x", "1/10^4300*x",
        "3^9000*x^2 + 10^4299", "3^10000*x - 3^10000*x + x", "1/7^5000*x + 1/11^4000*x",
        "2^32767 * 2^32767 * x", "x^3 + 2/4*10^4300",
    ],
)
def test_inputs_at_the_digit_limit_match_the_reference_parser(text):
    with _int_max_str_digits(4300):
        _assert_matches_reference(text)


@given(
    rng=st.randoms(use_true_random=False),
    degree=st.integers(0, 256),
    dense=st.booleans(),
    digits=st.integers(1, 40),
    cut=st.integers(0, 10**6),
    junk=st.sampled_from(JUNK + ["^257", "^0", "/00", "*x"]),
)
@settings(deadline=None, max_examples=150)
def test_canonical_texts_match_the_reference_parser(rng, degree, dense, digits, cut, junk):
    """The texts the monomial reader takes in one step, to_string() of
    dense and sparse polynomials with coefficients of up to 40 digits,
    and their cut and spliced variants, parse as the character parser
    parses them."""
    top = 10**digits
    coeffs = [0] * (degree + 1)
    for k in range(degree + 1) if dense else rng.sample(range(degree + 1), min(degree + 1, 6)):
        coeffs[k] = rat(rng.randint(-top, top), rng.randint(1, top))
    coeffs[degree] = rat(rng.randint(1, top), rng.randint(1, top))
    text = Poly(coeffs).to_string()
    cut %= len(text) + 1
    for variant in (text, text[:cut], text[:cut] + junk + text[cut:]):
        _assert_matches_reference(variant)


@pytest.mark.parametrize("digits", [639, 640, 700])
def test_long_literals_past_the_digit_limit_fail_as_in_the_grammar(digits):
    # 640 is the lowest limit the interpreter accepts; the reader takes
    # only shorter literals, so no ValueError can leave it
    with _int_max_str_digits(640):
        for text in ("7" * digits + "*x", "x - 1/" + "7" * digits + "*x^2"):
            _assert_matches_reference(text)


def test_a_canonical_text_is_read_without_products_or_powers(monkeypatch):
    calls = []
    for name in ("_mul", "_pow", "_size"):
        real = getattr(parsepoly, name)
        monkeypatch.setattr(parsepoly, name, lambda *a, _name=name, _real=real: calls.append(_name) or _real(*a))
    assert parse_poly("(x + 1)^2 * x") == poly_of(0, 1, 2, 1)
    assert {"_mul", "_pow", "_size"} <= set(calls)  # the counters count
    calls.clear()
    p = Poly([rat((-1) ** k * (k * k + 1), k + 1) for k in range(21)])  # degree 20, 21 denominators
    assert parse_poly(p.to_string()) == p
    assert calls == []
