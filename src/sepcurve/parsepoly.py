"""Exact parser for univariate polynomial expressions.

Grammar (whitespace-insensitive, no implicit multiplication):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' positive-integer]
    atom   := rational | 'x' | '(' expr ')'
    rational := integer ['/' integer]

All arithmetic is exact; "(x-1)^2*(x+2)" comes back expanded.  Errors
carry the 0-based character position where scanning gave up.  Oversized
input fails before anything large is built: a literal longer than the
interpreter converts to int, a product or power of degree above
MAX_DEGREE, a power whose exponent times the bit size of its base's
largest coefficient exceeds MAX_POWER_BITS, or a product whose factors'
largest coefficients together exceed MAX_POWER_BITS bits.  A result
whose coefficient has a numerator or denominator longer than the
interpreter converts to str (``sys.get_int_max_str_digits()``) fails at
position 0, since no report could print it.  Terms are collected
sparsely, as a dict from exponent to nonzero coefficient, and the Poly
is built once at the end.

>>> parse_poly("x^5 - 3*x + 1").coeffs == (1, -3, 0, 0, 0, 1)
True
>>> parse_poly("(x-1)^2*(x+2)").to_string()
'x^3 - 3*x + 2'
"""

from __future__ import annotations

import sys

from .rationals import ONE, ZERO, rat
from .rpoly import Poly

MAX_DEGREE = 256
MAX_POWER_BITS = 1 << 16


class ParseError(ValueError):
    """Syntax error with the offending position attached."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _is_digit(ch: str) -> bool:
    """0-9 only: str.isdigit also accepts digits int() refuses, like '²'."""
    return ch.isascii() and ch.isdigit()


class _Scanner:
    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            got = self.peek() or "end of input"
            raise ParseError(f"expected {ch!r}, got {got!r}", self.pos)

    def integer(self, what: str) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and _is_digit(self.text[self.pos]):
            self.pos += 1
        if self.pos == start:
            got = self.text[start] if start < len(self.text) else "end of input"
            raise ParseError(f"expected {what}, got {got!r}", start)
        digits = self.text[start : self.pos]
        try:
            return int(digits)
        except ValueError:  # ASCII digits only: past the interpreter's digit limit
            raise ParseError(f"{what} of {len(digits)} digits is too long", start) from None


def parse_poly(text: str) -> Poly:
    """Parse an exact polynomial in x.  Raises ParseError on anything
    outside the grammar, pointing at the offending character."""
    sc = _Scanner(text)
    terms = _expr(sc)
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise ParseError(f"unexpected {sc.text[sc.pos]!r}", sc.pos)
    _check_digits(terms)
    return Poly([terms.get(k, ZERO) for k in range(_degree(terms) + 1)])


def _degree(terms: dict) -> int:
    return max(terms, default=-1)


def _bits(terms: dict) -> int:
    """Bit size of the largest numerator or denominator (0 for zero)."""
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in terms.values()),
        default=0,
    )


def _check_digits(terms: dict):
    """Refuse a coefficient with a numerator or denominator of more
    decimal digits than the interpreter's int-to-str limit (0: none)."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not limit or _bits(terms) <= 3 * limit:  # below 2^(3 limit) < 10^limit
        return
    big = 10**limit
    for k, c in sorted(terms.items()):
        if abs(c.numerator) >= big or c.denominator >= big:
            raise ParseError(f"coefficient of degree {k} has more than {limit} digits", 0)


def _neg(terms: dict) -> dict:
    return {k: -c for k, c in terms.items()}


def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, ZERO) + c
        if s:
            out[k] = s
        else:
            del out[k]
    return out


def _mul(a: dict, b: dict) -> dict:
    out = {}
    for i, ai in a.items():
        for j, bj in b.items():
            out[i + j] = out.get(i + j, ZERO) + ai * bj
    return {k: c for k, c in out.items() if c}


def _pow(base: dict, e: int) -> dict:
    if len(base) == 1:
        ((k, c),) = base.items()
        return {k * e: c**e}
    result = {0: ONE}
    while e:
        if e & 1:
            result = _mul(result, base)
        e >>= 1
        if e:
            base = _mul(base, base)
    return result


def _expr(sc: _Scanner) -> dict:
    negate = sc.take("-")
    acc = _term(sc)
    if negate:
        acc = _neg(acc)
    while True:
        if sc.take("+"):
            acc = _add(acc, _term(sc))
        elif sc.take("-"):
            acc = _add(acc, _neg(_term(sc)))
        else:
            return acc


def _check_degree(degree: int, at: int):
    if degree > MAX_DEGREE:
        raise ParseError(f"degree {degree} exceeds the cap of {MAX_DEGREE}", at)


def _check_bits(what: str, bits: int, at: int):
    if bits > MAX_POWER_BITS:
        raise ParseError(f"{what} bits exceeds the cap of {MAX_POWER_BITS}", at)


def _term(sc: _Scanner) -> dict:
    acc = _factor(sc)
    while sc.take("*"):
        at = sc.pos - 1
        rhs = _factor(sc)
        _check_degree(_degree(acc) + _degree(rhs), at)
        a_bits, r_bits = _bits(acc), _bits(rhs)
        _check_bits(f"product of {a_bits} + {r_bits}", a_bits + r_bits, at)
        acc = _mul(acc, rhs)
    return acc


def _factor(sc: _Scanner) -> dict:
    base = _atom(sc)
    if sc.take("^"):
        at = sc.pos
        e = sc.integer("integer exponent")
        if e < 1:
            raise ParseError("exponent must be a positive integer", at)
        _check_degree(_degree(base) * e, at)
        bits = _bits(base)
        _check_bits(f"power of {e} * {bits}", e * bits, at)
        return _pow(base, e)
    return base


def _atom(sc: _Scanner) -> dict:
    ch = sc.peek()
    if ch == "(":
        sc.take("(")
        inner = _expr(sc)
        sc.expect(")")
        return inner
    if ch == "x":
        sc.take("x")
        return {1: ONE}
    if _is_digit(ch):
        num = sc.integer("number")
        if sc.take("/"):
            at = sc.pos
            den = sc.integer("denominator")
            if den == 0:
                raise ParseError("zero denominator", at)
            return {0: rat(num, den)} if num else {}
        return {0: rat(num)} if num else {}
    got = ch or "end of input"
    raise ParseError(f"expected a number, 'x', or '(', got {got!r}", sc.pos)
