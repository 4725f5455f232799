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
MAX_DEGREE, or a power whose exponent times the bit size of its base's
largest coefficient exceeds MAX_POWER_BITS.

>>> parse_poly("x^5 - 3*x + 1").coeffs == (1, -3, 0, 0, 0, 1)
True
>>> parse_poly("(x-1)^2*(x+2)").to_string()
'x^3 - 3*x + 2'
"""

from __future__ import annotations

from .rationals import rat
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
    poly = _expr(sc)
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise ParseError(f"unexpected {sc.text[sc.pos]!r}", sc.pos)
    return poly


def _expr(sc: _Scanner) -> Poly:
    negate = sc.take("-")
    acc = _term(sc)
    if negate:
        acc = -acc
    while True:
        if sc.take("+"):
            acc = acc + _term(sc)
        elif sc.take("-"):
            acc = acc - _term(sc)
        else:
            return acc


def _check_degree(degree: int, at: int):
    if degree > MAX_DEGREE:
        raise ParseError(f"degree {degree} exceeds the cap of {MAX_DEGREE}", at)


def _term(sc: _Scanner) -> Poly:
    acc = _factor(sc)
    while sc.take("*"):
        at = sc.pos - 1
        rhs = _factor(sc)
        _check_degree(acc.degree + rhs.degree, at)
        acc = acc * rhs
    return acc


def _factor(sc: _Scanner) -> Poly:
    base = _atom(sc)
    if sc.take("^"):
        at = sc.pos
        e = sc.integer("integer exponent")
        if e < 1:
            raise ParseError("exponent must be a positive integer", at)
        _check_degree(base.degree * e, at)
        bits = max(
            (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in base.coeffs),
            default=0,
        )
        if e * bits > MAX_POWER_BITS:
            raise ParseError(f"power of {e} * {bits} bits exceeds the cap of {MAX_POWER_BITS}", at)
        return base**e
    return base


def _atom(sc: _Scanner) -> Poly:
    ch = sc.peek()
    if ch == "(":
        sc.take("(")
        inner = _expr(sc)
        sc.expect(")")
        return inner
    if ch == "x":
        sc.take("x")
        return Poly.x()
    if _is_digit(ch):
        num = sc.integer("number")
        if sc.take("/"):
            at = sc.pos
            den = sc.integer("denominator")
            if den == 0:
                raise ParseError("zero denominator", at)
            return Poly.constant(rat(num, den))
        return Poly.constant(rat(num))
    got = ch or "end of input"
    raise ParseError(f"expected a number, 'x', or '(', got {got!r}", sc.pos)
