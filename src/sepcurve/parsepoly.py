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
position 0, since no report could print it.

The text is split once into tokens, each a run of ASCII digits or one
other non-whitespace character (whitespace is ``str.isspace``), and
the grammar descends over the tokens.  A value is kept in the form Poly
uses, a dense list of integer numerators over one positive denominator,
and the Poly is built once at the end.  Token positions are recomputed
only for an error message.

>>> parse_poly("x^5 - 3*x + 1").coeffs == (1, -3, 0, 0, 0, 1)
True
>>> parse_poly("(x-1)^2*(x+2)").to_string()
'x^3 - 3*x + 2'
"""

from __future__ import annotations

import re
import sys
from math import gcd, lcm

from .rpoly import Poly, _make

MAX_DEGREE = 256
MAX_POWER_BITS = 1 << 16

# a run of digits 0-9 (str.isdigit and regex \d also accept digits
# int() refuses, like '²') or one other character; \S is exactly
# "not str.isspace"
_TOKEN = re.compile(r"[0-9]+|\S")


class ParseError(ValueError):
    """Syntax error with the offending position attached."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse_poly(text: str) -> Poly:
    """Parse an exact polynomial in x.  Raises ParseError on anything
    outside the grammar, pointing at the offending character."""
    d = _Descent(text)
    nums, den = d.expr()
    tok = d.toks[d.i]
    if tok:
        raise d.error(f"unexpected {tok[0]!r}", d.i)
    poly = _make(nums, den)
    _check_digits(poly)
    return poly


def _check_digits(poly: Poly):
    """Refuse a coefficient with a numerator or denominator of more
    decimal digits than the interpreter's int-to-str limit (0: none)."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    den = poly.den
    # below 2^(3 limit) < 10^limit: the unreduced sizes bound the reduced ones
    bound = max(den.bit_length(), max((c.bit_length() for c in poly.num), default=0))
    if not limit or bound <= 3 * limit:
        return
    big = 10**limit
    for k, c in enumerate(poly.num):
        if c:
            g = gcd(c, den)
            if abs(c) // g >= big or den // g >= big:
                raise ParseError(f"coefficient of degree {k} has more than {limit} digits", 0)


# Values are (nums, den): nums[k] / den is the coefficient of x^k, nums
# has no trailing zeros, den > 0 and gcd(den, *nums) == 1.
_ZERO = ((), 1)


def _reduced(nums: list, den: int) -> tuple:
    while nums and not nums[-1]:
        nums.pop()
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums, den = [c // g for c in nums], den // g
    return nums, den


def _size(value: tuple) -> int:
    """Bit size of the largest numerator or the denominator, a bound on
    _bits, equal to it when the denominator is 1 (0 for zero)."""
    nums, den = value
    if not nums:
        return 0
    return max(max(nums).bit_length(), min(nums).bit_length(), den.bit_length())


def _bits(value: tuple) -> int:
    """Bit size of the largest numerator or denominator of the reduced
    coefficients (0 for zero)."""
    nums, den = value
    return max(
        (max((c // g).bit_length(), (den // g).bit_length()) for c in nums if c for g in (gcd(c, den),)),
        default=0,
    )


def _add(a: tuple, b: tuple, negate: bool) -> tuple:
    """a + b, or a - b when negate."""
    (an, ad), (bn, bd) = a, b
    d = ad
    if bd != ad:
        d = lcm(ad, bd)
        an = [c * (d // ad) for c in an]
        bn = [c * (d // bd) for c in bn]
    if negate:
        bn = [-c for c in bn]
    if len(an) < len(bn):
        an, bn = bn, an
    out = list(an)
    for i, c in enumerate(bn):
        out[i] += c
    return _reduced(out, d)


def _mul(a: tuple, b: tuple) -> tuple:
    (an, ad), (bn, bd) = a, b
    if not an or not bn:
        return _ZERO
    if len(an) > len(bn):
        an, bn = bn, an
    if len(an) == 1:
        c = an[0]
        return _reduced([c * x for x in bn], ad * bd)
    out = [0] * (len(an) + len(bn) - 1)
    for i, ai in enumerate(an):
        if ai:
            for j, bj in enumerate(bn):
                out[i + j] += ai * bj
    return _reduced(out, ad * bd)


def _pow(base: tuple, e: int) -> tuple:
    nums, den = base
    k = len(nums) - 1
    if k <= 0 or not any(nums[:k]):  # zero, a constant or a monomial c * x^k
        return ([0] * (k * e) + [nums[k] ** e], den**e) if nums else _ZERO
    result = ([1], 1)
    while e:
        if e & 1:
            result = _mul(result, base)
        e >>= 1
        if e:
            base = _mul(base, base)
    return result


class _Descent:
    """The grammar over the tokens of one text; ``i`` indexes the next
    token, and the end of input is the empty token."""

    __slots__ = ("text", "toks", "i")

    def __init__(self, text: str):
        self.text = text
        self.toks = _TOKEN.findall(text)
        self.toks.append("")
        self.i = 0

    def error(self, message: str, i: int, offset: int = 0) -> ParseError:
        """ParseError at the start of token i, plus offset."""
        for k, m in enumerate(_TOKEN.finditer(self.text)):
            if k == i:
                return ParseError(message, m.start() + offset)
        return ParseError(message, len(self.text) + offset)

    def got(self) -> str:
        return repr(self.toks[self.i][:1] or "end of input")

    def integer(self, what: str) -> int:
        tok = self.toks[self.i]
        if not "0" <= tok[:1] <= "9":
            raise self.error(f"expected {what}, got {self.got()}", self.i)
        try:
            value = int(tok)
        except ValueError:  # ASCII digits only: past the interpreter's digit limit
            raise self.error(f"{what} of {len(tok)} digits is too long", self.i) from None
        self.i += 1
        return value

    def expr(self) -> tuple:
        negate = self.toks[self.i] == "-"
        if negate:
            self.i += 1
        acc = self.term()
        if negate:
            acc = ([-c for c in acc[0]], acc[1])
        while (op := self.toks[self.i]) == "+" or op == "-":
            self.i += 1
            acc = _add(acc, self.term(), op == "-")
        return acc

    def check_degree(self, degree: int, i: int, offset: int = 0):
        if degree > MAX_DEGREE:
            raise self.error(f"degree {degree} exceeds the cap of {MAX_DEGREE}", i, offset)

    def term(self) -> tuple:
        acc = self.factor()
        while self.toks[self.i] == "*":
            star = self.i
            self.i += 1
            rhs = self.factor()
            self.check_degree(len(acc[0]) + len(rhs[0]) - 2, star)
            if _size(acc) + _size(rhs) > MAX_POWER_BITS:  # only then the reduced sizes
                a_bits, r_bits = _bits(acc), _bits(rhs)
                if a_bits + r_bits > MAX_POWER_BITS:
                    what = f"product of {a_bits} + {r_bits} bits"
                    raise self.error(f"{what} exceeds the cap of {MAX_POWER_BITS}", star)
            acc = _mul(acc, rhs)
        return acc

    def factor(self) -> tuple:
        base = self.atom()
        if self.toks[self.i] != "^":
            return base
        caret = self.i
        self.i += 1
        e = self.integer("integer exponent")
        if e < 1:
            raise self.error("exponent must be a positive integer", caret, 1)
        self.check_degree((len(base[0]) - 1) * e, caret, 1)
        if e * _size(base) > MAX_POWER_BITS:  # only then the reduced size
            bits = _bits(base)
            if e * bits > MAX_POWER_BITS:
                what = f"power of {e} * {bits} bits"
                raise self.error(f"{what} exceeds the cap of {MAX_POWER_BITS}", caret, 1)
        return _pow(base, e)

    def atom(self) -> tuple:
        tok = self.toks[self.i]
        if tok == "(":
            self.i += 1
            inner = self.expr()
            if self.toks[self.i] != ")":
                raise self.error(f"expected ')', got {self.got()}", self.i)
            self.i += 1
            return inner
        if tok == "x":
            self.i += 1
            return [0, 1], 1
        if "0" <= tok[:1] <= "9":
            num = self.integer("number")
            if self.toks[self.i] != "/":
                return ([num], 1) if num else _ZERO
            slash = self.i
            self.i += 1
            den = self.integer("denominator")
            if den == 0:
                raise self.error("zero denominator", slash, 1)
            g = gcd(num, den)
            return ([num // g], den // g) if num else _ZERO
        raise self.error(f"expected a number, 'x', or '(', got {self.got()}", self.i)
