"""Exact parser for univariate polynomial expressions.

Grammar (whitespace-insensitive, no implicit multiplication):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' positive-integer]
    atom   := rational | 'x' | '(' expr ')'
    rational := integer ['/' integer]

All arithmetic is exact; "(x-1)^2*(x+2)" comes back expanded.  Errors
carry the 0-based character position where scanning gave up.  Oversized
input fails before anything large is built: parentheses nested past
MAX_NESTING (far inside the recursion limit), a literal longer than the
interpreter converts to int, a product or power of degree above
MAX_DEGREE, a power whose exponent times the bit size of its base's
largest coefficient exceeds MAX_POWER_BITS, or a product whose factors'
largest coefficients together exceed MAX_POWER_BITS bits.  A result
whose coefficient has a numerator or denominator longer than the
interpreter converts to str (``sys.get_int_max_str_digits()``) fails at
position 0, since no report could print it.

The text is split once into tokens, each a run of ASCII digits or one
other non-whitespace character (whitespace is ``str.isspace``), and
the grammar descends over the tokens.  A value is a pair (nums, den) of
integer numerators over one positive denominator, combined by the ring
kernels of ``rpoly`` (``_add``, ``_mul``, ``_pow`` and the normaliser
``_normal``), and the Poly is built once at the end.  A term c, c*x,
c*x^e, x or x^e (c a literal or a/b) is read in one step and each sum
adds these monomials once, over their least common denominator; any
other term, or one that a cap or conversion check could refuse, is read
by the grammar.  Token positions are recomputed only for an error
message.

>>> parse_poly("x^5 - 3*x + 1").coeffs == (1, -3, 0, 0, 0, 1)
True
>>> parse_poly("(x-1)^2*(x+2)").to_string()
'x^3 - 3*x + 2'
"""

from __future__ import annotations

import re
import sys
from math import gcd, lcm

from .rpoly import Poly, _add, _mul, _normal, _poly, _pow

MAX_DEGREE = 256
MAX_NESTING = 100
MAX_POWER_BITS = 1 << 16

# a run of digits 0-9 (str.isdigit and regex \d also accept digits
# int() refuses, like '²') or one other character; \S is exactly
# "not str.isspace"
_TOKEN = re.compile(r"[0-9]+|\S")
# the tokens that end a term
_ENDS = frozenset(("+", "-", ")", ""))
# a literal shorter than CPython's lowest int-to-str digit limit: int()
# takes it under any limit, and its bits are far below MAX_POWER_BITS
_SHORT = 640


class ParseError(ValueError):
    """Syntax error with the offending position attached."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse_poly(text: str) -> Poly:
    """Parse an exact polynomial in x.  Raises ParseError on anything
    outside the grammar, pointing at the offending character."""
    d = _Descent(text)
    value = d.expr()
    tok = d.toks[d.i]
    if tok:
        raise d.error(f"unexpected {tok[0]!r}", d.i)
    poly = _poly(value)
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


# Values are (nums, den) as rpoly's ring kernels take and return them:
# nums[k] / den is the coefficient of x^k.
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


class _Descent:
    """The grammar over the tokens of one text; ``i`` indexes the next
    token, ``depth`` counts the parentheses open, and the end of input is
    the empty token."""

    __slots__ = ("text", "toks", "i", "depth")

    def __init__(self, text: str):
        self.text = text
        self.toks = _TOKEN.findall(text)
        self.toks.append("")
        self.i = self.depth = 0

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
        toks, acc, monomials = self.toks, ([], 1), []
        op = toks[self.i]
        if op == "-":
            self.i += 1
        while True:
            if m := self.monomial():
                monomials.append((m[0], -m[1] if op == "-" else m[1], m[2]))
            else:
                acc = _add(acc, self.term(), op == "-")
            op = toks[self.i]
            if op != "+" and op != "-":
                break
            self.i += 1
        if monomials:  # summed once, over their least common denominator
            den = lcm(*[d for _, _, d in monomials])
            nums = [0] * (max(k for k, _, _ in monomials) + 1)
            for k, n, d in monomials:
                nums[k] += n * (den // d)
            total = _normal(nums, den)
            acc = _add(acc, total) if acc[0] else total
        return acc

    def monomial(self):
        """(k, num, den) for a term c, c*x, c*x^e, x or x^e (c a literal
        or a/b) that ends at '+', '-', ')' or the end of input; else None,
        and ``term`` reads the term with its caps and messages, as it
        does a literal of _SHORT digits or more, a zero denominator, or
        an exponent outside 1..MAX_DEGREE or of more than 3 digits."""
        toks, i, num, den, k = self.toks, self.i, 1, 1, 0
        tok = toks[i]
        if "0" <= tok[:1] <= "9" and len(tok) < _SHORT:
            num, i = int(tok), i + 1
            if toks[i] == "/":
                tok = toks[i + 1]
                if not ("0" <= tok[:1] <= "9" and len(tok) < _SHORT and (den := int(tok))):
                    return None
                i += 2
            tok = None  # a constant, unless '*' follows
            if toks[i] == "*":
                i += 1
                tok = toks[i]
        if tok == "x":
            i, k = i + 1, 1
            if toks[i] == "^":
                e = toks[i + 1]
                if not ("0" <= e[:1] <= "9" and len(e) <= 3 and 1 <= (k := int(e)) <= MAX_DEGREE):
                    return None
                i += 2
        elif tok is not None:
            return None
        if toks[i] not in _ENDS:
            return None
        self.i = i
        return k, num, den

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
            if self.depth == MAX_NESTING:
                raise self.error(f"parentheses nested deeper than {MAX_NESTING}", self.i)
            self.i, self.depth = self.i + 1, self.depth + 1
            inner = self.expr()
            if self.toks[self.i] != ")":
                raise self.error(f"expected ')', got {self.got()}", self.i)
            self.i, self.depth = self.i + 1, self.depth - 1
            return inner
        if tok == "x":
            self.i += 1
            return [0, 1], 1
        if "0" <= tok[:1] <= "9":
            num = self.integer("number")
            if self.toks[self.i] != "/":
                return _normal([num])
            slash = self.i
            self.i += 1
            den = self.integer("denominator")
            if den == 0:
                raise self.error("zero denominator", slash, 1)
            return _normal([num], den)
        raise self.error(f"expected a number, 'x', or '(', got {self.got()}", self.i)
