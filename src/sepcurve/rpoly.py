"""Dense univariate polynomials over Q.

A polynomial is stored as integer numerators over one denominator:
``num[k] / den`` is the coefficient of x^k, ``num`` runs low to high
with trailing zeros stripped, ``den`` is positive and
gcd(den, *num) == 1.  The form is canonical, so equality and hashing
compare the two fields; the zero polynomial is ``((), 1)`` and has
degree -1.  The ring operations are kernels on (num, den) values in
this form: one normaliser, a signed add, a product and a power.
``Poly``'s operators and ``parsepoly``, which builds no Poly until its
result, share them, so this module is the one place that knows how a
rational polynomial is represented and combined.  The ring kernels,
calculus and the argument transforms run on the integers, and so does
``to_string``; ``Rat`` is built only where a rational leaves the
module: ``coeff``, ``lc``, ``coeffs``, evaluation and ``resultant``.

The module also carries the exact kernels the rest of the package is
built on: gcd, squarefree (multiplicity) decomposition, resultants, and
the root-image polynomial ``resultant_shift`` (the monic polynomial
whose roots are P(a) for a running over the roots of S).  Division,
gcd and resultants read the numerators directly and run one integer
pseudo-division loop, which also drives the subresultant remainder
sequence (Collins 1967; Brown & Traub 1971); every gcd, ``poly_gcd``
and each of Yun's, runs that sequence alone.  Yun's squarefree
decomposition runs on the primitive integer multiple of its input, with
primitive gcds and quotients exact over Z.  Every division the
algorithms prove exact is checked.

Arithmetic modulo one fixed prime p = ``GCD_PRIME``, one Euclid
remainder loop and one packed-slot product over GF(p), serves only
``critical``'s certificate of the critical-value shape.
``_value_image_mod_p`` gives the reduction modulo p of the
``resultant_shift`` polynomial, from the power sums of multiplication
by P in GF(p)[x]/(S) and Newton's identities.  A product of such images
coprime modulo p to its derivative (``_coprime_mod_p``) proves the
generic shape, and on a generic side proves P' squarefree, without Yun;
two sides whose images are coprime modulo p share no critical value.
``_few_roots_mod_p``, two remainders of Euclid on (f, f'), tells the
shape route which sides to try first as P' with at most two distinct
roots, whose Yun parts ``_two_root_parts`` reads off the exact identity
g f' = h f with no gcd.  A prime that divides a denominator or a
leading coefficient makes the certificate decline, never lie.
"""

from __future__ import annotations

import os
import sys
from collections import namedtuple
from functools import reduce
from math import gcd, isqrt, lcm
from operator import mul

from .rationals import ZERO, Rat, rat

# SEPCURVE_DEBUG_CHECKS, read once, when the package is first imported:
# any non-empty value turns on the cross-checks that rerun a fast route
# by an independent one, here in ``resultant_shift`` and in
# ``critical.analyze`` and ``classify``, which read it as
# ``rpoly.DEBUG_CHECKS`` so that a test can switch it.
DEBUG_CHECKS = bool(os.environ.get("SEPCURVE_DEBUG_CHECKS"))


def _coerce(value):
    if isinstance(value, Poly):
        raise TypeError("scalar expected, got Poly")
    return rat(value)


class Poly:
    """Immutable dense polynomial over Q.

    >>> p = Poly([0, -1, 2])   # 2x^2 - x
    >>> p.degree
    2
    >>> p(3) == 15
    True
    >>> Poly([1, "1/2"]).num, Poly([1, "1/2"]).den
    ((2, 1), 2)
    """

    __slots__ = ("num", "den")

    def __new__(cls, coeffs=()):
        cs = [_coerce(c) for c in coeffs]
        d = lcm(*(c.denominator for c in cs))
        return _make([c.numerator * (d // c.denominator) for c in cs], d)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through _make, not the blocked __setattr__
        return _make, (list(self.num), self.den)

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return _make([])

    @classmethod
    def one(cls) -> "Poly":
        return _make([1])

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls((c,))

    @classmethod
    def x(cls) -> "Poly":
        return _make([0, 1])

    @classmethod
    def monomial(cls, c, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative exponent")
        return cls((0,) * k + (c,))

    # -- basic queries -----------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients as rationals, low to high."""
        return tuple(Rat(c, self.den) for c in self.num)

    @property
    def degree(self) -> int:
        return len(self.num) - 1

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def lc(self):
        """Leading coefficient; 0 for the zero polynomial."""
        return Rat(self.num[-1], self.den) if self.num else ZERO

    def coeff(self, k: int):
        """Coefficient of x^k (0 beyond the degree)."""
        if 0 <= k < len(self.num):
            return Rat(self.num[k], self.den)
        return ZERO

    # -- arithmetic ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self):
        return _poly(_neg((self.num, self.den)))

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        return _poly(_add((self.num, self.den), (other.num, other.den)))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        return _poly(_add((self.num, self.den), (other.num, other.den), True))

    def __rsub__(self, other):
        return Poly.constant(other) - self

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = _coerce(other)
            return _poly(_mul((self.num, self.den), ((c.numerator,), c.denominator)))
        return _poly(_mul((self.num, self.den), (other.num, other.den)))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return _poly(_pow((self.num, self.den), k))

    def __divmod__(self, other: "Poly"):
        """Division with remainder over Q by one integer pseudo-division.

        >>> [f.to_string() for f in divmod(Poly([1, 0, 1]), Poly([1, 2]))]
        ['1/2*x - 1/4', '5/4']
        """
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return Poly.zero(), self
        q, r = _pseudo_divmod(self.num, other.num)
        scale = self.den * other.num[-1] ** len(q)
        return _make([c * other.den for c in q], scale), _make(r, scale)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, value):
        """Evaluate by Horner on the numerators: at u/w the sum of
        num_k * u^k * w^(n-k), divided once by den * w^n at the end.
        Also composes when given a Poly."""
        if isinstance(value, Poly):
            acc = Poly.zero()
            for c in reversed(self.num):
                acc = acc * value + _make([c])
            return acc * Rat(1, self.den)
        v = rat(value)
        u, w, n = v.numerator, v.denominator, self.degree
        acc, w_e, e = 0, 1, 0  # w_e = w^e: a zero coefficient costs no power of w
        for k in range(n, -1, -1):
            acc *= u
            if self.num[k]:
                w_e, e = w_e * w ** (n - k - e), n - k
                acc += self.num[k] * w_e
        return Rat(acc, self.den * w_e * w ** max(n - e, 0))

    # -- calculus / normal forms ---------------------------------------

    def derivative(self) -> "Poly":
        return _make(_derivative(self.num), self.den)

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ValueError("zero polynomial has no monic form")
        if self.num[-1] == self.den:
            return self
        return _make(list(self.num), self.num[-1])

    def shift_argument(self, a) -> "Poly":
        """p(x + a), by synthetic division on integers: with a = u/v and
        n = deg p, C(w) = sum num_k * v^(n-k) * w^k satisfies
        v^n * p(x + u/v) = C(v*x + u) / den, and the Taylor shift of C
        by u is n rounds of synthetic division by w - u."""
        a = rat(a)
        u, v = a.numerator, a.denominator
        n = self.degree
        v_pows = [1]
        for _ in range(n):
            v_pows.append(v_pows[-1] * v)
        cs = taylor_shift([c * v_pows[n - k] for k, c in enumerate(self.num)], u)
        return _make([c * v_pows[k] for k, c in enumerate(cs)], self.den * v_pows[-1])

    def scale_argument(self, s) -> "Poly":
        """p(s * x): with s = u/w, num_k * u^k * w^(n-k) over den * w^n."""
        s = rat(s)
        u, w = s.numerator, s.denominator
        w_n = w ** max(self.degree, 0)
        out, u_k, w_k = [], 1, w_n
        for c in self.num:
            out.append(c * u_k * w_k)
            u_k *= u
            w_k //= w
        return _make(out, self.den * w_n)

    # -- formatting -----------------------------------------------------

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self):
        return self.to_string()

    def to_string(self, var: str = "x") -> str:
        """Canonical human/machine form, highest power first.

        >>> Poly([0, 0, 0, 0, -5, 4]).to_string()
        '4*x^5 - 5*x^4'
        """
        if self.is_zero:
            return "0"
        den, parts = self.den, []
        for k in range(self.degree, -1, -1):
            c = self.num[k]
            if not c:
                continue
            m = -c if c < 0 else c
            g = gcd(m, den)  # the coefficient's magnitude is (m/g) / (den/g)
            mag = str(m // g) if g == den else f"{m // g}/{den // g}"
            if k == 0:
                body = mag
            else:
                xp = var if k == 1 else f"{var}^{k}"
                body = xp if m == den else f"{mag}*{xp}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def taylor_shift(cs, u: int) -> list:
    """C(y + u) for integer coefficients C, low to high: deg C rounds of
    synthetic division by y - u."""
    cs, n = list(cs), len(cs) - 1
    if u:
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                cs[j] += u * cs[j + 1]
    return cs


def _make(num: list, den: int = 1) -> Poly:
    """The canonical Poly num/den for integer numerators and a nonzero
    integer denominator."""
    return _poly(_normal(num, den))


def _poly(value: tuple) -> Poly:
    """The Poly of a canonical value (num, den)."""
    poly = object.__new__(Poly)
    object.__setattr__(poly, "num", tuple(value[0]))
    object.__setattr__(poly, "den", value[1])
    return poly


# ---------------------------------------------------------------------------
# ring kernels on values (num, den), num[k] / den the coefficient of x^k:
# canonical as Poly stores them, num a list or tuple; the results are new
# canonical values with num a list
# ---------------------------------------------------------------------------


def _normal(num: list, den: int = 1) -> tuple:
    """The canonical value num/den for a list of integer numerators and a
    nonzero integer denominator: strips trailing zeros from num in place,
    makes den positive and divides out gcd(den, *num)."""
    while num and not num[-1]:
        num.pop()
    if den < 0:
        num, den = [-c for c in num], -den
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num, den = [c // g for c in num], den // g
    return num, den


def _neg(a: tuple) -> tuple:
    return [-c for c in a[0]], a[1]


def _add(a: tuple, b: tuple, negate: bool = False) -> tuple:
    """a + b, or a - b when negate."""
    (an, ad), (bn, bd) = a, b
    d = ad
    if bd != ad:  # align the denominators by their lcm
        d = lcm(ad, bd)
        an = [c * (d // ad) for c in an]
        bn = [c * (d // bd) for c in bn]
    out = list(an) + [0] * (len(bn) - len(an))
    if negate:
        for i, c in enumerate(bn):
            out[i] -= c
    else:
        for i, c in enumerate(bn):
            out[i] += c
    return _normal(out, d)


def _mul(a: tuple, b: tuple) -> tuple:
    (an, ad), (bn, bd) = a, b
    if not an or not bn:
        return [], 1
    if len(an) > len(bn):
        an, bn = bn, an
    if len(an) == 1:  # a scalar
        c = an[0]
        return _normal([c * x for x in bn], ad * bd)
    out = [0] * (len(an) + len(bn) - 1)
    for i, ai in enumerate(an):
        if ai:
            for j, bj in enumerate(bn):
                out[i + j] += ai * bj
    return _normal(out, ad * bd)


def _pow(base: tuple, e: int) -> tuple:
    """base^e for an integer e >= 0, with 0^0 = 1."""
    num, den = base
    k = len(num) - 1
    if not e:
        return [1], 1
    if k <= 0 or not any(num[:k]):  # zero, a constant or a monomial c * x^k
        return ([0] * (k * e) + [num[k] ** e], den**e) if num else ([], 1)
    result = [1], 1
    while e:
        if e & 1:
            result = _mul(result, base)
        e >>= 1
        if e:
            base = _mul(base, base)
    return result


# ---------------------------------------------------------------------------
# gcd / squarefree structure
# ---------------------------------------------------------------------------


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd: the primitive gcd over Z of the numerators of a and b,
    the last nonzero member of their subresultant remainder sequence,
    made monic once.

    >>> poly_gcd(Poly([-1, 0, 1]), Poly([2, -3, 1])).to_string()  # (x-1)(x+1), (x-1)(x-2)
    'x - 1'
    """
    if a.is_zero and b.is_zero:
        return Poly.zero()
    if a.is_zero or b.is_zero:
        return (b if a.is_zero else a).monic()
    g = _prs_gcd(a.num, b.num)
    return _make(g, g[-1])


def is_squarefree(p: Poly) -> bool:
    if p.is_zero:
        return False
    return poly_gcd(p, p.derivative()).degree == 0


class MultiplicityDecomposition(namedtuple("MultiplicityDecomposition", "content parts")):
    """content * prod(factor^multiplicity) == the decomposed polynomial,
    with ``parts`` a tuple of (factor, multiplicity): monic squarefree
    pairwise-coprime factors and strictly increasing multiplicities."""

    __slots__ = ()


def squarefree_decomposition(p: Poly) -> MultiplicityDecomposition:
    """Yun's algorithm over Q, run on the primitive integer multiple f
    of p (Yun, SYMSAC 1976; von zur Gathen & Gerhard, Modern Computer
    Algebra, ch. 14).

    Every gcd is taken primitive over Z, so by Gauss's lemma each
    quotient of an integer polynomial by it is integral: the divisions
    are exact over Z and checked.  Scaling a gcd by a unit scales both
    operands of the next step alike, so the classes come out as over Q,
    each made monic once.  Once one root is left, of multiplicity m, the
    loop's d is (m - i) b', so m is read off without one gcd per step
    up to it.

    >>> d = squarefree_decomposition(Poly([0, 0, -2, 0, 1]))  # x^4 - 2x^2
    >>> [(f.to_string(), k) for f, k in d.parts]
    [('x^2 - 2', 1), ('x', 2)]
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    content = p.lc
    if p.degree == 0:
        return MultiplicityDecomposition(content, ())
    f = _primitive(p.num)
    df = _derivative(f)
    g = _prs_gcd(f, df)
    if len(g) == 1:  # squarefree: spare the divisions by 1 and by f itself
        return MultiplicityDecomposition(content, ((p.monic(), 1),))
    parts = []
    b = _exact_quotient(f, g)
    c = _exact_quotient(df, g)
    i = 1
    while len(b) > 1:
        d, _ = _add((c, 1), (_derivative(b), 1), True)
        if len(b) == 2:  # one root left, of multiplicity m: d = (m - i) b'
            parts.append((_make(b, b[-1]), i + _exact_div(d[0], b[1]) if d else i))
            break
        a = _prs_gcd(b, d) if d else b  # gcd(b, 0) is the primitive b
        if len(a) > 1:
            parts.append((_make(a, a[-1]), i))
            b, c = _exact_quotient(b, a), _exact_quotient(d, a)
        else:
            c = d
        i += 1
    return MultiplicityDecomposition(content, tuple(parts))


# ---------------------------------------------------------------------------
# integer kernels (gcd and resultants over Z) and resultants over Q
# ---------------------------------------------------------------------------


def _exact_div(a: int, b: int) -> int:
    """a / b for a division the kernel proves exact; a remainder means
    the kernel is wrong, never the input."""
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("exact kernel division left a remainder")
    return q


def _primitive(cs: tuple) -> list:
    """The primitive part of nonzero integer coefficients (sign of the
    leading coefficient kept)."""
    g = gcd(*cs)
    return [_exact_div(c, g) for c in cs] if g != 1 else list(cs)


def _derivative(cs: list) -> list:
    return [k * cs[k] for k in range(1, len(cs))]


def _exact_quotient(a: list, b: list) -> list:
    """a / b for integer lists with b dividing a in Z[x]: each leading
    step divides by lc(b) exactly, and the remainder must vanish; either
    failing means the kernel is wrong, never the input."""
    r = list(a)
    lb, nb = b[-1], len(b) - 1
    q = [0] * max(len(a) - nb, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = _exact_div(r.pop(), lb)
        if c:
            for j in range(nb):
                r[k + j] -= c * b[j]
    if any(r):
        raise ArithmeticError("exact kernel division left a remainder")
    return q


def _prs_gcd(a: list, b: list) -> list:
    """The primitive gcd over Z of nonzero integer lists by the
    remainder sequence, [1] when they are coprime."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    if len(b) > 1:
        a, b, _, _ = _subresultant_prs(a, b)
    return [1] if b else _primitive(a)


# The largest prime below 2^15: residue products stay below 2^30, within
# one CPython digit, so Euclid modulo p runs on single-digit ints.  A
# small prime declines more often (it divides a leading coefficient or
# the resultant of a generic input with chance about 1/p), and a declined
# certificate costs only the exact route that follows anyway.
GCD_PRIME = 32749


def _rem_mod_p(a: list, b: list) -> list:
    """a mod b over GF(GCD_PRIME) for residue lists (low to high) with
    deg a >= deg b and a nonzero leading residue in b, trailing zeros
    stripped: the one remainder loop modulo p."""
    p = GCD_PRIME
    neg_inv, nb = p - pow(b[-1], -1, p), len(b) - 1
    r = list(a)
    for k in range(len(a) - len(b), -1, -1):
        c = r.pop() * neg_inv % p  # adding c * x^k * b cancels the popped term
        if c:
            for j in range(nb):
                r[k + j] = (r[k + j] + c * b[j]) % p
    while r and not r[-1]:
        r.pop()
    return r


def _euclid_mod_p(a: list, b: list) -> list:
    """The last nonzero remainder of Euclid over GF(GCD_PRIME), the gcd
    up to a unit, for residue lists with deg a >= deg b >= 0 and nonzero
    leading residues."""
    while len(b) > 1:
        r = _rem_mod_p(a, b)
        if not r:
            return b
        a, b = b, r
    return b


def _coprime_mod_p(a: list, b: list) -> bool:
    """True when gcd(a mod p, b mod p) = 1 over GF(GCD_PRIME) for nonzero
    integer lists; False when the prime divides a leading coefficient.
    Otherwise deg gcd(a mod p, b mod p) >= deg gcd(a, b) over Q, so True
    proves gcd(a, b) = 1 (Brown, JACM 18, 1971; von zur Gathen & Gerhard,
    Modern Computer Algebra, ch. 6)."""
    p = GCD_PRIME
    if not a[-1] % p or not b[-1] % p:
        return False
    if len(a) < len(b):
        a, b = b, a
    return len(_euclid_mod_p([c % p for c in a], [c % p for c in b])) == 1


def _few_roots_mod_p(f: Poly) -> bool:
    """True when f has a repeated root and at most two distinct roots
    modulo p = GCD_PRIME (deg f < p), False when p divides lc f: a probe,
    not a certificate.  f has deg f - deg gcd(f, f') distinct roots, and
    the gcd divides r = f mod f', so it has degree deg f - 1 exactly when
    r = 0, and deg f - 2 >= 1 exactly when r has that degree and divides
    f'.  Both remainders have a linear quotient, so each is one pass of
    ``_rem_mod_p``, O(deg f) in all.

    >>> _few_roots_mod_p(Poly([0, 0, -1, 1])), _few_roots_mod_p(Poly([0, 2, -3, 1]))
    (True, False)
    """
    p, n = GCD_PRIME, len(f.num) - 1
    a = [c % p for c in f.num]
    if n < 2 or not a[n]:
        return False
    da = [c % p for c in _derivative(a)]  # lc n * a[n] is a unit: n < p
    if not (r := _rem_mod_p(a, da)):
        return True
    return n >= 3 and len(r) == n - 1 and not _rem_mod_p(da, r)


def _two_root_parts(f: Poly):
    """``squarefree_decomposition(f).parts`` for f of degree d >= 1 with
    at most two distinct roots, None for every other f, without a gcd.

    f = c (x - alpha)^a (x - beta)^b exactly when g f' = h f for a monic
    quadratic g and h = d x + B: then g = (x - alpha)(x - beta), and
    conversely f'/f = h/g, whose partial fractions a/(x - alpha) +
    b/(x - beta) name the roots and multiplicities of f, as f'/f has a
    simple pole of residue k at each root of multiplicity k.  One root,
    (x - alpha) f' = d f, is tried first; its alpha is read off the top
    two numerators N of f.  Otherwise g = x^2 + A x + C and B solve the
    identity's coefficients at x^d, x^(d-1) and x^(d-2), linear in them
    over the top four numerators; their determinant, 2 d N_d N_(d-2) -
    (d - 1) N_(d-1)^2 = -N_d^2 a b (alpha - beta)^2, is nonzero on every
    f with two roots.  Each coefficient of either identity is checked as
    one integer relation, O(d) products in all.  Two rational roots
    (disc g a square) of unequal multiplicities a = h(alpha)/(alpha -
    beta) and b = d - a are two linear parts; equal ones, or conjugate
    roots, are the one part (g, d/2).

    >>> [(g.to_string(), k) for g, k in _two_root_parts(Poly([0, 0, -2, 1]))]  # x^2 (x - 2)
    [('x - 2', 1), ('x', 2)]
    >>> _two_root_parts(Poly([0, -1, 0, 1])) is None  # three roots
    True
    """
    num, d = f.num, len(f.num) - 1
    top, sub = num[-1], num[-2]
    if all(sub * (k + 1) * num[k + 1] == d * top * (d - k) * num[k] for k in range(d - 1)):
        return ((_make([sub, d * top], d * top), d),)  # x - alpha, alpha = -sub / (d top)
    n2, n3 = num[d - 2], num[d - 3] if d >= 3 else 0
    det = 2 * d * top * n2 - (d - 1) * sub * sub
    if not det:
        return None
    # g = x^2 + (ga x + gc) / den and h = d x + hb / den
    r1, r2 = 2 * top * n2 - sub * sub, 3 * top * n3 - sub * n2
    den = top * det
    ga, gc = (d - 1) * sub * r1 - d * top * r2, 2 * n2 * r1 - sub * r2
    hb = d * ga - sub * det
    ext = [0, *num, 0]  # ext[k + 1] = N_k, zero outside 0..d
    if any(  # den times the coefficient of x^k in g f' - h f
        (k - 1 - d) * den * ext[k] + (ga * k - hb) * ext[k + 1] + gc * (k + 1) * ext[k + 2]
        for k in range(d + 1)
    ):
        return None
    disc = ga * ga - 4 * gc * den  # den^2 disc g, nonzero as g has two roots
    s = isqrt(disc) if disc > 0 else -1
    if s * s != disc:  # conjugate roots, of equal multiplicity
        return ((_make([gc, ga, den], den), _exact_div(d, 2)),)
    # alpha, beta = (-ga +- s) / (2 den), and a = h(alpha) / (alpha - beta)
    a = _exact_div(d * (s - ga) + 2 * hb, 2 * s)
    if 2 * a == d:
        return ((_make([gc, ga, den], den), a),)
    alpha, beta = _make([ga - s, 2 * den], 2 * den), _make([ga + s, 2 * den], 2 * den)
    return ((alpha, a), (beta, d - a)) if 2 * a < d else ((beta, d - a), (alpha, a))


# Residue lists travel packed into one int, a 64-bit slot per residue,
# so one CPython multiplication forms a whole product.  A slot of a
# product sums at most min(len a, len b) terms below p^2 < 2^30, so no
# carry crosses a slot for fewer than 2^34 terms.
def _pack(cs: list) -> int:
    """Nonnegative ints below 2^64, low to high, one per 64-bit slot."""
    buf = bytearray(8 * len(cs))
    slots = memoryview(buf).cast("Q")
    for i, c in enumerate(cs):
        slots[i] = c
    return int.from_bytes(buf, sys.byteorder)


def _unpack(x: int, n: int) -> list:
    """The n 64-bit slots of x >= 0, low to high."""
    return memoryview(x.to_bytes(8 * n, sys.byteorder)).cast("Q").tolist()


def _mul_mod_p(a: list, b: list) -> list:
    """Product of two nonempty residue lists over GF(GCD_PRIME): one
    packed product."""
    p = GCD_PRIME
    return [c % p for c in _unpack(_pack(a) * _pack(b), len(a) + len(b) - 1)]


def _pseudo_divmod(a: list, b: list):
    """(q, r) with lc(b)^(deg a - deg b + 1) * a = q * b + r and deg r < deg b
    for integer lists (low to high), deg a >= deg b >= 0 (Cohen, GTM 138, Alg.
    3.1.2); the c popped at step k enters q as c * lc(b)^k, never rescaled."""
    r = list(a)
    lb, nb = b[-1], len(b) - 1
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = r.pop()
        q[k] = c * lb**k
        if lb != 1:
            r = [lb * x for x in r]
        if c:
            for j in range(nb):
                r[k + j] -= c * b[j]
    while r and not r[-1]:
        r.pop()
    return q, r


def _subresultant_prs(a: list, b: list):
    """Run the subresultant remainder sequence of integer polynomials,
    deg a >= deg b >= 1, until its next member has degree < 1
    (Cohen, GTM 138, Alg. 3.3.1 and 3.3.7).

    Returns (a, b, h, s): a is the last member of positive degree, b the
    next one ([] when a divides the previous member, a nonzero constant
    otherwise), h the running subresultant scale and s the sign of the
    resultant accumulated over the steps.
    """
    g = h = s = 1
    while len(b) > 1:
        delta = len(a) - len(b)
        if (len(a) - 1) & (len(b) - 1) & 1:
            s = -s
        _, r = _pseudo_divmod(a, b)
        scale = g * h**delta
        a, b = b, [_exact_div(c, scale) for c in r] if scale != 1 else r
        g = a[-1]
        if delta:
            h = _exact_div(g**delta, h ** (delta - 1))
    return a, b, h, s


def _int_resultant(a: list, b: list) -> int:
    """Resultant of two nonzero integer polynomials (Cohen, GTM 138,
    Alg. 3.3.7); Res(A, c) = c^deg A for constants c."""
    da, db = len(a) - 1, len(b) - 1
    if db == 0:
        return b[0] ** da
    if da == 0:
        return a[0] ** db
    ca, cb = gcd(*a), gcd(*b)
    scale = ca**db * cb**da
    a, b = [_exact_div(c, ca) for c in a], [_exact_div(c, cb) for c in b]
    sign = 1
    if da < db:
        a, b = b, a
        if da & db & 1:
            sign = -1
    a, b, h, s = _subresultant_prs(a, b)
    if not b:
        return 0
    d = len(a) - 1
    return sign * s * scale * _exact_div(b[0] ** d, h ** (d - 1))


def resultant(a: Poly, b: Poly):
    """Resultant over Q: the integer resultant of the numerators of a
    and b, divided once by den_a^deg b * den_b^deg a.

    >>> resultant(Poly([-1, 0, 1]), Poly([-2, 1])) == 3  # x^2 - 1 at x = 2
    True
    """
    if a.is_zero or b.is_zero:
        return ZERO
    return Rat(_int_resultant(a.num, b.num), a.den**b.degree * b.den**a.degree)


def _interpolate(values: list) -> list:
    """Coefficients of the polynomial U in Z[y] of degree <= n with
    U(k) = values[k], k = 0..n.  Newton forward differences give the
    k-th falling-factorial coefficient Delta^k U(0) / k!, an integer for
    U in Z[y], then Horner runs on the falling factorials
    y(y - 1)...(y - k + 1)."""
    newton, diffs, fact = [], list(values), 1
    for k in range(len(values)):
        fact *= k or 1
        newton.append(_exact_div(diffs[0], fact))
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    out = [newton.pop()]
    for k in range(len(newton) - 1, -1, -1):
        out = [0] + out  # out * (y - k) + newton[k]
        for i in range(len(out) - 1):
            out[i] -= k * out[i + 1]
        out[0] += newton[k]
    return out


def _residues(f: Poly) -> list:
    """The coefficients of f modulo GCD_PRIME, which must not divide f.den."""
    p = GCD_PRIME
    inv = pow(f.den, -1, p)
    out = [c * inv % p for c in f.num]
    while out and not out[-1]:
        out.pop()
    return out


def _value_image_mod_p(s: Poly, f: Poly):
    """U mod p for U(y) = prod (y - f(a)), a over the roots of the monic
    S = s, with p = GCD_PRIME: the residues, low to high, of the monic
    polynomial ``resultant_shift(s, f)`` returns, or None when p divides
    s.den or f.den, or deg S >= p.

    f is reduced mod S modulo p, to r.  A constant r gives (y - r)^n, n =
    deg S.  Otherwise U is the characteristic polynomial of
    multiplication by r on GF(p)[x]/(S), read from its power sums
    t_j = Tr(r^j), j = 1..n (Bostan, Flajolet, Salvy & Schost, J.
    Symbolic Comput. 41, 2006).  Newton's identities on S give the
    traces Tr(x^i), i < n, with no division.  The columns x^i r mod S of
    the multiplication are packed into one int each, each the one before
    shifted up a slot plus one packed product, so r^j mod S, the sum of
    the columns weighted by the residues of r^(j-1) mod S, is n integer
    products and one unpacking, and t_j is its dot product with the
    traces.  Newton's identities on t_1..t_n then give U, dividing
    by k <= n < p.  Since S is monic and p divides no denominator, every
    coefficient of U is a p-adic integer, so the result is U reduced
    mod p, of full degree: a nonzero discriminant or resultant of such
    images modulo p is nonzero over Q as well.

    >>> _value_image_mod_p(Poly([-1, 0, 1]), Poly([0, 0, 1]))  # y^2 - 2y + 1
    [1, 32747, 1]
    """
    p, n = GCD_PRIME, s.degree
    if not s.den % p or not f.den % p or n >= p:
        return None
    s_bar, r = _residues(s), _residues(f)
    if len(r) >= len(s_bar):
        r = _rem_mod_p(r, s_bar)
    if len(r) <= 1:  # every f(a) is the constant r: (y - r)^n
        return reduce(_mul_mod_p, [[-r[0] % p if r else 0, 1]] * n)
    tau = [n]  # tau[i] = Tr(x^i), the i-th power sum of the roots of S
    for k in range(1, n):
        tau.append(-(k * s_bar[n - k] + sum(map(mul, s_bar[n - k + 1 : n], tau[1:k]))) % p)
    # cols[i] = x^i r mod S, packed, its slots congruent to the residues:
    # x * col is col shifted up a slot, plus its top slot mod p times
    # x^n mod S = x^n - S.  A step adds below p^2 to a slot, so t steps
    # after a reduction a slot is below (t + 1) p^2, and a slot of
    # sum(power_i * cols[i]) below n (t + 1) p^3 < 2^64 while
    # n (t + 1) <= 525180: no carry crosses a slot.  That holds for t < n
    # up to n = 724; reducing every 15 steps keeps t < 15 for every n < p.
    neg_s, top, mask = _pack([-c % p for c in s_bar[:-1]]), 64 * (n - 1), (1 << 64 * n) - 1
    cols = [_pack(r)]
    for i in range(1, n):
        col = ((cols[-1] << 64) & mask) + (cols[-1] >> top) % p * neg_s
        cols.append(col if i % 15 else _pack([c % p for c in _unpack(col, n)]))
    power, traces = r, [sum(map(mul, r, tau)) % p]
    for _ in range(n - 1):
        power = [c % p for c in _unpack(sum(map(mul, power, cols)), n)]
        traces.append(sum(map(mul, power, tau)) % p)
    u = [1]  # u[k] is the coefficient of y^(n - k)
    for k in range(1, n + 1):
        u.append(-sum(map(mul, u[::-1], traces)) * pow(k, -1, p) % p)
    return u[::-1]


def _sylvester_resultant_shift(s: Poly, p: Poly) -> Poly:
    """Independent route: Res_x(S(x), y - P(x)) as a determinant over
    Q[y], fraction-free (Bareiss) elimination."""
    ds, dp = s.degree, max(p.degree, 0)  # P = 0 gives the row y
    size = ds + dp
    # rows of S coefficients (entries constant in y), then rows of y - P(x)
    m = [[Poly.zero() for _ in range(size)] for _ in range(size)]
    for r in range(dp):
        for k in range(ds + 1):
            m[r][r + k] = Poly.constant(s.coeff(ds - k))
    for r in range(ds):
        for k in range(dp + 1):
            c = -p.coeff(dp - k)
            m[dp + r][r + k] = Poly((c, 1)) if k == dp else Poly.constant(c)
    sign = 1
    prev = Poly.one()
    for k in range(size - 1):
        if m[k][k].is_zero:
            for i in range(k + 1, size):
                if not m[i][k].is_zero:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Poly.zero()
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                q, r = divmod(num, prev)
                if not r.is_zero:
                    raise ArithmeticError("Bareiss division left a remainder")
                m[i][j] = q
            m[i][k] = Poly.zero()
        prev = m[k][k]
    det = m[size - 1][size - 1]
    return det if sign == 1 else -det


def resultant_shift(s: Poly, p: Poly) -> Poly:
    """Monic polynomial whose roots are P(a), a running over the roots
    of S with multiplicity; degree equals deg S.

    S must be monic of degree >= 1.  A linear S costs one evaluation
    of P at its root.  Otherwise P is first reduced mod S, which keeps
    every P(a).  With S = s/sigma and P mod S = r/rho for integer
    polynomials s and r, U(y) = Res_x(s, rho*y - r) =
    sigma^deg r * rho^deg S * prod (y - P(a)) lies in Z[y]; it is
    evaluated by integer resultants at y = 0..deg S, interpolated in
    integers and divided once by sigma^deg r * rho^deg S.  With
    ``DEBUG_CHECKS`` on (SEPCURVE_DEBUG_CHECKS set when the package is
    first imported) an independent determinant route is run and compared.

    >>> resultant_shift(Poly([-1, 0, 1]), Poly([0, 0, 1])).to_string("y")
    'y^2 - 2*y + 1'
    """
    if s.is_zero or s.degree < 1:
        raise ValueError("first argument must be nonconstant")
    if s.num[-1] != s.den:
        raise ValueError("first argument must be monic")
    n = s.degree
    if n == 1:  # U = y - P(a) at the one root a of S: Horner costs less than a division
        v = p(Rat(-s.num[0], s.den))
        out = _make([-v.numerator, v.denominator], v.denominator)
    elif (r := p % s).degree < 1:  # every P(a) is the constant r
        out = Poly((-r.coeff(0), 1)) ** n
    else:
        rho, neg = r.den, [-c for c in r.num]
        u = _interpolate(
            [_int_resultant(s.num, [rho * k + neg[0]] + neg[1:]) for k in range(n + 1)]
        )
        out = _make(u, s.den**r.degree * rho**n)
    if out.degree != n or out.num[-1] != out.den:
        raise ArithmeticError("interpolated image polynomial is malformed")
    if DEBUG_CHECKS:
        alt = _sylvester_resultant_shift(s, p)
        if alt != out:
            raise ArithmeticError(
                "resultant_shift routes disagree: "
                f"interpolation={out!r} determinant={alt!r}"
            )
    return out
