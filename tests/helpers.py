"""Builders shared across the test modules, and the reference routes
the package's faster kernels are compared against."""

import importlib
import sys
from collections import Counter
from operator import mul

from sepcurve import critical, instances, numoracle, rpoly
from sepcurve.classify import Outcome, Verdict
from sepcurve.critical import PairMatching, PolynomialPair
from sepcurve.linfactor import LinearFactorWitness
from sepcurve.parsepoly import MAX_DEGREE, MAX_POWER_BITS, ParseError
from sepcurve.rationals import ONE, ZERO, Rat, rat
from sepcurve.rpoly import MultiplicityDecomposition, Poly, poly_gcd, resultant_shift


def poly_of(*coeffs):
    """Poly from ascending integer/rational coefficients."""
    return Poly([Rat(c) for c in coeffs])


def squarefree_part(p):
    """Monic product of the distinct irreducible factors of p."""
    return (p // poly_gcd(p, p.derivative())).monic()


def make_matching(matched, unm_p=(), unm_q=(), deg=None):
    """Synthetic PairMatching from matched (p, q) points plus unmatched
    multiplicity tuples; degrees default to the mass identity."""
    matched = tuple(sorted(matched, reverse=True))
    unm_p = tuple(sorted(unm_p, reverse=True))
    unm_q = tuple(sorted(unm_q, reverse=True))
    n = 1 + sum(p for p, _ in matched) + sum(unm_p)
    m = 1 + sum(q for _, q in matched) + sum(unm_q)
    if deg is not None:
        n, m = deg
    return PairMatching(
        deg_p=n,
        deg_q=m,
        matched_points=matched,
        unmatched_p_points=unm_p,
        unmatched_q_points=unm_q,
        p_multiset=tuple(sorted([p for p, _ in matched] + list(unm_p), reverse=True)),
        q_multiset=tuple(sorted([q for _, q in matched] + list(unm_q), reverse=True)),
    )


def hyperbolic_verdict(rule, matching):
    """Synthetic Hyperbolic verdict for exercising the form emitters."""
    return Verdict(outcome=Outcome.HYPERBOLIC, rule=rule, pair=None, matching=matching)


def random_perturbed_pair(rng):
    """Like instances.random_linear_factor_pair but with a nonzero
    constant added to the Q side, which destroys the factor."""
    pair, _ = instances.random_linear_factor_pair(rng)
    c = instances._nonzero_small(rng, span=5)
    p, q = (pair.q, pair.p) if pair.swapped else (pair.p, pair.q)
    return PolynomialPair(p, q + c)


def reference_gcd(a, b):
    """Monic gcd by Euclid over Q, each remainder made monic: the
    reference the integer kernel is compared against."""
    if a.is_zero and b.is_zero:
        return Poly.zero()
    while not b.is_zero:
        a, b = b, (a % b)
        if not b.is_zero:
            b = b.monic()
    return a.monic()


def reference_resultant(a, b):
    """Resultant by the Euclidean remainder sequence over Q, with
    Res(A, B) = (-1)^(deg A * deg B) * lc(B)^(deg A - deg R) * Res(B, R)
    for R = A mod B and Res(A, c) = c^deg A: the reference the integer
    kernel is compared against."""
    if a.is_zero or b.is_zero:
        return ZERO
    acc = ONE
    while True:
        if b.degree == 0:
            return acc * b.lc**a.degree
        if a.degree == 0:
            return acc * a.lc**b.degree
        r = a % b
        if r.is_zero:
            return ZERO
        if (a.degree * b.degree) % 2:
            acc = -acc
        acc *= b.lc ** (a.degree - r.degree)
        a, b = b, r


def _resultant_mod_p(a, b, p):
    """Res(a, b) mod p by Euclid over GF(p) on residue lists with
    deg a >= deg b >= 0 and nonzero leading residues, using
    Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, r) for
    r = a mod b, and Res(a, c) = c^deg a for a constant c."""
    res = 1
    while len(b) > 1:
        r = rpoly._rem_mod_p(a, b)
        if not r:
            return 0
        if (len(a) - 1) & (len(b) - 1) & 1:
            res = -res
        res = res * pow(b[-1], len(a) - len(r), p) % p
        a, b = b, r
    return res * pow(b[0], len(a) - 1, p) % p


def reference_value_image_mod_p(s, f):
    """Value image mod p = rpoly.GCD_PRIME by evaluation and
    interpolation: r = f mod S over GF(p), U(k) = Res(S, k - r) mod p by
    Euclid at k = 0..n - 1, n = deg S, and Newton interpolation modulo p
    of U(k) - k^n, since U is monic.  None on the kernel's declines: the
    reference ``rpoly._value_image_mod_p`` is compared against."""
    p, n = rpoly.GCD_PRIME, s.degree
    if not s.den % p or not f.den % p or n >= p:
        return None
    s_bar, r = rpoly._residues(s), rpoly._residues(f)
    if len(r) >= len(s_bar):
        r = rpoly._rem_mod_p(r, s_bar)
    neg_r = [-c % p for c in r] or [0]
    if len(neg_r) == 1:  # every f(a) is the constant r: (y - r)^n
        out = [1]
        for _ in range(n):
            out = [(a + neg_r[0] * b) % p for a, b in zip([0] + out, out + [0])]
        return out
    values = [
        (_resultant_mod_p(s_bar, [(k + neg_r[0]) % p] + neg_r[1:], p) - pow(k, n, p)) % p
        for k in range(n)
    ]
    # Newton forward differences: the k-th falling-factorial coefficient
    newton, diffs, fact = [], values, 1
    for k in range(n):
        fact *= k or 1
        newton.append(diffs[0] * pow(fact, -1, p) % p)
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    out = [newton.pop()]
    for k in range(len(newton) - 1, -1, -1):
        out = [0] + out  # out * (y - k) + newton[k]
        for i in range(len(out) - 1):
            out[i] -= k * out[i + 1]
        out[0] += newton[k]
    return [c % p for c in out] + [1]


def columnwise_value_image_mod_p(s, f):
    """The power-sum value image with each column x^i r mod S built
    residue by residue, every residue reduced mod p, and packed anew:
    the plain column step that the shifted, lazily reduced columns of
    ``rpoly._value_image_mod_p`` are compared against.  Its cost is the
    kernel's order, so it reaches the parser's degree cap, where the
    O(n^3) interpolation of ``reference_value_image_mod_p`` is too slow."""
    p, n = rpoly.GCD_PRIME, s.degree
    if not s.den % p or not f.den % p or n >= p:
        return None
    s_bar, r = rpoly._residues(s), rpoly._residues(f)
    if len(r) >= len(s_bar):
        r = rpoly._rem_mod_p(r, s_bar)
    if len(r) <= 1:
        return reference_value_image_mod_p(s, f)
    tau = [n]
    for k in range(1, n):
        tau.append(-(k * s_bar[n - k] + sum(map(mul, s_bar[n - k + 1 : n], tau[1:k]))) % p)
    neg_s, col = [-c % p for c in s_bar[:-1]], r + [0] * (n - len(r))
    cols = [rpoly._pack(col)]
    for _ in range(n - 1):  # x * col mod S: col shifted up, plus its top times x^n mod S
        col = [(col[-1] * c + lower) % p for c, lower in zip(neg_s, [0] + col[:-1])]
        cols.append(rpoly._pack(col))
    # a slot of sum(power_i * cols[i]) sums n terms below p^2: below p^3 < 2^64
    power, traces = r, [sum(map(mul, r, tau)) % p]
    for _ in range(n - 1):
        power = [c % p for c in rpoly._unpack(sum(map(mul, power, cols)), n)]
        traces.append(sum(map(mul, power, tau)) % p)
    u = [1]
    for k in range(1, n + 1):
        u.append(-sum(map(mul, u[::-1], traces)) * pow(k, -1, p) % p)
    return u[::-1]


def _mul_x_polys(a, b, modulus):
    """Multiply two polynomials in x whose coefficients are residues
    mod ``modulus`` (lists indexed by x-power)."""
    out = [Poly.zero()] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai.is_zero:
            continue
        for j, bj in enumerate(b):
            if bj.is_zero:
                continue
            out[i + j] = (out[i + j] + ai * bj) % modulus
    return out


def _difference_coefficients(pair, modulus):
    """x-coefficients of P(x) - Q(z*x + t(z)) as residues mod
    ``modulus``, together with (t numerator, t denominator)."""
    p, q, n = pair.p, pair.q, pair.n
    shift_num = (
        Poly.constant(p.coeff(n - 1)) - Poly.monomial(q.coeff(n - 1), n - 1)
    ) * Poly.x()
    shift_den = rat(n) * p.lc
    t0 = (shift_num % modulus) * (ONE / shift_den)
    # Horner for Q(z*x + t) over (Q[z]/modulus)[x]
    subst = [t0 % modulus, Poly.x() % modulus]
    acc = [Poly.zero()]
    for c in reversed(q.coeffs):
        acc = _mul_x_polys(acc, subst, modulus)
        acc[0] = (acc[0] + Poly.constant(c)) % modulus
    diff = []
    for k in range(n + 1):
        composed = acc[k] if k < len(acc) else Poly.zero()
        diff.append((Poly.constant(p.coeff(k)) - composed) % modulus)
    return diff, shift_num, shift_den


def reference_linear_factor(pair):
    """Linear-factor witness by the quotient-ring search: substitute
    y = z*x + t(z) in Q[z]/(z^n - lc P/lc Q), take the gcd of the
    modulus with every x-coefficient of the difference, and re-verify
    in Q[z]/(g): the reference the centred search is compared against."""
    if pair.n != pair.m:
        return None
    n = pair.n
    modulus = Poly.monomial(1, n) - Poly.constant(pair.p.lc / pair.q.lc)

    diff, shift_num, shift_den = _difference_coefficients(pair, modulus)
    assert diff[n].is_zero and diff[n - 1].is_zero, "top coefficients must cancel"

    g = modulus
    for k in range(n - 2, -1, -1):
        g = poly_gcd(g, diff[k])
        if g.degree == 0:
            return None

    rediff, _, _ = _difference_coefficients(pair, g)
    if any(not d.is_zero for d in rediff):
        return None

    return LinearFactorWitness(g, shift_num % g, shift_den)


def shift_for_scale(w, s):
    """t for a rational scale s of the witness w (s must be a root of
    its scale_minpoly)."""
    if w.scale_minpoly(s) != 0:
        raise ValueError(f"{s} is not a root of the scale polynomial")
    return w.shift_numerator(s) / w.shift_denominator


# ---------------------------------------------------------------------------
# counting wrappers: how often the package's exact kernels run
# ---------------------------------------------------------------------------

# the kernels the count budgets read; match_pairs is the exact route of a
# pair's matching
COUNTED = (
    "resultant_shift",
    "poly_gcd",
    "squarefree_decomposition",
    "_coprime_mod_p",
    "find_linear_factor",
    "match_pairs",
)


def count_calls(monkeypatch, names=COUNTED):
    """A Counter of the calls of the package functions with these names
    until the test ends: every ``sepcurve`` module that binds one gets a
    counting wrapper, so calls through ``from ... import`` names count
    too.  The modules the CLI imports lazily are imported first, so none
    of them binds a wrapper that outlives the test."""
    for lazy in ("cli", "geometry", "instances", "numoracle", "oneforms"):
        importlib.import_module(f"sepcurve.{lazy}")
    counts = Counter()

    def counting(name, real):
        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return counted

    for module in [m for key, m in sys.modules.items() if key.startswith("sepcurve.")]:
        for name in names:
            if callable(real := getattr(module, name, None)):
                monkeypatch.setattr(module, name, counting(name, real))
    return counts


# ---------------------------------------------------------------------------
# reference value disks: the oracles' former mpf kernels, at the working
# precision mpmath is set to; numoracle's integer kernels are compared
# against them
# ---------------------------------------------------------------------------


def to_mpf(x):
    import mpmath
    return mpmath.mpf(int(x.numerator)) / mpmath.mpf(int(x.denominator))


def exact_mpf(x):
    """The mpf of a dyadic Fraction, exactly, at any working precision;
    an mpf as it is."""
    import mpmath
    if not isinstance(x, Rat):
        return x
    den = x.denominator
    if den & (den - 1):
        raise ValueError(f"{x} is not dyadic")
    return mpmath.ldexp(x.numerator, 1 - den.bit_length())


def to_mpc(disk):
    """The centre of a ComplexApprox disk as an exact mpc, for the
    dyadic Fraction fields of complex_roots or for mpf fields."""
    import mpmath
    return mpmath.mpc(exact_mpf(disk.real), exact_mpf(disk.imag))


def reference_horner(coeffs, z):
    import mpmath
    acc = mpmath.mpc(0)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def reference_value_disk(coeffs, root):
    """Disk containing p(z) for every z in the root disk, up to
    rounding, for the p with mpf coefficients ``coeffs`` (low to high)."""
    import mpmath
    z = to_mpc(root)
    center = reference_horner(coeffs, z)
    az, r = abs(z), exact_mpf(root.radius)
    # |p(z+e)-p(z)| <= sum |a_k| ((|z|+r)^k - |z|^k) for |e| <= r
    drift = mpmath.mpf(0)
    for k, c in enumerate(coeffs):
        if k and c:
            drift += abs(c) * ((az + r) ** k - az**k)
    slack = (abs(center) + drift + 1) * mpmath.mpf(2) ** (-(mpmath.mp.prec - 8))
    return numoracle.ComplexApprox(real=center.real, imag=center.imag, radius=drift + slack)


def reference_cluster_indices(disks):
    """Overlap chains of ComplexApprox disks, compared by an mpf abs()."""
    parent = list(range(len(disks)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(disks)):
        for j in range(i + 1, len(disks)):
            di, dj = disks[i], disks[j]
            if abs(to_mpc(di) - to_mpc(dj)) <= di.radius + dj.radius:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(len(disks)):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda g: (-len(g), g))


def reference_correction(coeffs, zs, i, frac):
    """Weierstrass correction p(z_i) / prod_(j != i) (z_i - z_j) at
    scale 2^-frac, or None when z_i coincides with another iterate, with
    the product's floating-form mantissa kept to frac + 64 bits whatever
    the residual: the route ``numoracle._correction`` is compared
    against."""
    zr, zi = zs[i]
    top = frac + numoracle._GUARD
    dr, di, e = 1, 0, 0
    for j, (ur, ui) in enumerate(zs):
        if j != i:
            ur, ui = zr - ur, zi - ui
            dr, di = dr * ur - di * ui, dr * ui + di * ur
            shift = max(0, max(abs(dr), abs(di)).bit_length() - top)
            dr, di, e = dr >> shift, di >> shift, e + shift - frac
    norm = dr * dr + di * di
    if not norm:
        return None
    vr, vi = numoracle._horner(coeffs, zr, zi, frac)
    nr, ni = vr * dr + vi * di, vi * dr - vr * di
    if e >= 0:
        norm <<= e
    else:
        nr, ni = nr << -e, ni << -e
    return nr // norm, ni // norm


def check_resultant_product(s, p, ys=None, precision_bits=numoracle.DEFAULT_PRECISION):
    """Sample check of resultant_shift(s, p) == prod (y - p(root of s)).

    Evaluates both sides at rational sample points; the numeric side
    carries interval bounds propagated through the product, and the
    check passes only when the exact value sits inside them at every
    sample.
    """
    import mpmath
    if ys is None:
        ys = [Rat(2), Rat(-1), Rat(1, 2), Rat(3), Rat(-2, 3), Rat(5), Rat(-5), Rat(7, 2)]
    shifted = resultant_shift(s, p)
    with mpmath.workprec(precision_bits + numoracle._GUARD):
        coeffs = [to_mpf(c) for c in p.coeffs]
        value_disks = [
            reference_value_disk(coeffs, root)
            for root in numoracle.complex_roots(s, precision_bits)
        ]
        for y in ys:
            exact = to_mpf(shifted(y))
            ym = to_mpf(y)
            center = mpmath.mpc(1)
            hi, lo = mpmath.mpf(1), mpmath.mpf(1)
            for d in value_disks:
                f = ym - to_mpc(d)
                center *= f
                hi *= abs(f) + d.radius
                lo *= abs(f)
            slack = (hi + abs(exact) + 1) * mpmath.mpf(2) ** (-(precision_bits // 2))
            if abs(exact - center) > hi - lo + slack:
                return False
    return True


# ---------------------------------------------------------------------------
# reference parser: recursive descent over characters, terms collected as a
# dict from exponent to Fraction; parsepoly.parse_poly is compared against it
# ---------------------------------------------------------------------------


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


def reference_parse_poly(text: str) -> Poly:
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


def terms_of(p: Poly) -> dict:
    """The coefficients of p as the reference parser's terms: exponent
    to Fraction, zeros left out."""
    return {k: Rat(c, p.den) for k, c in enumerate(p.num) if c}


def reference_ring(a: dict, b: dict, k: int) -> dict:
    """a + b, a - b, -a, a * b and a^k on terms, keyed by operator, one
    Fraction per coefficient: the reference rpoly's ring kernels are
    compared against.  The power is k products, 1 for k = 0."""
    power = {0: ONE}
    for _ in range(k):
        power = _mul(power, a)
    return {"+": _add(a, b), "-": _add(a, _neg(b)), "neg": _neg(a), "*": _mul(a, b), "**": power}


def reference_to_string(p, var="x"):
    """Poly.to_string through one Fraction per coefficient: the
    reference the numerator route is compared against."""
    if p.is_zero:
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coeff(k)
        if c == 0:
            continue
        mag = c if c > 0 else -c
        if k == 0:
            body = str(mag)
        else:
            xp = var if k == 1 else f"{var}^{k}"
            body = xp if mag == 1 else f"{mag}*{xp}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def reassemble(dec):
    """content * prod(factor^multiplicity) of a MultiplicityDecomposition."""
    out = Poly.constant(dec.content)
    for f, k in dec.parts:
        out = out * f**k
    return out


def reference_squarefree_decomposition(p):
    """Yun's algorithm over Q on Poly objects, every gcd through
    poly_gcd: the reference the integer-list route is compared against."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    content = p.lc
    if p.degree == 0:
        return MultiplicityDecomposition(content, ())
    p = p.monic()
    g = poly_gcd(p, p.derivative())
    if g.degree == 0:  # squarefree: spare the divisions by 1 and by p itself
        return MultiplicityDecomposition(content, ((p, 1),))
    parts = []
    b = p // g
    d = (p.derivative() // g) - b.derivative()
    i = 1
    while b.degree > 0:
        a = poly_gcd(b, d)
        if a.degree > 0:
            parts.append((a, i))
        b = b // a
        c = d // a
        d = c - b.derivative()
        i += 1
    return MultiplicityDecomposition(content, tuple(parts))


def yun_first_analyze(p):
    """critical.analyze with the classes always from Yun's decomposition
    of P', each certified by its own value image: the route the
    one-class certificate of a generic side is compared against."""
    parts = rpoly.squarefree_decomposition(p.derivative()).parts
    classes = tuple(critical.CriticalClass(f, k) for f, k in parts)
    return critical.CriticalStructure(p, classes, critical._certified_images(p, classes))
