"""Exact bivariate polynomials with arbitrary-precision rational
coefficients.

Terms are stored sparsely as {(x-exponent, y-exponent): coefficient} with
no zero coefficients.  An integral coefficient is a plain int and only a
true fraction is a Fraction, so a polynomial with integer coefficients
takes no Fraction arithmetic; since Fraction(n) == n, hash(Fraction(n)) ==
hash(n) and str(Fraction(n)) == str(n), the two spellings of one
polynomial compare, hash and print alike.

The polynomial ring R = k[x,y] acts on its dual E = k[X,Y] by
differentiation (apolarity): x^i y^j sends X^u Y^v to
u(u-1)...(u+1-i) * v(v-1)...(v+1-j) * X^(u-i) Y^(v-j), zero when an
exponent is insufficient.

For a form F = sum c_m X^(j-m) Y^m of degree j, every contraction of F is
read off one integer vector: x^(j-m) y^m o F = c_m (j-m)! m!, and
`divided_power_vector` returns these j+1 numbers as coprime integers.

`dual_data` is the one reader of a dual generator F: it checks F once and
keeps on F what one fraction-free Berlekamp-Massey pass over its
divided-power vector gives: d, the rank of its middle catalecticant, and
both generators of Ann(F).  `d_sequence` reads, off one such pass per
linear form L, the middle catalecticant rank of every L^n o F, and with it
every Hessian rank at L: it checks F and L, and its reader `_d_sequence`,
which hessians.hessian_rank_at calls once it has checked both itself,
reads the pass.  Both rest on one fact: the middle catalecticant of a form
is, up to row scales, the Hankel matrix of its vector, and the middle
Hankel rank of a sequence of length N and linear complexity L is
min(L, N + 1 - L) (Massey, IEEE Trans. Inform. Theory 1969; Heinig-Rost
1984).  `catalecticant` builds a catalecticant as integer Hankel rows.
`_direction` is the one reader of a point, or of the direction of a
linear form: d_sequence, hessians.hessian_rank_at and
algebra.ArtinAlgebra._diagram all scale theirs to coprime integers
through it, and it reads any point that is not two ints with
errors._rationals.  A BivariatePoly reads its coefficients by the same
rule, and its exponents with errors._integers.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction

from .errors import BudgetExceeded, ParseError, ZeroForm, ZeroInput, _integers, _rational, _rationals, _Value
from .linalg import primitive

__all__ = [
    "BivariatePoly",
    "catalecticant",
    "contract",
    "d_sequence",
    "divided_power_vector",
    "dual_data",
    "falling_factorial",
    "parse_poly",
]

# Largest generator degree that algebra.quotient accepts, checked before any
# elimination; dual_data accepts a dual generator of degree j only when
# j + 1 <= MAX_DEGREE, since Ann(L^j) has a generator of degree j + 1.  At
# the cap, on a shared 2-core host (Python 3.11), `jtlab jordan` takes about
# 0.4 s on the dual generator X^24*Y^25 + X^49 + 3/2*Y^49, 1 s on a dense
# one of degree 49 (45 of its 50 coefficients nonzero) and 1 s on the ideal
# (x^50, y^50); with the cap lifted, (x^100, y^100) takes about 10 s.
MAX_DEGREE = 50


class BivariatePoly(_Value):
    """A polynomial in two variables over the rationals.

    Each coefficient is stored as an int when it is integral and as a
    Fraction otherwise: an int is kept as it is, and anything else is read
    by errors._rational, exactly through Fraction, and stored as its
    numerator when its denominator is 1; a bool, NaN, an infinity or None
    raises ParseError.  Each exponent pair that is not two ints is read by
    errors._integers, so 2.5 or "2" raises ParseError instead of being
    truncated or parsed.  Arithmetic results pass through the same
    constructor, so they are normalized the same way.

    An immutable value on errors._Value, whose one field is terms.  Its
    hash is computed on first use and kept in the memo slot _hash: this is
    the one class that defines its own __hash__, since a dict does not
    hash, and it hashes the frozenset of the terms' items.  dual_data keeps
    what it reads off a dual generator in the memo slot _dual, and creates
    the per-direction store of d_sequence in the memo slot _d_sequences.
    No memo is compared, copied or pickled: a copy or a pickled twin
    computes the same values again.
    """

    __slots__ = ("terms", "_hash", "_dual", "_d_sequences")

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for (a, b), c in dict(terms).items():
                c = c if type(c) is int else _rational(c, "a coefficient is a rational number")
                if not type(a) is type(b) is int:
                    a, b = _integers((a, b), "exponents are integers")
                if c:
                    clean[(a, b)] = c
        object.__setattr__(self, "terms", clean)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def monomial(cls, a, b, coeff=1):
        """coeff * x^a * y^b; a and b are read by errors._integers before
        they key a term, so an unhashable one raises ParseError too."""
        return cls({_integers((a, b), "exponents are integers"): coeff})

    @classmethod
    def linear(cls, a, b):
        """The linear form a*x + b*y."""
        return cls({(1, 0): a, (0, 1): b})

    # -- structure --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max((a + b for a, b in self.terms), default=-1)

    def is_homogeneous(self):
        degs = {a + b for a, b in self.terms}
        return len(degs) <= 1

    def homogeneous_degree(self):
        if self.is_zero():
            raise ZeroInput("zero polynomial has no homogeneous degree")
        if not self.is_homogeneous():
            raise ParseError(f"{self} is not homogeneous")
        return self.degree()

    def coefficient(self, a, b):
        return self.terms.get((a, b), 0)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return BivariatePoly(out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return BivariatePoly({key: -c for key, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, BivariatePoly):
            out = {}
            for (a1, b1), c1 in self.terms.items():
                for (a2, b2), c2 in other.terms.items():
                    key = (a1 + a2, b1 + b2)
                    out[key] = out.get(key, 0) + c1 * c2
            return BivariatePoly(out)
        if type(other) is not int:
            other = Fraction(other)
        return BivariatePoly({key: c * other for key, c in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = BivariatePoly.monomial(0, 0)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            value = hash(frozenset(self.terms.items()))
            object.__setattr__(self, "_hash", value)
            return value

    # -- substitution ------------------------------------------------------

    def substitute(self, px, py):
        """Evaluate at x = px, y = py for polynomial arguments."""
        out = BivariatePoly.zero()
        powers_x = {0: BivariatePoly.monomial(0, 0)}
        powers_y = {0: BivariatePoly.monomial(0, 0)}

        def power(cache, base, n):
            if n not in cache:
                cache[n] = power(cache, base, n - 1) * base
            return cache[n]

        for (a, b), c in self.terms.items():
            out = out + c * (power(powers_x, px, a) * power(powers_y, py, b))
        return out

    # -- printing ----------------------------------------------------------

    def sorted_terms(self):
        """Terms ordered degree-descending in y then x."""
        return sorted(self.terms.items(), key=lambda t: (-t[0][1], -t[0][0]))

    def text(self, variables=("x", "y")):
        if self.is_zero():
            return "0"
        vx, vy = variables
        pieces = []
        for (a, b), c in self.sorted_terms():
            factors = []
            if a:
                factors.append(vx if a == 1 else f"{vx}^{a}")
            if b:
                factors.append(vy if b == 1 else f"{vy}^{b}")
            mag = abs(c)
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            term = "*".join(factors)
            if not pieces:
                pieces.append(term if c > 0 else f"-{term}")
            else:
                pieces.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(pieces)

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"BivariatePoly({self.text()!r})"


def falling_factorial(u, i):
    """u (u-1) ... (u+1-i); equals 1 when i = 0."""
    out = 1
    for t in range(i):
        out *= u - t
    return out


def contract(f, F):
    """Apolarity action of f on F by differentiation, extended bilinearly."""
    out = {}
    for (i, j), c in f.terms.items():
        for (u, v), C in F.terms.items():
            if u < i or v < j:
                continue
            key = (u - i, v - j)
            coeff = c * C * falling_factorial(u, i) * falling_factorial(v, j)
            out[key] = out.get(key, 0) + coeff
    return BivariatePoly(out)


def divided_power_vector(F):
    """Coprime integers g_0, ..., g_j proportional to c_m (j-m)! m! for
    F = sum c_m X^(j-m) Y^m: the coefficients of F in the divided-power
    basis, and the values x^(j-m) y^m o F up to one common factor.

    F's denominators are cleared once, by their lcm, scale, so every
    product is of ints: c_m * scale * (j-m)! m! is numerator * (scale //
    denominator) * (j-m)! m!.  A positive common factor leaves the
    primitive vector as it was."""
    j = F.homogeneous_degree()
    fact = math.factorial
    coeffs = [F.coefficient(j - m, m) for m in range(j + 1)]
    scale = math.lcm(*(c.denominator for c in coeffs))
    return primitive(
        [
            c.numerator * (scale // c.denominator) * fact(j - m) * fact(m)
            for m, c in enumerate(coeffs)
        ]
    )


def catalecticant(g, i):
    """The integer Hankel rows [g_(v+i-t)], v = 0 .. j-i, t = 0 .. i, of a
    divided-power vector g = (g_0, ..., g_j): the contraction map
    R_i -> E_(j-i) of the form with that vector, its row of Y^v scaled by
    (j-i-v)! v! and its column t that of x^t y^(i-t).

    Row v is g_(v+i), ..., g_v: positions j-i-v .. j-v of g reversed, as
    a new list of its own, so a caller may keep a row without sharing
    storage with g or with another row."""
    rev = list(reversed(g))
    return [rev[k : k + i + 1] for k in range(len(g) - i - 1, -1, -1)]


def _massey(s):
    """One fraction-free Berlekamp-Massey pass over an integer sequence s:
    (lengths, C, B, m), with lengths[N - 1] the linear complexity of
    s[:N] for N = 1 .. len(s).

    C, a list of L + 1 integers for the final length L, is a connection
    polynomial of s: sum_k C[k] s[n - k] = 0 for L <= n < len(s), and
    C[0] != 0.  B is the connection polynomial that C had before the last
    change of length, and m the number of terms read since that change, so
    z^m B satisfies the same recurrence from position len(B) - 1 + m on,
    with len(B) - 1 + m = len(s) + 1 - L.  Where the textbook pass divides
    by the discrepancy b of B, this one scales C by b instead, with the
    pair first divided by its gcd, and divides C by its content, so every
    number stays an integer and C stays as short as its direction allows.
    """
    C, B = [1], [1]
    L, m, b = 0, 1, 1
    lengths = []
    for n in range(len(s)):
        delta = sum(map(operator.mul, C, s[n::-1]))  # sum_k C[k] s[n - k]
        if delta:
            g = math.gcd(b, delta)
            p, q = b // g, delta // g
            new = [p * c for c in C] + [0] * (len(B) + m - len(C))
            for k, v in enumerate(B, m):
                new[k] -= q * v
            g = math.gcd(*new)
            if 2 * L <= n:
                B, b, L, m = C, delta, n + 1 - L, 0
            C = [v // g for v in new] if g != 1 else new
        m += 1
        lengths.append(L)
    return lengths, C, B, m


def _middle_ranks(lengths):
    """(d_0, ..., d_j) from the linear complexities of the prefixes of a
    moved vector of length j + 1: d_n, the middle Hankel rank of its prefix
    of length N = j + 1 - n, is min(L, N + 1 - L) with L = lengths[N - 1]."""
    return tuple(min(lengths[N - 1], N + 1 - lengths[N - 1]) for N in range(len(lengths), 0, -1))


def dual_data(F):
    """(g, d, C, B, m) for a dual generator F of degree j: g, the tuple of
    divided_power_vector(F); d, the rank of its middle catalecticant,
    i = j // 2; and C, B and m, the final state of the one Berlekamp-Massey
    pass over g (see _massey), from which algebra.annihilator reads the
    generators of Ann(F).  d is min(L, j + 2 - L) for g's linear
    complexity L.

    The one reader of a dual generator: the tuple is computed on the first
    read of F and kept in F's private slot _dual, which no other function
    writes, so every later read returns it.  The same first read creates
    F's per-direction store in the private slot _d_sequences, holding the
    d_sequence of the direction (1, 0) from this same pass, since there
    the moved vector is g.  Raises ZeroInput when F is zero or no
    polynomial, ParseError, naming F in X and Y, when F is not homogeneous,
    and BudgetExceeded when j + 1 > MAX_DEGREE, since Ann(F) may then have
    a generator of degree over the cap.
    """
    if not isinstance(F, BivariatePoly) or F.is_zero():
        raise ZeroInput("dual generator must be a nonzero polynomial")
    if getattr(F, "_dual", None) is None:
        if not F.is_homogeneous():
            raise ParseError(f"{F.text(('X', 'Y'))} is not homogeneous")
        j = F.degree()
        if j + 1 > MAX_DEGREE:
            raise BudgetExceeded(
                f"a dual generator of degree {j} may have an annihilator generator "
                f"of degree {j + 1}, over the cap of {MAX_DEGREE}"
            )
        g = tuple(divided_power_vector(F))
        lengths, C, B, m = _massey(g)
        ranks = _middle_ranks(lengths)
        object.__setattr__(F, "_d_sequences", {(1, 0): ranks})
        object.__setattr__(F, "_dual", (g, ranks[0], C, B, m))
    return F._dual


def d_sequence(F, a, b):
    """(d_0, ..., d_j) for a dual generator F of degree j and the linear
    form L = a x + b y: d_n is the rank of the middle catalecticant of
    L^n o F, so the i-th Hessian of F at the point (a, b) has rank
    d_(j - 2i), and d_0 is d.

    With (a, b) scaled to coprime integers, a != 0, and coordinates x' = L,
    y' = y, the middle catalecticant of L^n o F is the Hankel matrix of
    the prefix of length j + 1 - n of g'_m = x'^(j-m) y'^m o F, taken up
    to the one common factor of g.  g' is g moved by the Horner recurrence
    w_m <- a w_m + b w_(m+1), run j times, the k-th time over m < j + 1 - k;
    for (1, 0) that leaves g, and for (0, 1), where a = 0, x' = y and
    y' = x give g reversed.  One Berlekamp-Massey pass over g' then gives
    every d_n (see _middle_ranks).

    F is read through dual_data, which checks it, and then (a, b) through
    _direction, the point reader that hessians.hessian_rank_at and
    algebra.ArtinAlgebra._diagram share: it raises ParseError unless a and
    b are finite rationals, neither a bool, and ZeroForm when both are 0.
    _d_sequence then reads the tuple for the checked F and the coprime
    pair.
    """
    dual_data(F)
    return _d_sequence(F, *_direction((a, b)))


def _direction(point):
    """The primitive pair (a, b) of a point (a, b), a nonzero pair of
    finite rationals: coprime integers with the first nonzero one
    positive, so a point and its nonzero multiples give one pair.  Raises
    ParseError unless errors._rationals reads point as two rationals (a str
    such as "12", a bool coordinate, NaN or an infinity is refused), and
    ZeroForm when both are 0.

    A tuple or list of two ints goes to primitive as it is, which scales it
    to coprime integers without a Fraction; any other point is read by
    _rationals first.  Both give the same primitive pair.
    """
    if type(point) in (tuple, list) and len(point) == 2 and type(point[0]) is type(point[1]) is int:
        coords = point
    else:
        coords = _rationals(point, 2, "a point needs rational coordinates (a, b)")
    a, b = primitive(coords)
    if not (a or b):
        raise ZeroForm("the point (0, 0) is no linear form")
    return a, b


def _d_sequence(F, a, b):
    """d_sequence(F, a, b) for a dual generator F that dual_data has read
    and a primitive pair (a, b), neither checked again: the tuple is kept
    in F's per-direction store under the pair, so a direction and its
    multiples share one pass."""
    ranks = F._d_sequences.get((a, b))
    if ranks is None:
        g = F._dual[0]
        if a == 0:
            w = g[::-1]
        else:
            w = list(g)
            for top in range(len(g) - 1, 0, -1):
                for t in range(top):
                    w[t] = a * w[t] + b * w[t + 1]
        ranks = F._d_sequences[(a, b)] = _middle_ranks(_massey(w)[0])
    return ranks


_TERM_RE = re.compile(
    r"""
    (?P<coeff>\d+(?:/\d+)?)?          # optional rational coefficient
    (?P<vars>(?:\*?\s*[xyXY](?:\s*\^\s*\d+)?)*)   # variable factors
    """,
    re.VERBOSE,
)


def _parse_term(text, original):
    text = text.strip()
    if not text:
        raise ParseError(f"empty term in {original!r}")
    m = _TERM_RE.fullmatch(text)
    if not m or (m.group("coeff") is None and not m.group("vars").strip()):
        raise ParseError(f"bad term {text!r} in {original!r}")
    try:
        coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
    except ZeroDivisionError as exc:
        raise ParseError(f"zero denominator in term {text!r} in {original!r}") from exc
    a = b = 0
    for var, exp in re.findall(r"([xyXY])(?:\s*\^\s*(\d+))?", m.group("vars")):
        power = int(exp) if exp else 1
        if var in ("x", "X"):
            a += power
        else:
            b += power
    return (a, b), coeff


def parse_poly(text):
    """Parse "y^4 + x^4", "3/2*x*y^3", "x^2y" (implicit *), in x,y or X,Y.
    Anything but a str raises ParseError."""
    if not isinstance(text, str):
        raise ParseError(f"a polynomial is text, not {text!r}")
    original = text
    text = text.strip()
    if not text:
        raise ParseError("empty polynomial")
    if text == "0":
        return BivariatePoly.zero()
    # re.split with one group gives term, sign, term, ..., sign, term; the
    # first term is empty exactly when the text starts with a sign
    pieces = re.split(r"(?<!\^)([+-])", text)
    if pieces[0]:
        pieces.insert(0, "+")
    else:
        del pieces[0]
    terms = {}
    for sign, piece in zip(pieces[::2], pieces[1::2]):
        key, coeff = _parse_term(piece, original)
        terms[key] = terms.get(key, Fraction(0)) + (coeff if sign == "+" else -coeff)
    return BivariatePoly(terms)
