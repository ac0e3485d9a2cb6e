"""Exact bivariate polynomials with arbitrary-precision rational
coefficients.

Terms are stored sparsely as {(x-exponent, y-exponent): Fraction} with no
zero coefficients.  The polynomial ring R = k[x,y] acts on its dual
E = k[X,Y] by differentiation (apolarity): x^i y^j sends X^u Y^v to
u(u-1)...(u+1-i) * v(v-1)...(v+1-j) * X^(u-i) Y^(v-j), zero when an
exponent is insufficient.

For a form F = sum c_m X^(j-m) Y^m of degree j, every contraction of F is
read off one integer vector: x^(j-m) y^m o F = c_m (j-m)! m!, and
`divided_power_vector` returns these j+1 numbers as coprime integers.

`dual_data` is the one reader of a dual generator F: it checks F once,
and returns its divided-power vector g and d, the rank of its middle
catalecticant, which it keeps on F.  Every catalecticant, F's own and
those of the Hessians, is built by `catalecticant` as integer Hankel rows.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import BudgetExceeded, ParseError, ZeroInput
from .linalg import primitive, rank

__all__ = [
    "BivariatePoly",
    "catalecticant",
    "contract",
    "divided_power_vector",
    "dual_data",
    "falling_factorial",
    "parse_poly",
]

_ZERO = Fraction(0)

# Largest generator degree that algebra.quotient accepts, checked before any
# elimination; dual_data accepts a dual generator of degree j only when
# j + 1 <= MAX_DEGREE, since Ann(L^j) has a generator of degree j + 1.  At
# the cap, on a shared 2-core host (Python 3.11), `jtlab jordan` takes about
# 0.4 s on the dual generator X^24*Y^25 + X^49 + 3/2*Y^49, 1 s on a dense
# one of degree 49 (45 of its 50 coefficients nonzero) and 1 s on the ideal
# (x^50, y^50); with the cap lifted, (x^100, y^100) takes about 10 s.
MAX_DEGREE = 50


class BivariatePoly:
    """A polynomial in two variables over the rationals.

    Immutable.  Its hash is computed on first use and kept in the private
    slot _hash, and dual_data keeps what it reads off a dual generator in
    the private slot _dual.  Neither slot is compared, copied or pickled: a
    copy or a pickled twin computes the same values again.
    """

    __slots__ = ("terms", "_hash", "_dual")

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for (a, b), c in dict(terms).items():
                if type(c) is not Fraction:
                    c = Fraction(c)
                if c:
                    clean[(int(a), int(b))] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("BivariatePoly is immutable")

    def __delattr__(self, name):
        raise AttributeError("BivariatePoly is immutable")

    def __reduce__(self):
        return (BivariatePoly, (self.terms,))

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def monomial(cls, a, b, coeff=1):
        return cls({(a, b): Fraction(coeff)})

    @classmethod
    def linear(cls, a, b):
        """The linear form a*x + b*y."""
        return cls({(1, 0): Fraction(a), (0, 1): Fraction(b)})

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
        return self.terms.get((a, b), _ZERO)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + c
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
                    out[key] = out.get(key, Fraction(0)) + c1 * c2
            return BivariatePoly(out)
        return BivariatePoly(
            {key: c * Fraction(other) for key, c in self.terms.items()}
        )

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

    def __eq__(self, other):
        return isinstance(other, BivariatePoly) and self.terms == other.terms

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

    def evaluate(self, a, b):
        """Value at the rational point (a, b)."""
        a, b = Fraction(a), Fraction(b)
        total = Fraction(0)
        for (i, j), c in self.terms.items():
            total += c * a**i * b**j
        return total

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
            out[key] = out.get(key, Fraction(0)) + coeff
    return BivariatePoly(out)


def divided_power_vector(F):
    """Coprime integers g_0, ..., g_j proportional to c_m (j-m)! m! for
    F = sum c_m X^(j-m) Y^m: the coefficients of F in the divided-power
    basis, and the values x^(j-m) y^m o F up to one common factor."""
    j = F.homogeneous_degree()
    fact = math.factorial
    return primitive([F.coefficient(j - m, m) * fact(j - m) * fact(m) for m in range(j + 1)])


def catalecticant(g, i):
    """The integer Hankel rows [g_(v+i-t)], v = 0 .. j-i, t = 0 .. i, of a
    divided-power vector g = (g_0, ..., g_j): the contraction map
    R_i -> E_(j-i) of the form with that vector, its row of Y^v scaled by
    (j-i-v)! v! and its column t that of x^t y^(i-t).

    Row v is g_(v+i), ..., g_v: positions j-i-v .. j-v of g reversed, as
    a new list of its own, since linalg.extend may keep a given row as a
    row of its form."""
    rev = list(reversed(g))
    return [rev[k : k + i + 1] for k in range(len(g) - i - 1, -1, -1)]


def dual_data(F):
    """(g, d) for a dual generator F of degree j: g, the tuple of
    divided_power_vector(F), and d, the rank of its middle catalecticant,
    i = j // 2, taken with linalg.rank.

    The one reader of a dual generator: the pair is computed on the first
    read of F and kept in F's private slot _dual, which no other function
    writes, so every later read returns it.  Raises ZeroInput when F is
    zero or no polynomial, ParseError, naming F in X and Y, when F is not
    homogeneous, and BudgetExceeded when j + 1 > MAX_DEGREE, since Ann(F)
    may then have a generator of degree over the cap.
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
        object.__setattr__(F, "_dual", (g, rank(catalecticant(g, j // 2))))
    return F._dual


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
    """Parse "y^4 + x^4", "3/2*x*y^3", "x^2y" (implicit *), in x,y or X,Y."""
    original = text
    text = text.strip()
    if not text:
        raise ParseError("empty polynomial")
    if text == "0":
        return BivariatePoly.zero()
    # split into signed terms
    pieces = re.split(r"(?<!\^)([+-])", text)
    terms = {}
    sign = 1
    start = pieces[0].strip()
    index = 1
    if start == "":
        if len(pieces) < 2 or pieces[1] == "+":
            sign = 1
        elif pieces[1] == "-":
            sign = -1
        else:
            raise ParseError(f"bad leading sign in {original!r}")
        start = pieces[2].strip() if len(pieces) > 2 else ""
        index = 3
    key, coeff = _parse_term(start, original)
    terms[key] = terms.get(key, Fraction(0)) + sign * coeff
    while index < len(pieces):
        sign = 1 if pieces[index] == "+" else -1
        if index + 1 >= len(pieces):
            raise ParseError(f"dangling sign in {original!r}")
        key, coeff = _parse_term(pieces[index + 1], original)
        terms[key] = terms.get(key, Fraction(0)) + sign * coeff
        index += 2
    return BivariatePoly(terms)
