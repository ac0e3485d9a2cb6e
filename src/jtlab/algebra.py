"""Graded ideals and Artinian quotients of R = k[x,y], in exact arithmetic.

Within each degree i, monomials are ordered y^i > y^(i-1) x > ... > x^i
(reverse degree-lex with ordered basis (y, x)); leading monomials of an
echelonized ideal are the initial ideal, and the complementary standard
monomials fill the Ferrers diagram of a partition.

The Jordan degree type of multiplication by a linear form L, and with it the
Jordan type, is read off the ranks of L^(s-u): A_u -> A_s: the number of
Jordan strings of length >= s equals rank(m_L^(s-1)) - rank(m_L^s).

Inside this module a degree-n form is a coordinate vector whose entry t is
the coefficient of x^t y^(n-t), so multiplying by x shifts the vector up by
one place and multiplying by y appends a zero.  The ideal is stored as
integer echelon forms built one degree from the last with linalg.extend.
A question that needs only a rank (a rank table, the complete-intersection
count, the middle catalecticant of a dual generator) goes through the
forward-only kernel linalg.insert, through linalg.rank where a matrix is
given whole, and builds no reduced form.  Fraction appears only where a
polynomial comes in or goes out.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from . import linalg
from .errors import (
    BudgetExceeded,
    DegreeOutOfRange,
    InternalInconsistency,
    NotArtinian,
    ParseError,
    ZeroForm,
    ZeroInput,
)
from .partitions import JordanDegreeType, Partition
from .polynomials import BivariatePoly, divided_power_vector

__all__ = [
    "GradedIdeal",
    "ArtinAlgebra",
    "MonomialCell",
    "monomials",
    "annihilator",
    "quotient",
    "jordan_type",
    "rank_mult_power",
    "jordan_degree_type",
    "initial_ideal",
    "is_complete_intersection",
    "require_linear",
]

# Largest generator degree that quotient accepts, checked before any
# elimination; annihilator accepts a dual generator of degree j only when
# j + 1 <= MAX_DEGREE, since Ann(L^j) has a generator of degree j + 1.  At
# the cap, on a shared 2-core host (Python 3.11), `jtlab jordan` takes about
# 0.4 s on the dual generator X^24*Y^25 + X^49 + 3/2*Y^49, 1 s on a dense
# one of degree 49 (45 of its 50 coefficients nonzero) and 1 s on the ideal
# (x^50, y^50); with the cap lifted, (x^100, y^100) takes about 10 s.
MAX_DEGREE = 50


def monomials(n):
    """Monomials of degree n as (x-exp, y-exp), largest first: y^n, ..., x^n.
    The position of a monomial in this list is its x-exponent."""
    return [(n - b, b) for b in range(n, -1, -1)]


def _poly_vec(f, n):
    """Coordinates of a degree-n form in the y-descending monomial order."""
    return [f.coefficient(t, n - t) for t in range(n + 1)]


def _vec_poly(vec, n):
    return BivariatePoly({(t, n - t): c for t, c in enumerate(vec) if c})


def _shifts(rows):
    """Rows spanning R_1 * V in degree n + 1, from rows spanning V in degree n."""
    return [[0, *row] for row in rows] + [[*row, 0] for row in rows]


def _combine(vec, columns):
    """The sum of vec[k] * columns[k] over the nonzero entries of a nonzero
    vector vec: its image under the map with these columns."""
    out = None
    for v, col in zip(vec, columns):
        if v:
            if out is None:
                out = col if v == 1 else [v * w for w in col]
            else:
                out = [o + v * w for o, w in zip(out, col)]
    return out


class GradedIdeal:
    """An ideal of k[x,y] given by homogeneous generators.

    Each generator g of degree e is also kept, in the private slot _rows,
    as the pair (e, linalg.primitive(_poly_vec(g, e))): its degree and its
    coordinate row as coprime integers.  quotient shifts these rows, and
    is_complete_intersection reads the degrees, so no Fraction is converted
    again after construction.  Two ideals are equal when they list the same
    generators in the same order.
    """

    __slots__ = ("generators", "_rows")

    def __init__(self, generators):
        gens = tuple(generators)
        rows = []
        for g in gens:
            if not isinstance(g, BivariatePoly):
                raise ParseError(f"generator {g!r} is not a polynomial")
            if g.is_zero():
                raise ZeroInput("zero generator")
            if not g.is_homogeneous():
                raise ParseError(f"generator {g} is not homogeneous")
            e = g.degree()
            if e == 0:
                raise ParseError(f"generator {g} is a unit, so R/I = 0")
            rows.append((e, linalg.primitive(_poly_vec(g, e))))
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "_rows", tuple(rows))

    def __setattr__(self, name, value):
        raise AttributeError("GradedIdeal is immutable")

    def __reduce__(self):
        return (GradedIdeal, (self.generators,))

    def __eq__(self, other):
        return isinstance(other, GradedIdeal) and self.generators == other.generators

    def __hash__(self):
        return hash(self.generators)

    def __str__(self):
        return ", ".join(g.text() for g in self.generators)

    def __repr__(self):
        return f"GradedIdeal([{self}])"


class ArtinAlgebra:
    """A finite-dimensional graded quotient A = R/I, built through
    quotient().

    Per degree it keeps the echelon form (pivots, rows, lead) of I as
    integers and the standard monomials that form the basis of A; these are
    fixed at construction.  quotient() builds the forms with linalg.extend,
    so rows / lead is the reduced echelon form of I_i over Q and lead its
    least common denominator; an echelon form of the same spaces scaled by
    any other nonzero lead gives the same answers.  Rank questions about
    multiplication by a linear form are answered from a rank table that is
    filled the first time the form is asked about and kept on the algebra
    for later questions.  On the first question it keeps, for each degree
    s >= 1 and shared by every direction, what the one-step maps are built
    from (_pivot_rows): the position of each standard monomial, minus the
    echelon row of each pivot column read in the standard columns, and the
    lead.  The maps themselves are lists of columns.
    """

    def __init__(self, ideal, echelons):
        self.ideal = ideal
        # degree i -> (pivots, rows, lead) of I_i, through the first degree
        # in which I is everything
        self._echelons = echelons
        # degree i -> x-exponents of the standard monomials of degree i
        self._std = [
            sorted(set(range(i + 1)) - set(pivots))
            for i, (pivots, _, _) in enumerate(echelons)
        ]
        self.hilbert = tuple(len(std) for std in self._std[:-1])
        self.socle_degree = len(self.hilbert) - 1
        # linear form -> rank table; a BivariatePoly keeps its hash, and
        # equal forms compare equal
        self._rank_tables = {}
        self._pivot_forms = None  # filled by _one_step_maps
        # dual generator F -> (HilbertFunction, divided_power_vector(F)),
        # kept by hessians.hessian_rank_at for later calls about F
        self.dual_vectors = {}

    @property
    def dimension(self):
        return sum(self.hilbert)

    def dim(self, i):
        if 0 <= i < len(self.hilbert):
            return self.hilbert[i]
        return 0

    def basis(self, i):
        """Standard monomials of degree i, as (x-exp, y-exp) pairs."""
        if 0 <= i < len(self.hilbert):
            return [(t, i - t) for t in self._std[i]]
        return []

    def _reduce(self, vec, i):
        """The normal form of a degree-i coordinate vector on the standard
        basis, times the lead of I_i: one scalar for the whole degree."""
        rest = linalg.remainder(vec, *self._echelons[i])
        return [rest[t] for t in self._std[i]]

    def normal_form_vector(self, f):
        """Coordinates of a homogeneous form modulo I in the standard basis
        of its degree."""
        if f.is_zero():
            return []
        i = f.homogeneous_degree()
        if i > self.socle_degree:
            return []
        lead = self._echelons[i][2]
        return [v / lead for v in self._reduce(_poly_vec(f, i), i)]

    def _pivot_rows(self, s):
        """For degree s: (N, lead), where N[u] is the position of x^u y^(s-u)
        in the standard basis when that monomial is standard, and otherwise
        its normal form on that basis times lead, the lead of I_s: minus its
        echelon row, read in the standard columns."""
        pivots, rows, lead = self._echelons[s]
        std = self._std[s]
        N = [None] * (s + 1)
        for k, t in enumerate(std):
            N[t] = k
        for pc, row in zip(pivots, rows):
            N[pc] = [-row[c] for c in std]
        return N, lead

    def _one_step_maps(self, a, b):
        """The one-step maps M_s: A_s -> A_(s+1) of a*x + b*y, s = 0 .. j-1,
        each as its columns: column k is the image of standard monomial k of
        degree s, on the standard basis of degree s + 1.

        The image of x^t y^(s-t) is b N[t] + a N[t+1], scaled by the lead of
        I_(s+1), with N that degree's _pivot_rows: lead times a unit vector
        for a standard monomial, the stored row otherwise; a zero
        coefficient adds nothing.  Each M_s is then divided by its content,
        the gcd of all its entries: one scalar for the whole map, so the
        rank of every product of maps is unchanged, and the entries stay
        small.  The pivot rows of every degree are read off I on the first
        call and kept for every later direction.
        """
        if self._pivot_forms is None:
            self._pivot_forms = [
                self._pivot_rows(s) for s in range(1, self.socle_degree + 1)
            ]
        maps = []
        for std, (N, lead), m in zip(self._std, self._pivot_forms, self.hilbert[1:]):
            columns = []
            for t in std:
                col = None
                for c, form in ((b, N[t]), (a, N[t + 1])):
                    if not c:
                        continue
                    if isinstance(form, int):  # a standard monomial
                        if col is None:
                            col = [0] * m
                        col[form] += c * lead
                    elif col is None:
                        col = [c * v for v in form]
                    else:
                        col = [w + c * v for w, v in zip(col, form)]
                columns.append(col)
            content = math.gcd(*(v for col in columns for v in col))
            if content > 1:
                columns = [[v // content for v in col] for col in columns]
            maps.append(columns)
        return maps

    def _rank_table(self, ell):
        """table[u][s - u] = r(u, s), the rank of ell^(s-u): A_u -> A_s, for
        a nonzero linear form ell; kept under ell itself.

        The images ell^(s-u) A_u form a chain
        ell^s A_0 <= ell^(s-1) A_1 <= ... <= ell A_(s-1) <= A_s, whose
        dimensions are column s of the table; the Jordan strings of ell are
        the barcode of A_0 -> A_1 -> ... -> A_j (Zomorodian-Carlsson,
        "Computing persistent homology", 2005).  One sweep over s fills the
        table.  It keeps a basis of A_s adapted to the chain: its first
        r(u, s) vectors span ell^(s-u) A_u, for every u <= s.  The one-step
        map M_s, given by its columns, sends them to A_(s+1): the image of a
        vector is the sum of the columns weighted by its nonzero entries.
        The images are fed in order to linalg.insert, the forward-only rank
        kernel, which keeps those that raise the rank; only a rank is read,
        so no reduced form is built.  So r(u, s+1), the rank of the first
        r(u, s) images, is the number of kept images among them.  The kept
        images, divided by their content, followed by the unit vectors of
        the columns that lead no row of insert's basis, are the adapted
        basis of A_(s+1).  The image of a unit vector is a column of the
        next map, so only the kept images are multiplied out, and none past
        the one that fills A_(s+1).  The table is built from the echelon
        forms of I alone, never from a dual generator.
        """
        table = self._rank_tables.get(ell)
        if table is not None:
            return table
        a, b = linalg.primitive((ell.coefficient(1, 0), ell.coefficient(0, 1)))
        table = [[self.hilbert[0]]]
        vectors, units = [], range(self.hilbert[0])  # the basis of A_0
        for columns in self._one_step_maps(a, b):
            m = self.hilbert[len(table)]
            # multiplied out one at a time, until the kept ones span A_(s+1)
            images = chain(
                (_combine(vec, columns) for vec in vectors),
                (columns[c] for c in units),
            )
            basis, kept, vectors = {}, [], []
            for n, image in enumerate(images):
                if linalg.insert(basis, image) is not None:
                    kept.append(n)
                    content = math.gcd(*image)
                    vectors.append([v // content for v in image] if content > 1 else image)
                    if len(basis) == m:
                        break
            for ranks in table:
                ranks.append(bisect_left(kept, ranks[-1]))
            table.append([m])
            units = sorted(set(range(m)) - basis.keys())
        self._rank_tables[ell] = table
        return table

    def __repr__(self):
        return f"ArtinAlgebra(H={self.hilbert}, I=({self.ideal}))"


def quotient(ideal):
    """Per-degree echelon bases of I, standard monomials of A = R/I, and the
    Hilbert function.  Raises NotArtinian when dim A_i stays positive past
    twice the generator degree bound (plus guard), and BudgetExceeded when a
    generator has degree over MAX_DEGREE.

    Each degree is built from the last: I_i = y I_(i-1) + the span of
    x^(i-e) g over the generators g of degree e <= i.  By induction on i:
    I_i = x I_(i-1) + y I_(i-1) + the generators of degree i, and
    x I_(i-1) = y x I_(i-2) + the span of x^(i-e) g over e <= i - 1, where
    x I_(i-2) lies in I_(i-1).  Multiplying by y appends a zero to each
    coordinate vector, so the reduced echelon form of y I_(i-1) is that of
    I_(i-1) with a zero column appended, and linalg.extend adds the
    generators' shifts to it, at most one call per generator.
    """
    maxdeg = max(e for e, _ in ideal._rows)
    if maxdeg > MAX_DEGREE:
        raise BudgetExceeded(
            f"a generator of degree {maxdeg} is over the cap of {MAX_DEGREE}"
        )
    bound = 2 * maxdeg + 2
    form = ([], [], 1)  # I_(-1) = 0
    echelons = []
    for i in range(bound + 1):
        pivots, rows, lead = form
        form = pivots, [[*row, 0] for row in rows], lead  # y I_(i-1)
        for e, vec in ideal._rows:
            if e <= i:
                form = linalg.extend(form, [0] * (i - e) + vec)  # x^(i-e) g
        echelons.append(form)
        if len(form[0]) == i + 1:
            return ArtinAlgebra(ideal, echelons)
    raise NotArtinian(
        f"dim A_{bound} = {bound + 1 - len(form[0])} > 0 for I = ({ideal})"
    )


def annihilator(F):
    """Minimal homogeneous generators of Ann(F) = {f : f o F = 0}, for a
    nonzero binary form F of degree j.

    Ann(F)_i is the kernel of the catalecticant, the contraction map
    R_i -> E_(j-i).  Its row of Y^v is scaled by (j-i-v)! v!, which leaves
    the kernel unchanged and makes it the integer Hankel matrix
    [g_(v+i-t)] of F's divided-power vector g
    (polynomials.divided_power_vector).

    R/Ann(F) is Gorenstein of codimension two, so by the structure theorem
    in codimension two (Macaulay; Iarrobino-Kanev, "Power Sums, Gorenstein
    Algebras, and Determinantal Loci", LNM 1721) Ann(F) is a
    complete intersection generated in degrees d <= e with d + e = j + 2,
    where d is the rank of the middle catalecticant, i = j // 2, taken with
    linalg.rank.  A kernel is needed only in the degrees d and e, and is
    read off the reduced form that linalg.echelon folds from linalg.extend
    there.  The generator of degree d spans the kernel there, which has
    dimension 1, or 2 when d = e.  The generator of degree e is the one
    kernel vector of degree e not in R_(e-d) times the first generator,
    reduced modulo those shifts.  Each is scaled to coprime integer
    coefficients with a positive leading term.  Raises BudgetExceeded when
    Ann(F) may have a generator of degree over MAX_DEGREE, that is when
    j + 1 > MAX_DEGREE.
    """
    if not isinstance(F, BivariatePoly) or F.is_zero():
        raise ZeroInput("dual generator must be a nonzero polynomial")
    j = F.homogeneous_degree()
    if j + 1 > MAX_DEGREE:
        raise BudgetExceeded(
            f"a dual generator of degree {j} may have an annihilator generator "
            f"of degree {j + 1}, over the cap of {MAX_DEGREE}"
        )
    g = divided_power_vector(F)

    def catalecticant(i):
        # R_i -> E_(j-i), with the row of Y^v scaled by (j-i-v)! v!: its
        # entry at column x^t y^(i-t) is g_(v+i-t)
        return [[g[v + i - t] for t in range(i + 1)] for v in range(j - i + 1)]

    def kernel(i):
        return linalg.null_vectors(*linalg.echelon(catalecticant(i)), i + 1)

    d = linalg.rank(catalecticant(j // 2))
    e = j + 2 - d
    kernel_d = kernel(d)
    kernel_e = kernel_d if e == d else kernel(e)
    if len(kernel_d) != 1 + (d == e) or len(kernel_e) != e - d + 2:
        raise InternalInconsistency(
            f"Ann({F}) has kernel dimensions {len(kernel_d)} in degree {d} and "
            f"{len(kernel_e)} in degree {e}, not those of a complete intersection"
        )
    first = linalg.primitive(kernel_d[0])
    # R_(e-d) * first: x^a y^(e-d-a) times the degree-d generator
    shifts = linalg.echelon([[0] * a + first + [0] * (e - d - a) for a in range(e - d + 1)])
    rests = (linalg.remainder(vec, *shifts) for vec in kernel_e)
    second = next((rest for rest in rests if any(rest)), None)
    if second is None:
        raise InternalInconsistency(f"Ann({F}) has no generator in degree {e}")
    return GradedIdeal([_vec_poly(first, d), _vec_poly(linalg.primitive(second), e)])


def require_linear(ell):
    """ell itself when it is a nonzero linear form; raises ZeroForm or
    ParseError otherwise."""
    if not isinstance(ell, BivariatePoly) or ell.is_zero():
        raise ZeroForm("linear form must be nonzero")
    if ell.homogeneous_degree() != 1:
        raise ParseError(f"{ell} is not linear")
    return ell


def rank_mult_power(A, ell, u, s):
    """Exact rank of multiplication by ell^(s-u) from A_u to A_s, read from
    the algebra's rank table for ell.  ell is validated only when it has no
    table yet, since every key of A's tables passed require_linear; the
    type is checked first, so an unhashable ell raises ZeroForm too."""
    if not isinstance(ell, BivariatePoly) or ell not in A._rank_tables:
        require_linear(ell)
    if not 0 <= u <= s or s > A.socle_degree:
        raise DegreeOutOfRange(f"need 0 <= {u} <= {s} <= {A.socle_degree}")
    return A._rank_table(ell)[u][s - u]


def jordan_type(A, ell):
    """Jordan block partition of the nilpotent multiplication map m_ell: the
    string lengths of its Jordan degree type."""
    return jordan_degree_type(A, ell).partition()


def jordan_degree_type(A, ell):
    """Multiset of (start degree, length) of the Jordan strings of m_ell,
    read off the algebra's rank table for ell.

    With r(u, s) the rank of ell^(s-u): A_u -> A_s (r(-1, s) = 0), the
    strings of length >= s starting in degree i number
    at_least(i, s) = r(i, i+s-1) - r(i-1, i+s-1), zero when i+s-1 > j, and
    those of length exactly s number at_least(i, s) - at_least(i, s+1).
    Summed over i this telescopes: sum_i at_least(i, s) =
    rank(m_ell^(s-1)) - rank(m_ell^s) on all of A, the number of Jordan
    blocks of size >= s.  So the string lengths are the Jordan type of
    m_ell, which is how jordan_type reads it.
    """
    table = A._rank_table(require_linear(ell))
    strings = {}
    above = [0] * (len(table) + 1)  # row i-1 of the table; zero for i = 0
    for i, row in enumerate(table):
        # at_least[s - 1] for s = 1 .. j+1-i, then 0 past the socle
        at_least = [r - a for r, a in zip(row, above[1:])] + [0]
        for s in range(1, len(row) + 1):
            count = at_least[s - 1] - at_least[s]
            if count:
                strings[(i, s)] = count
        above = row
    return JordanDegreeType(strings)


@dataclass(frozen=True)
class MonomialCell:
    """Initial data of an ideal in a linear direction: the partition Q whose
    Ferrers diagram the standard monomials fill, the monomial fill itself,
    and the minimal generators of the complementary monomial ideal."""

    partition: Partition
    fill: tuple  # standard monomials per degree
    generators: tuple  # minimal generators of (E_Q) as (x-exp, y-exp)


def cell_generators(Q):
    """Minimal generators (x^p1, x^p2 y^a1, ..., y^at) of the monomial ideal
    complementary to the Ferrers fill of Q."""
    pf = Q.power_form
    gens = [(pf[0][0], 0)]
    a = 0
    for t in range(1, len(pf)):
        a += pf[t - 1][1]
        gens.append((pf[t][0], a))
    gens.append((0, a + pf[-1][1]))
    return tuple(gens)


def initial_ideal(ideal, ell, algebra=None):
    """Initial monomial data of I in the direction ell.

    Coordinates are changed so that ell becomes x (complement y, or x when
    ell is proportional to y); the ideal is echelonized degree by degree in
    the order y^i > ... > x^i and the leading monomials collected.  When ell
    is x the change is the identity, and a given algebra = quotient(ideal)
    is used instead of building the quotient again.
    """
    ell = require_linear(ell)
    a, b = ell.coefficient(1, 0), ell.coefficient(0, 1)
    if algebra is not None and (a, b) == (1, 0):
        A = algebra  # the change of coordinates below would be the identity
    else:
        x, y = BivariatePoly.monomial(1, 0), BivariatePoly.monomial(0, 1)
        if a != 0:
            # x = (x' - b y')/a, y = y'
            px = Fraction(1, 1) / a * x - Fraction(b, 1) / a * y
            py = y
        else:
            # ell = b*y: complement x; x = y', y = x'/b
            px = y
            py = Fraction(1, 1) / b * x
        moved = GradedIdeal([g.substitute(px, py) for g in ideal.generators])
        A = quotient(moved)
    rows = [0] * (A.socle_degree + 1)
    fill = []
    for i in range(A.socle_degree + 1):
        std = A.basis(i)
        fill.append(tuple(std))
        for xa, yb in std:
            rows[yb] = max(rows[yb], xa + 1)
    parts = [r for r in rows if r]
    if any(p < q for p, q in zip(parts, parts[1:])):
        raise InternalInconsistency("standard monomials do not form a Ferrers diagram")
    Q = Partition(parts)
    if Q.size != A.dimension:
        raise InternalInconsistency(
            f"initial partition {Q} has size {Q.size}, not dim A = {A.dimension}"
        )
    return MonomialCell(partition=Q, fill=tuple(fill), generators=cell_generators(Q))


def is_complete_intersection(ideal, algebra=None):
    """Whether I is minimally generated by two forms; also returns the
    minimal generator degrees.  algebra, when given, is quotient(ideal).

    The count of new generators in degree i is dim I_i - dim R_1*I_(i-1).
    A generator of degree e < i contributes R_(i-e) g = R_1 R_(i-e-1) g to
    I_i, which lies in R_1*I_(i-1); so I_i = R_1*I_(i-1) + the span of the
    given generators of degree i, and the count is zero in every degree
    that holds none of them.  Past the socle degree j, I_i is all of R_i
    and equals R_1*I_(i-1) from degree j + 2 on.  So the count is taken
    only at the degrees of the given generators that are at most j + 1,
    and dim R_1*I_(i-1) is a rank, taken with linalg.rank.
    """
    A = algebra if algebra is not None else quotient(ideal)
    degrees = []
    for i in sorted({e for e, _ in ideal._rows if e <= A.socle_degree + 1}):
        # i >= 1: a unit generator is refused by GradedIdeal
        grown = linalg.rank(_shifts(A._echelons[i - 1][1]))
        new = (i + 1) - A.dim(i) - grown
        if new < 0:
            raise InternalInconsistency(
                f"dim I_{i} < dim R_1*I_{i - 1} for I = ({ideal})"
            )
        degrees.extend([i] * new)
    return len(degrees) == 2, tuple(degrees)
