"""Graded ideals and Artinian quotients of R = k[x,y], in exact arithmetic.

Within each degree i, monomials are ordered y^i > y^(i-1) x > ... > x^i
(reverse degree-lex with ordered basis (y, x)); leading monomials of an
echelonized ideal are the initial ideal, and the complementary standard
monomials fill the Ferrers diagram of a partition.

The Jordan degree type of multiplication by a linear form L, and with it the
Jordan type, is read off the ranks of L^(s-u): A_u -> A_s: the number of
Jordan strings of length >= s equals rank(m_L^(s-1)) - rank(m_L^s).  Each
rank counts standard monomials.  Move coordinates so that L is x, and let
I' be the moved ideal.  Then rank(x^(s-u): A_u -> A_s) = (u + 1) -
dim(I'_s meet x^(s-u) R_u), and that intersection is spanned by the echelon
rows of I'_s whose pivot is at least s - u.  So the rank is the number of
standard monomials of I' of degree s divisible by x^(s-u): the initial
ideal in L's direction holds every rank of every power of L.

Inside this module a degree-n form is a coordinate vector whose entry t is
the coefficient of x^t y^(n-t), so multiplying by x shifts the vector up by
one place and multiplying by y appends a zero.  The ideal is stored as
integer echelon forms, built one degree from the last with linalg.extend by
_build, which also counts the minimal generators.  The standard monomials
of a moved ideal need only pivots, so _moved_standard builds it forward
only, with linalg.insert, one degree from the last; when L is a multiple
of x nothing moves, and the quotient's own standard monomials are read
with no elimination.  A dual generator is read only through
polynomials.dual_data.  Fraction is met only in a BivariatePoly's
coefficients, where a polynomial comes in or goes out.
"""

from __future__ import annotations

from bisect import bisect_left
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
    _Value,
)
from .partitions import JordanDegreeType, Partition
from .polynomials import MAX_DEGREE, BivariatePoly, catalecticant, dual_data

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


def monomials(n):
    """Monomials of degree n as (x-exp, y-exp), largest first: y^n, ..., x^n.
    The position of a monomial in this list is its x-exponent."""
    return [(n - b, b) for b in range(n, -1, -1)]


def _poly_vec(f, n):
    """Coordinates of a degree-n form in the y-descending monomial order."""
    return [f.coefficient(t, n - t) for t in range(n + 1)]


def _vec_poly(vec, n):
    return BivariatePoly({(t, n - t): c for t, c in enumerate(vec) if c})


class GradedIdeal:
    """An ideal of k[x,y] given by homogeneous generators.

    Each generator g of degree e is also kept, in the private slot _rows,
    as the pair (e, linalg.primitive(_poly_vec(g, e))): its degree and its
    coordinate row as coprime integers.  quotient builds from these rows,
    and initial_ideal moves them, so no Fraction is converted again after
    construction.  Two ideals are equal when they list the same
    generators in the same order.

    GradedIdeal(generators) checks every generator and reads its row back
    from its coefficients.  A caller that built each generator from an
    integer row (annihilator, constructor.construct_ci) hands the rows
    over with _from_rows instead, and nothing is read back.
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

    @classmethod
    def _from_rows(cls, rows, generators):
        """The ideal of generators, with rows as its _rows: one pair
        (e, primitive integer row) per generator, equal to the pair that
        GradedIdeal(generators) would read off it, so the ideal equals
        that one in ==, hash and _rows.  The caller vouches for both: a
        nonzero form of degree e >= 1 with that row, up to scale, as its
        coordinates.  Nothing is checked or converted."""
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "generators", tuple(generators))
        object.__setattr__(ideal, "_rows", tuple(rows))
        return ideal

    def __setattr__(self, name, value):
        raise AttributeError("GradedIdeal is immutable")

    def __delattr__(self, name):
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
    quotient(), which also hands it the minimal generator degrees of I.

    Per degree it keeps the echelon form (pivots, rows, lead) of I as
    integers and the standard monomials that form the basis of A; these are
    fixed at construction.  quotient() builds the forms with linalg.extend,
    so rows / lead is the reduced echelon form of I_i over Q and lead its
    least common denominator; an echelon form of the same spaces scaled by
    any other nonzero lead gives the same answers.  Rank questions about
    multiplication by a linear form are answered from a rank table that is
    filled the first time the form is asked about and kept on the algebra
    under the form.  A table is counted off the standard monomials of the
    ideal moved so that the form becomes x (see the module docstring).
    Those are kept under the primitive pair of the form's coefficients
    (_standard), so a form, its multiples and initial_ideal in the same
    direction share one moved pass; under (1, 0) they are the algebra's
    own, and no elimination runs.
    """

    def __init__(self, ideal, echelons, generator_degrees):
        self.ideal = ideal
        # degree i -> (pivots, rows, lead) of I_i, through the first degree
        # in which I is everything
        self._echelons = echelons
        # the degrees of a minimal generating set of I, in increasing order
        self._generator_degrees = generator_degrees
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
        # primitive (a, b) -> the standard monomials of the ideal moved so
        # that a*x + b*y is x; nothing moves for (1, 0)
        self._moved_std = {(1, 0): self._std}

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

    def _standard(self, a, b):
        """The x-exponents of the standard monomials of each degree 0 .. j
        of the ideal moved so that a*x + b*y becomes x, for a primitive pair
        (a, b): read by _moved_standard off the ideal's generator rows the
        first time, and kept under (a, b).  A change of coordinates keeps
        the Hilbert function, so InternalInconsistency is raised when theirs
        is not the algebra's."""
        std = self._moved_std.get((a, b))
        if std is None:
            std = _moved_standard(self.ideal._rows, a, b, self.socle_degree)
            if tuple(map(len, std)) != self.hilbert:
                raise InternalInconsistency(
                    f"moved by ({a}, {b}), I = ({self.ideal}) has Hilbert function "
                    f"{tuple(map(len, std))}, not {self.hilbert}"
                )
            self._moved_std[(a, b)] = std
        return std

    def _rank_table(self, ell):
        """table[u][s - u] = r(u, s), the rank of ell^(s-u): A_u -> A_s, for
        a nonzero linear form ell; kept under ell itself.

        With (a, b) the primitive pair of ell's coefficients, r(u, s) is the
        number of standard monomials of degree s of the ideal moved so that
        ell becomes x (_standard) whose x-exponent is at least s - u, which
        is one bisect per entry; the module docstring says why.  The table
        is read off the ideal alone, never off a dual generator.
        """
        table = self._rank_tables.get(ell)
        if table is not None:
            return table
        std = self._standard(*_direction(ell))
        j = self.socle_degree
        table = [
            [len(std[s]) - bisect_left(std[s], s - u) for s in range(u, j + 1)]
            for u in range(j + 1)
        ]
        self._rank_tables[ell] = table
        return table

    def __repr__(self):
        return f"ArtinAlgebra(H={self.hilbert}, I=({self.ideal}))"


def _build(ideal, rows):
    """(echelons, generator degrees) of the ideal I with generator rows
    given as (degree, integer row) pairs: the echelon form of each I_i, up
    to the first degree in which I is everything, and the degrees of a
    minimal generating set.  Raises BudgetExceeded when a degree is over
    MAX_DEGREE, and NotArtinian, naming ideal, when dim A_i stays positive
    past twice the largest degree (plus guard).

    By induction on i, I_i = y I_(i-1) + the span of x^(i-e) g over the
    generators g of degree e <= i, since x I_(i-1) = y x I_(i-2) + the span
    of x^(i-e) g over e < i, and x I_(i-2) lies in I_(i-1).  So y I_(i-1),
    the rows of I_(i-1) with a zero appended, and the shifts over e < i
    span R_1*I_(i-1): they go in first, and the rank that the generators of
    degree i then add is the number of minimal generators of degree i.
    linalg.extend adds each vector; rows / lead is the reduced echelon form
    and lead its least common denominator, so the order of the calls does
    not change a form.
    """
    maxdeg = max(e for e, _ in rows)
    if maxdeg > MAX_DEGREE:
        raise BudgetExceeded(
            f"a generator of degree {maxdeg} is over the cap of {MAX_DEGREE}"
        )
    bound = 2 * maxdeg + 2
    form = ([], [], 1)  # I_(-1) = 0
    echelons, degrees = [], []
    for i in range(bound + 1):
        pivots, rest, lead = form
        form = pivots, [[*row, 0] for row in rest], lead  # y I_(i-1)
        for e, vec in rows:
            if e < i:
                form = linalg.extend(form, [0] * (i - e) + vec)  # x^(i-e) g
        grown = len(form[0])  # dim R_1*I_(i-1)
        for e, vec in rows:
            if e == i:
                form = linalg.extend(form, vec)
        echelons.append(form)
        degrees += [i] * (len(form[0]) - grown)
        if len(form[0]) == i + 1:
            return echelons, tuple(degrees)
    raise NotArtinian(
        f"dim A_{bound} = {bound + 1 - len(form[0])} > 0 for I = ({ideal})"
    )


def quotient(ideal):
    """The algebra R/I, built by _build from the generators' integer rows;
    raises BudgetExceeded or NotArtinian as _build does."""
    return ArtinAlgebra(ideal, *_build(ideal, ideal._rows))


def annihilator(F):
    """Minimal homogeneous generators of Ann(F) = {f : f o F = 0}, for a
    nonzero binary form F of degree j.

    Ann(F)_i is the kernel of the catalecticant, the contraction map
    R_i -> E_(j-i).  Its row of Y^v scaled by (j-i-v)! v!, which leaves
    the kernel unchanged, is polynomials.catalecticant(g, i), the integer
    Hankel matrix [g_(v+i-t)] of F's divided-power vector g.

    R/Ann(F) is Gorenstein of codimension two, so by the structure theorem
    in codimension two (Macaulay; Iarrobino-Kanev, "Power Sums, Gorenstein
    Algebras, and Determinantal Loci", LNM 1721) Ann(F) is a
    complete intersection generated in degrees d <= e with d + e = j + 2,
    where d is the rank of the middle catalecticant, i = j // 2.  g and d
    are read by polynomials.dual_data, which checks F and raises its
    errors: ZeroInput, ParseError naming F in X and Y when F is not
    homogeneous, and BudgetExceeded when j + 1 > MAX_DEGREE.  A kernel is
    needed only in the degrees d and e, and is read off the reduced form
    that linalg.echelon folds from linalg.extend there.  The generator of
    degree d spans the kernel there, which has dimension 1, or 2 when
    d = e.  The generator of degree e is the one kernel vector of degree e
    not in R_(e-d) times the first generator, reduced modulo those shifts.
    Each is scaled to coprime integer coefficients with a positive leading
    term.  Those primitive rows are the ideal's rows as they stand: they go
    to GradedIdeal._from_rows with the generators built from them.
    """
    g, d = dual_data(F)
    e = len(g) + 1 - d  # d + e = j + 2
    kernel = {i: linalg.null_vectors(*linalg.echelon(catalecticant(g, i)), i + 1) for i in {d, e}}
    if len(kernel[d]) != 1 + (d == e) or len(kernel[e]) != e - d + 2:
        raise InternalInconsistency(
            f"Ann({F}) has kernel dimensions {len(kernel[d])} in degree {d} and "
            f"{len(kernel[e])} in degree {e}, not those of a complete intersection"
        )
    first = linalg.primitive(kernel[d][0])
    # R_(e-d) * first: x^a y^(e-d-a) times the degree-d generator
    shifts = linalg.echelon([[0] * a + first + [0] * (e - d - a) for a in range(e - d + 1)])
    rests = (linalg.remainder(vec, *shifts) for vec in kernel[e])
    second = next((rest for rest in rests if any(rest)), None)
    if second is None:
        raise InternalInconsistency(f"Ann({F}) has no generator in degree {e}")
    rows = ((d, first), (e, linalg.primitive(second)))
    return GradedIdeal._from_rows(rows, [_vec_poly(vec, n) for n, vec in rows])


def _direction(ell):
    """The primitive pair (a, b) of a nonzero linear form a*x + b*y: (1, 0)
    for every multiple of x."""
    b = ell.coefficient(0, 1)
    return (1, 0) if b == 0 else linalg.primitive((ell.coefficient(1, 0), b))


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
    the algebra's rank table for ell: the number of standard monomials of
    degree s divisible by x^(s-u) once ell is moved to x (see
    ArtinAlgebra._rank_table).  ell is validated only when it has no table
    yet, since every key of A's tables passed require_linear; the
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
    read off the algebra's rank table for ell, which counts the standard
    monomials of the ideal moved so that ell is x (ArtinAlgebra._rank_table).

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


class MonomialCell(_Value):
    """Initial data of an ideal in a linear direction: the partition Q whose
    Ferrers diagram the standard monomials fill, the monomial fill itself,
    and the minimal generators of the complementary monomial ideal."""

    __slots__ = ("partition", "fill", "generators")

    def __init__(self, partition: Partition, fill: tuple, generators: tuple):
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "fill", fill)  # standard monomials per degree
        # minimal generators of (E_Q) as (x-exp, y-exp)
        object.__setattr__(self, "generators", generators)


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


def _moved(vec, a, b):
    """The row of a^e g((x' - b y')/a, y') for the row vec of a form g of
    degree e and a != 0: entry t scaled by a^(e-t), then Taylor shifted by
    -b with Horner's scheme.  For a = 0, b = 1, the row of g(y', x')."""
    if a == 0:
        return vec[::-1]
    e = len(vec) - 1
    out = [v * a ** (e - t) for t, v in enumerate(vec)]
    for i in range(e):
        for k in range(e - 1, i - 1, -1):
            out[k] -= b * out[k + 1]
    return out


def _moved_standard(rows, a, b, j):
    """The x-exponents of the standard monomials of each degree 0 .. j of
    the ideal I' whose generator rows, given as (degree, integer row)
    pairs, are moved by _moved for the pair (a, b).

    Only pivots are read, so the ideal is built forward only, with
    linalg.insert, one degree from the last.  The rows kept for I'_(i-1),
    each with a zero appended, are a forward-only basis of y I'_(i-1) under
    the same keys.  Let N be the rows that were new in degree i - 1, past
    y I'_(i-2).  Then I'_i = y I'_(i-1) + x N + the generators of degree i,
    since I'_(i-1) = y I'_(i-2) + span(N) and x y I'_(i-2) lies in
    y I'_(i-1).  So x N and those generators are inserted.  A row of x N is
    a kept row shifted up by one place, already reduced and zero before its
    key, where a shift x^(i-e) g', as _build takes it, would start from the
    raw moved generator.  The keys are the pivots of I'_i, and the standard
    monomials are the other columns.
    """
    moved = [(e, _moved(vec, a, b)) for e, vec in rows]
    basis, new, std = {}, [], []
    for i in range(j + 1):
        basis = {c: [*row, 0] for c, row in basis.items()}  # y I'_(i-1)
        vectors = [[0, *row] for row in new] + [vec for e, vec in moved if e == i]
        new = []
        for vec in vectors:  # x N, then the generators of degree i
            c = linalg.insert(basis, vec)
            if c is not None:
                new.append(basis[c])
        std.append([t for t in range(i + 1) if t not in basis])
    return std


def initial_ideal(ideal, ell, algebra=None):
    """Initial monomial data of I in the direction ell.

    Coordinates are changed so that ell becomes x (complement y, or x when
    ell is proportional to y), with (a, b) the primitive pair of ell's
    coefficients, since no scaling moves a leading monomial.  The standard
    monomials of the moved ideal in the order y^i > ... > x^i are read by
    ArtinAlgebra._standard, and kept there for the rank table in the same
    direction; when ell is a multiple of x they are the algebra's own.
    algebra, when given, is quotient(ideal); otherwise quotient(ideal) is
    built first, and raises BudgetExceeded or NotArtinian as _build does.
    """
    ell = require_linear(ell)
    A = algebra if algebra is not None else quotient(ideal)
    std = A._standard(*_direction(ell))
    fill = tuple(tuple((t, i - t) for t in std[i]) for i in range(A.socle_degree + 1))
    rows = [0] * (A.socle_degree + 1)
    for xa, yb in chain.from_iterable(fill):
        rows[yb] = max(rows[yb], xa + 1)
    parts = [r for r in rows if r]
    if any(p < q for p, q in zip(parts, parts[1:])):
        raise InternalInconsistency("standard monomials do not form a Ferrers diagram")
    Q = Partition(parts)
    if Q.size != A.dimension:
        raise InternalInconsistency(
            f"initial partition {Q} has size {Q.size}, not dim A = {A.dimension}"
        )
    return MonomialCell(partition=Q, fill=fill, generators=cell_generators(Q))


def is_complete_intersection(ideal, algebra=None):
    """Whether I is minimally generated by two forms, and its minimal
    generator degrees, as quotient counts them while it builds the algebra
    (see _build).  algebra, when given, is quotient(ideal)."""
    A = algebra if algebra is not None else quotient(ideal)
    return len(A._generator_degrees) == 2, A._generator_degrees
