"""Graded ideals and Artinian quotients of R = k[x,y], in exact arithmetic.

Within each degree i, monomials are ordered y^i > y^(i-1) x > ... > x^i
(reverse degree-lex with ordered basis (y, x)); leading monomials of an
echelonized ideal are the initial ideal, and the complementary standard
monomials fill the Ferrers diagram of a partition.

Every question about multiplication by a linear form L reads one Ferrers
diagram.  Move coordinates so that L is x, and let I' be the moved ideal.
rank(x^(s-u): A_u -> A_s) = (u + 1) - dim(I'_s meet x^(s-u) R_u), which
the echelon rows of I'_s with pivot at least s - u span, so the rank counts
the standard monomials of I' of degree s divisible by x^(s-u).  They form
an order ideal: row b holds x^t y^b for t < p_b, with p_0 >= p_1 >= ...,
so the rank counts the rows b <= u with b + p_b > s.  Those are the ranks
of one Jordan string (b, p_b) per row, and ranks fix the strings: the
Jordan degree type of L holds each (b, p_b) once, and the Jordan type is
the partition (p_0, p_1, ...), the initial ideal's.

Inside this module a degree-n form is a coordinate vector whose entry t is
the coefficient of x^t y^(n-t), so multiplying by x shifts the vector up by
one place and multiplying by y appends a zero.  Every question reads only
pivots, so _build builds an ideal forward only, with linalg.insert, one
degree from the last, and counts the minimal generators as it goes.  It
builds the quotient, and the ideal moved in each direction that is asked
about; when L is a multiple of x nothing moves, and the quotient's own
standard monomials are read with no elimination.  No reduced echelon form
is built: normal_form_vector reduces a form with linalg._exact_remainder
against the forward-only basis of its degree that _build returns, and
annihilator reduces its second generator against the shifts of its first,
which form such a basis as they stand.  A dual generator is read only
through polynomials.dual_data.

Every row that _build inserts is of ints.  A Fraction is met only in a
BivariatePoly's coefficients, and only where one is not integral: a
generator's row is cleared of denominators once, when the ideal is made,
and a normal form's scale is divided out exactly, in linalg.
"""

from __future__ import annotations

import operator
from bisect import bisect_left

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

    Per degree it keeps the standard monomials that form the basis of A,
    fixed at construction: the columns that are not pivots of I_i, as
    _build reads them off a forward-only basis of each I_i.  No echelon
    form is kept; normal_form_vector builds I again, forward only, through
    the degree of the form that it reduces.  Every question about
    multiplication by a linear form reads the Ferrers diagram of the
    standard monomials of the ideal moved so that the form becomes x
    (_diagram; see the module docstring), kept on the algebra under the
    form.  The moved standard monomials are kept under the
    primitive pair of the form's coefficients (_standard), so a form, its
    multiples and initial_ideal in the same direction share one moved pass;
    under (1, 0) they are the algebra's own, and no elimination runs.
    """

    def __init__(self, ideal, std, generator_degrees):
        self.ideal = ideal
        # degree i -> x-exponents of the standard monomials of degree i,
        # through the first degree in which I is everything
        self._std = std
        # the degrees of a minimal generating set of I, in increasing order
        self._generator_degrees = generator_degrees
        self.hilbert = tuple(map(len, std[:-1]))
        self.socle_degree = len(self.hilbert) - 1
        # linear form -> (moved standard monomials, row lengths of their
        # diagram); a BivariatePoly keeps its hash, and equal forms compare equal
        self._diagrams = {}
        # primitive (a, b) -> the standard monomials of the ideal moved so
        # that a*x + b*y is x; nothing moves for (1, 0)
        self._moved_std = {(1, 0): std}

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

    def normal_form_vector(self, f):
        """Coordinates of a homogeneous form modulo I in the standard basis
        of its degree i: _build builds I forward only through degree i, as
        quotient did, and the form is reduced against the forward-only
        basis of I_i that it returns, with linalg._exact_remainder.  Each
        entry is exact: an int where it is integral, a Fraction otherwise."""
        if f.is_zero():
            return []
        i = f.homogeneous_degree()
        if i > self.socle_degree:
            return []
        basis = _build(self.ideal._rows, i)[2]
        rest = linalg._exact_remainder(basis, _poly_vec(f, i))
        return [rest[t] for t in self._std[i]]

    def _standard(self, a, b):
        """The x-exponents of the standard monomials of each degree 0 .. j
        + 1 of the ideal moved so that a*x + b*y becomes x, for a primitive
        pair (a, b): read by _build off the moved generator rows the first
        time, up to degree j + 1, and kept under (a, b).  A change of
        coordinates keeps the Hilbert function, so InternalInconsistency is
        raised when theirs is not the algebra's, or when the moved ideal is
        not everything in degree j + 1."""
        std = self._moved_std.get((a, b))
        if std is None:
            moved = [(e, _moved(vec, a, b)) for e, vec in self.ideal._rows]
            std = _build(moved, self.socle_degree + 1)[0]
            hilbert, want = tuple(map(len, std)), (*self.hilbert, 0)
            if hilbert != want:
                raise InternalInconsistency(
                    f"moved by ({a}, {b}), I = ({self.ideal}) has Hilbert function "
                    f"{hilbert} through degree {len(want) - 1}, not {want}"
                )
            self._moved_std[(a, b)] = std
        return std

    def _diagram(self, ell):
        """(std, rows) for a nonzero linear form ell, kept under ell: std is
        _standard in ell's direction, and rows the lengths p_b > 0 of the
        rows of the Ferrers diagram that it fills, which sum to dim A, as
        _standard checked the moved Hilbert function.  InternalInconsistency
        is raised unless std fills one.  The module docstring says why every
        question about ell reads it; no dual generator is read."""
        diagram = self._diagrams.get(ell)
        if diagram is None:
            std = self._standard(*_direction(ell))
            rows = _row_lengths(std)
            if rows is None:
                raise InternalInconsistency(
                    f"moved so that {ell} is x, the standard monomials of "
                    f"({self.ideal}) do not form a Ferrers diagram"
                )
            diagram = self._diagrams[ell] = std, rows
        return diagram

    def __repr__(self):
        return f"ArtinAlgebra(H={self.hilbert}, I=({self.ideal}))"


def _build(rows, top):
    """(std, generator degrees, basis) of the ideal I with generator rows
    given as (degree, integer row) pairs: the x-exponents of the standard
    monomials of each degree 0 .. i, where i is the first degree in which I
    is everything, or top if there is none before it, the degrees of a
    minimal generating set of the part of I built, and the forward-only
    basis of I_i, as linalg.insert keeps one.

    Only pivots are read, so I is built forward only, with linalg.insert,
    one degree from the last.  The rows kept for I_(i-1), each with a zero
    appended, are a forward-only basis of y I_(i-1) under the same keys.
    Let N be the rows that were new in degree i - 1, past y I_(i-2).  Then
    R_1 I_(i-1) = y I_(i-1) + x N, since I_(i-1) = y I_(i-2) + span(N) and
    x y I_(i-2) lies in y I_(i-1), and I_i is that plus the generators of
    degree i.  So x N goes in first, and the generators of degree i that
    insert then accepts count the minimal generators of degree i.  A row of
    x N is a kept row shifted up by one place, already reduced and zero
    before its key.  The keys are the pivots of I_i, and the standard
    monomials are the other columns.
    """
    basis, new, std, degrees = {}, [], [], []
    for i in range(top + 1):
        basis = {c: [*row, 0] for c, row in basis.items()}  # y I_(i-1)
        keys = [linalg.insert(basis, [0, *row]) for row in new]  # x N
        grown = len(basis)  # dim R_1 I_(i-1)
        keys += [linalg.insert(basis, vec) for e, vec in rows if e == i]
        degrees += [i] * (len(basis) - grown)
        new = [basis[c] for c in keys if c is not None]
        std.append([t for t in range(i + 1) if t not in basis])
        if not std[-1]:
            break
    return std, tuple(degrees), basis


def _row_lengths(std):
    """The row lengths p_0 >= p_1 >= ... > 0 of the Ferrers diagram whose
    cells x^t y^b are listed by their x-exponents t in std[t + b], in
    increasing order; None unless std fills such a diagram."""
    rows = [0] * len(std)
    for s, exponents in enumerate(std):
        for t in exponents:
            if rows[s - t] != t:
                return None
            rows[s - t] = t + 1
    if any(map(operator.lt, rows, rows[1:])):
        return None
    return tuple(p for p in rows if p)


def quotient(ideal):
    """The algebra R/I, built by _build from the generators' integer rows.
    Raises BudgetExceeded when a generator's degree is over MAX_DEGREE, and
    NotArtinian, naming ideal, when dim A_i stays positive past twice the
    largest degree (plus guard)."""
    maxdeg = max(e for e, _ in ideal._rows)
    if maxdeg > MAX_DEGREE:
        raise BudgetExceeded(
            f"a generator of degree {maxdeg} is over the cap of {MAX_DEGREE}"
        )
    bound = 2 * maxdeg + 2
    std, degrees, _ = _build(ideal._rows, bound)
    if std[-1]:
        raise NotArtinian(f"dim A_{bound} = {len(std[-1])} > 0 for I = ({ideal})")
    return ArtinAlgebra(ideal, std, degrees)


def annihilator(F):
    """Minimal homogeneous generators of Ann(F) = {f : f o F = 0}, for a
    nonzero binary form F of degree j.

    A form f of degree n, with coordinate t the coefficient of x^t y^(n-t),
    annihilates F exactly when sum_t f_t g_(k-t) = 0 for n <= k <= j, g
    being F's divided-power vector: when f is a connection polynomial of
    g.  Each row of polynomials.catalecticant(g, n) is one of these sums.

    R/Ann(F) is Gorenstein of codimension two, so by the structure theorem
    in codimension two (Macaulay; Iarrobino-Kanev, "Power Sums, Gorenstein
    Algebras, and Determinantal Loci", LNM 1721) Ann(F) is a
    complete intersection generated in degrees d <= e with d + e = j + 2,
    where d is the rank of the middle catalecticant, i = j // 2.  Both
    generators come from the one Berlekamp-Massey pass over g that
    polynomials.dual_data runs and keeps: its final connection polynomial
    C, of degree L, and x^m B, of degree j + 2 - L.  They are (first,
    second) when L = d and the other way round otherwise.  dual_data checks
    F and raises its errors: ZeroInput, ParseError naming F in X and Y when
    F is not homogeneous, and BudgetExceeded when j + 1 > MAX_DEGREE.

    When d = e both lie in Ann(F)_d, of dimension 2, and the first
    generator is the one kernel vector, up to scale, whose last nonzero
    entry is at the smaller of the kernel's two free columns, so it is the
    first vector that linalg.kernel_basis gives there, up to scale.  The
    second is reduced modulo R_(e-d) times the first with linalg.remainder:
    the shifts x^a y^(e-d-a) times the first start at the consecutive
    columns p + a, p the first's first nonzero column, so they form a
    forward-only basis as they stand and no echelon form is built.  Each
    generator is scaled to coprime integer coefficients with a positive
    leading term.  InternalInconsistency is raised, under python -O too,
    unless the two fit the degrees d and e, each is nonzero and has dot
    product 0 with every row of its catalecticant, and the second is
    nonzero modulo those shifts; the first is checked before its shifts are
    built.  Those primitive rows are the ideal's rows as they stand: they
    go to GradedIdeal._from_rows with the generators built from them.
    """
    g, d, C, B, m = dual_data(F)
    e = len(g) + 1 - d  # d + e = j + 2
    pair = (C, [0] * m + B)
    lo, hi = pair if len(C) == d + 1 else pair[::-1]
    if len(lo) != d + 1 or len(hi) != e + 1:
        raise InternalInconsistency(
            f"Ann({F}) read generators of degrees {len(lo) - 1} and {len(hi) - 1} "
            f"off the Berlekamp-Massey pass, not {d} and {e}"
        )
    if d == e:
        lo, hi = _free_column_order(lo, hi)
    first = _checked(F, g, d, linalg.primitive(lo))
    # R_(e-d) * first: x^a y^(e-d-a) times the degree-d generator, a
    # forward-only basis keyed by the column p + a where it starts
    p = next(t for t, v in enumerate(first) if v)
    shifts = {p + a: [0] * a + first + [0] * (e - d - a) for a in range(e - d + 1)}
    second = linalg.primitive(linalg.remainder(shifts, hi)[0])
    if not any(second):
        raise InternalInconsistency(f"Ann({F}) has no generator in degree {e}")
    rows = ((d, first), (e, _checked(F, g, e, second)))
    return GradedIdeal._from_rows(rows, [_vec_poly(vec, n) for n, vec in rows])


def _checked(F, g, n, vec):
    """vec, a degree-n generator of Ann(F) read off the Berlekamp-Massey
    pass over F's divided-power vector g; InternalInconsistency, under
    python -O too, when it is zero or has a nonzero dot product with a row
    of its catalecticant."""
    if not any(vec) or any(sum(map(operator.mul, row, vec)) for row in catalecticant(g, n)):
        raise InternalInconsistency(
            f"the degree-{n} generator {_vec_poly(vec, n)} read off the "
            f"Berlekamp-Massey pass is zero or does not annihilate {F}"
        )
    return vec


def _last(vec):
    """The index of the last nonzero entry of a vector; -1 when it is 0."""
    return max((t for t, v in enumerate(vec) if v), default=-1)


def _free_column_order(u, w):
    """Two vectors spanning a kernel of dimension 2, the first of them the
    one, up to scale, whose last nonzero entry is the kernel's smaller free
    column.  A vector of the kernel ends at one of its free columns, and
    only the multiples of one vector end at the smaller; when u and w end
    at the same column, w is replaced by the combination that clears it."""
    p, q = _last(u), _last(w)
    if p == q:
        w = [u[p] * x - w[p] * y for x, y in zip(w, u)]
        q = _last(w)
    return (u, w) if p < q else (w, u)


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
    """Exact rank of multiplication by ell^(s-u) from A_u to A_s: the number
    of standard monomials of degree s divisible by x^(s-u) once ell is
    moved to x, one bisect in the diagram that ArtinAlgebra._diagram keeps
    for ell.  ell is validated only when it has no diagram yet, since every
    key of A's diagrams passed require_linear; the type is checked first,
    so an unhashable ell raises ZeroForm too."""
    diagram = A._diagrams.get(ell) if isinstance(ell, BivariatePoly) else None
    if diagram is None:
        diagram = A._diagram(require_linear(ell))
    if not 0 <= u <= s or s > A.socle_degree:
        raise DegreeOutOfRange(f"need 0 <= {u} <= {s} <= {A.socle_degree}")
    std = diagram[0][s]
    return len(std) - bisect_left(std, s - u)


def jordan_type(A, ell):
    """Jordan block partition of the nilpotent multiplication map m_ell: the
    row lengths of the diagram that ArtinAlgebra._diagram keeps for ell."""
    return Partition(A._diagram(require_linear(ell))[1])


def jordan_degree_type(A, ell):
    """Multiset of (start degree, length) of the Jordan strings of m_ell:
    one string (b, p_b) for each row b of the diagram that
    ArtinAlgebra._diagram keeps for ell, whose cells are y^b (1, x, ...,
    x^(p_b - 1)) once ell is moved to x.  Every multiplicity is 1; the
    module docstring says why."""
    rows = A._diagram(require_linear(ell))[1]
    return JordanDegreeType({(b, p): 1 for b, p in enumerate(rows)})


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


def initial_ideal(ideal, ell, algebra=None):
    """Initial monomial data of I in the direction ell.

    Coordinates are changed so that ell becomes x (complement y, or x when
    ell is proportional to y), with (a, b) the primitive pair of ell's
    coefficients, since no scaling moves a leading monomial.  The standard
    monomials of the moved ideal in the order y^i > ... > x^i and the rows
    of their Ferrers diagram are ArtinAlgebra._diagram's, shared with every
    other question about ell; when ell is a multiple of x they are the
    algebra's own.  algebra, when given, is quotient(ideal); otherwise
    quotient(ideal) is built first, and raises BudgetExceeded or
    NotArtinian as quotient does.
    """
    ell = require_linear(ell)
    A = algebra if algebra is not None else quotient(ideal)
    std, rows = A._diagram(ell)
    fill = tuple(tuple((t, i - t) for t in std[i]) for i in range(A.socle_degree + 1))
    Q = Partition(rows)
    return MonomialCell(partition=Q, fill=fill, generators=cell_generators(Q))


def is_complete_intersection(ideal, algebra=None):
    """Whether I is minimally generated by two forms, and its minimal
    generator degrees, as quotient counts them while it builds the algebra
    (see _build).  algebra, when given, is quotient(ideal)."""
    A = algebra if algebra is not None else quotient(ideal)
    return len(A._generator_degrees) == 2, A._generator_degrees
