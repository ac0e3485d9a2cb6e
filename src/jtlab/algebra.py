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
appends the zero of the y-shift to its kept rows in place, and stores an
x-shift whose lead no row holds as it stands, since a shifted primitive
row is primitive; only a shift that meets a row, and a generator, goes
through insert.  It builds the quotient, and the ideal moved for each
linear form that is asked about; when L is a multiple of x nothing moves,
and the quotient's own standard monomials are read with no elimination.
The Jordan type of a form is built once, as a Partition that is not
checked again, and carries the algebra's HilbertFunction when that is
CI-shaped (ArtinAlgebra._diagram).  No reduced echelon form
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
from functools import cached_property

from . import linalg
from .errors import (
    BudgetExceeded,
    DegreeOutOfRange,
    InternalInconsistency,
    NotArtinian,
    NotCIShape,
    ParseError,
    ZeroForm,
    ZeroInput,
    _integer,
    _integers,
    _Value,
)
from .partitions import HilbertFunction, JordanDegreeType, Partition, share_hilbert
from .polynomials import MAX_DEGREE, BivariatePoly, _direction, catalecticant, dual_data

__all__ = [
    "GradedIdeal",
    "ArtinAlgebra",
    "MonomialCell",
    "annihilator",
    "quotient",
    "jordan_type",
    "rank_mult_power",
    "jordan_degree_type",
    "initial_ideal",
    "is_complete_intersection",
    "require_linear",
]


def _poly_vec(f, n):
    """Coordinates of a degree-n form in the y-descending monomial order."""
    return [f.coefficient(t, n - t) for t in range(n + 1)]


def _vec_poly(vec, n):
    return BivariatePoly({(t, n - t): c for t, c in enumerate(vec) if c})


class GradedIdeal(_Value):
    """An ideal of k[x,y] given by homogeneous generators.

    Each generator g of degree e is also kept, in the private slot _rows,
    as the pair (e, linalg.primitive(_poly_vec(g, e))): its degree and its
    coordinate row as coprime integers.  quotient builds from these rows,
    and ArtinAlgebra._diagram moves them, so no Fraction is converted
    again after construction.  Its one field is generators and _rows is a
    memo (see errors._Value): two ideals are equal when they list the same
    generators in the same order, and a copy reads its rows again.

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

    def __str__(self):
        return ", ".join(g.text() for g in self.generators)

    def __repr__(self):
        # a call that rebuilds an equal ideal, each generator written as
        # BivariatePoly's repr writes it
        return f"GradedIdeal({list(self.generators)!r})"


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
    (_diagram; see the module docstring), kept on the algebra in one store,
    _diagrams, under the form that the caller holds, with the one Partition
    of its row lengths, the form's Jordan type.  So every question about a
    form, and initial_ideal in it, shares one moved pass; for a multiple of
    x the standard monomials are the algebra's own, and no elimination
    runs.  When the Hilbert function is CI-shaped, its HilbertFunction is
    validated once, when the first diagram is built (_ci_hilbert), and
    every diagram's partition carries it.
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
        # linear form -> (moved standard monomials, the Partition of the row
        # lengths of their diagram); a BivariatePoly keeps its hash, and
        # equal forms compare equal
        self._diagrams = {}

    @property
    def dimension(self):
        return sum(self.hilbert)

    def dim(self, i):
        """dim A_i, 0 outside the degrees of A; an i that is not an int is
        read by errors._integer (ParseError for a bool, a float, a str or
        None)."""
        i = _integer(i, "a degree is an integer")
        if 0 <= i < len(self.hilbert):
            return self.hilbert[i]
        return 0

    def basis(self, i):
        """Standard monomials of degree i, as (x-exp, y-exp) pairs; none
        outside the degrees of A.  i is read as dim reads it."""
        i = _integer(i, "a degree is an integer")
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

    @cached_property
    def _ci_hilbert(self):
        """The HilbertFunction of A's Hilbert function, validated on the
        first read, or None when it is not CI-shaped."""
        try:
            return HilbertFunction(self.hilbert)
        except NotCIShape:
            return None

    def _diagram(self, ell):
        """(std, P) for a linear form ell, kept in _diagrams under ell, the
        one lookup of every question about a form: std holds the
        x-exponents of the standard monomials of each degree 0 .. j + 1 of
        the ideal moved so that ell becomes x, and P the Partition of the
        lengths p_b > 0 of the rows of the Ferrers diagram that they fill.
        The module docstring says why every question about ell reads it; no
        dual generator is read.

        A kept form is returned with no check, since it passed
        require_linear when it was kept; the type is checked before the
        lookup, so an ell that is no BivariatePoly, hashable or not,
        raises ZeroForm.  Otherwise ell is checked by require_linear
        (ZeroForm or ParseError) and its direction (a, b) read by
        polynomials._direction.  For (1, 0), a multiple of x, nothing moves
        and std is the algebra's own.  For any other direction _build reads
        std off the moved generator rows, up to degree j + 1; a change of
        coordinates keeps the Hilbert function, so InternalInconsistency is
        raised when theirs is not the algebra's, or when the moved ideal is
        not everything in degree j + 1.  It is raised too unless std fills
        a Ferrers diagram, and then nothing is kept.

        P is built once, by Partition._checked, since _row_lengths has
        checked its rows.  Its diagonal lengths are the moved Hilbert
        function, checked to be A's, so P is given A's one HilbertFunction,
        _ci_hilbert, through share_hilbert, and nothing of P is validated
        again.  When A's is not CI-shaped, _ci_hilbert is None and P holds
        no HilbertFunction, as a fresh partition does."""
        diagram = self._diagrams.get(ell) if isinstance(ell, BivariatePoly) else None
        if diagram is None:
            require_linear(ell)
            a, b = _direction((ell.coefficient(1, 0), ell.coefficient(0, 1)))
            if (a, b) == (1, 0):
                std = self._std
            else:
                moved = [(e, _moved(vec, a, b)) for e, vec in self.ideal._rows]
                std = _build(moved, self.socle_degree + 1)[0]
                hilbert, want = tuple(map(len, std)), (*self.hilbert, 0)
                if hilbert != want:
                    raise InternalInconsistency(
                        f"moved by ({a}, {b}), I = ({self.ideal}) has Hilbert function "
                        f"{hilbert} through degree {len(want) - 1}, not {want}"
                    )
            rows = _row_lengths(std)
            if rows is None:
                raise InternalInconsistency(
                    f"moved so that {ell} is x, the standard monomials of "
                    f"({self.ideal}) do not form a Ferrers diagram"
                )
            P = share_hilbert(Partition._checked(rows), self._ci_hilbert)
            diagram = self._diagrams[ell] = std, P
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

    Only pivots are read, so I is built forward only, one degree from the
    last.  Below the lowest generator degree I is 0 and every monomial is
    standard; the generator rows are grouped by degree once.  Let N be the
    rows that were new in degree i - 1, past y I_(i-2).  Then R_1 I_(i-1)
    = y I_(i-1) + x N, since I_(i-1) = y I_(i-2) + span(N) and x y I_(i-2)
    lies in y I_(i-1), and I_i is that plus the generators of degree i.
    The x-shifts [0, *row] of N are taken first; then a zero is appended to
    every kept row in place, which makes the rows of I_(i-1) a forward-only
    basis of y I_(i-1) under the same keys.  An x-shift is a kept row moved
    up one place, primitive with a positive lead at its key plus one: when
    no row leads there it is stored as it stands, and only a shift that
    meets a row there, and each generator of degree i, goes through
    linalg.insert.  The generators of degree i that insert accepts count
    the minimal generators of degree i.  The keys are the pivots of I_i,
    and the standard monomials are the other columns.

    Every kept row is a list of _build's own: insert never stores the list
    it is given, and an x-shift is a new list, so the rows passed in (an
    ideal's _rows, or its moved rows) are never changed.
    """
    gens = {e: [vec for f, vec in rows if f == e] for e, _ in rows}
    low = min(gens, default=top + 1)
    std = [list(range(i + 1)) for i in range(min(low, top + 1))]
    basis, new, degrees = {}, [], []
    for i in range(low, top + 1):
        shifts = [(c + 1, [0, *basis[c]]) for c in new]  # x N
        for row in basis.values():
            row.append(0)  # y I_(i-1)
        # a shift whose lead no row holds is stored there as it stands
        keys = [
            c if basis.setdefault(c, row) is row else linalg.insert(basis, row)
            for c, row in shifts
        ]
        grown = len(basis)  # dim R_1 I_(i-1)
        keys += [linalg.insert(basis, vec) for vec in gens.get(i, ())]
        degrees += [i] * (len(basis) - grown)
        new = [c for c in keys if c is not None]
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
    for ell, which checks ell only when it keeps none yet (ZeroForm or
    ParseError), before the degrees are checked.  u and s are read by
    errors._integers, after a check that passes two ints as they are
    (ParseError for a bool, a float, a str or None)."""
    diagram = A._diagram(ell)
    if not type(u) is type(s) is int:
        u, s = _integers((u, s), "the degrees u and s are integers")
    if not 0 <= u <= s or s > A.socle_degree:
        raise DegreeOutOfRange(f"need 0 <= {u} <= {s} <= {A.socle_degree}")
    std = diagram[0][s]
    return len(std) - bisect_left(std, s - u)


def jordan_type(A, ell):
    """Jordan block partition of the nilpotent multiplication map m_ell: the
    partition of the row lengths of the diagram that ArtinAlgebra._diagram
    keeps for ell, the same object on every call; _diagram checks ell when
    it keeps none for it yet."""
    return A._diagram(ell)[1]


def jordan_degree_type(A, ell):
    """Multiset of (start degree, length) of the Jordan strings of m_ell:
    one string (b, p_b) for each part p_b of jordan_type(A, ell), the
    length of row b of the diagram that ArtinAlgebra._diagram keeps for
    ell, whose cells are y^b (1, x, ..., x^(p_b - 1)) once ell is moved to
    x.  Every multiplicity is 1; the
    module docstring says why."""
    return JordanDegreeType({(b, p): 1 for b, p in enumerate(jordan_type(A, ell))})


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


def initial_ideal(A, ell):
    """Initial monomial data of A's ideal in the direction ell.

    Coordinates are changed so that ell becomes x (complement y, or x when
    ell is proportional to y), with (a, b) the primitive pair of ell's
    coefficients, since no scaling moves a leading monomial.  The standard
    monomials of the moved ideal in the order y^i > ... > x^i and the
    partition of their Ferrers diagram are ArtinAlgebra._diagram's, kept
    under ell and shared with every other question about it; when ell is a
    multiple of x they are the algebra's own.  ell is checked there, as
    for every question about a form: by require_linear before a diagram is
    built for it, and never again once one is kept under it.
    """
    std, Q = A._diagram(ell)
    fill = tuple(tuple((t, i - t) for t in std[i]) for i in range(A.socle_degree + 1))
    return MonomialCell(partition=Q, fill=fill, generators=cell_generators(Q))


def is_complete_intersection(A):
    """Whether A's ideal is minimally generated by two forms, and its
    minimal generator degrees, as quotient counts them while it builds A
    (see _build)."""
    return len(A._generator_degrees) == 2, A._generator_degrees
