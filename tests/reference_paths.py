"""Earlier bodies of twenty-eight routines, kept as references for
differential tests of the versions in jtlab: five slower combinatorial
ones, one of them caret_text, the text of a partition written by its own
run count, the branch-label enumeration with its own interval-split helper
and _arranged, the sort into forced order that jtlab once ran, the
complete-intersection test that counts new generators in every degree with
one elimination each, the initial ideal that substitutes Fraction
polynomials for x and y, the annihilator that echelonizes every degree 0 ..
j+1, the rank table that carries the image of each A_u one step at a time,
the Jordan degree type read off a rank table by second differences, two
quotients, one that echelonizes the whole degree_span of every degree
and one that grows the reduced echelon form of each degree from the last
with extend, the fraction-free Gauss-Jordan elimination (Bareiss)
that the others eliminate with, and the realization chain of construct_ci,
built on Fraction tuples and checked by products of BivariatePoly, and
the three dual-side reads that one Berlekamp-Massey pass per direction
replaced: middle_catalecticant_rank, the d that dual_data once took as a
rank, hessian_rank_at, one weight loop and one rank per order, and
two_kernel_annihilator, which read Ann(F) off the kernels of two
catalecticants.  Three more references read F alone and share no code
with the quotient: divided_power_vector forms each c_m (j-m)! m! as a
Fraction times two factorials, as jtlab did before it cleared F's
denominators once, dual_rank_table reads the rank table of R/Ann(F) by
Macaulay duality, with no rank kernel, and d_sequence builds the vector
of every power of a linear form applied to F with its own weight loop and
takes each middle catalecticant rank.  And four are the reduced-form
elimination that linalg once ran beside its forward-only insert: extend,
which adds one vector to a reduced echelon form (pivots, rows, lead) and
keeps lead the least common denominator, extend_echelon, which folds it
over a matrix, reduced_remainder, lead times the remainder of a vector
modulo a reduced or Bareiss form, and null_vectors, an integer kernel
basis read off either.  And insert_build is algebra._build as it ran
before an x-shift with a free lead was stored as it stands: every x-shift
and generator through linalg.insert, onto copies of the kept rows made in
every degree.

Each returns exactly what the jtlab function of the same name returns;
rank_table and dual_rank_table return rank_mult_power(A, ell, u, s) for
every 0 <= u <= s <= j, as tests_support.rank_table lays it out, which
jtlab counts off the Ferrers diagram of the moved ideal's standard
monomials, with no one-step map, and rank_table_jordan_degree_type(table)
is jordan_degree_type(A, ell) when table holds the ranks of ell on A,
which jtlab reads one string per row off that same diagram; one_step_columns
gives the one-step multiplication maps with no common factor divided out,
and degree_span is the spanning set that GradedIdeal once offered.  Both
quotients return a Quotient, an ArtinAlgebra that also keeps the echelon
form of every degree, which jtlab's quotient no longer does.  rank_table,
one_step_columns and is_complete_intersection, given one of jtlab's
algebras, read their forms off extend_quotient of its ideal, never off
jtlab's build.  echelon returns the same pivots and the same reduced row
echelon form over Q as extend_echelon, but scaled by its last pivot value,
a determinant that may be negative, not by the least common denominator;
so the forms of the two quotients agree over Q, not entry by entry.  Every
elimination here is the Bareiss echelon of this module, never the
forward-only linalg.insert that jtlab builds its quotients with, with three
exceptions.  insert_build runs linalg.insert, since what it checks is
which rows _build may store without it.  The four dual-side references run linalg.rank and
extend_echelon as jtlab once ran them, so they are exactly the code that
the Berlekamp-Massey pass replaced; linalg.rank is itself checked against
the Bareiss echelon.  And extend_quotient folds extend, the reduced
forms that jtlab once kept, since the Bareiss quotient takes seconds on a
dense dual of degree 30.  It is checked against the Bareiss quotient on its own, and
initial_ideal builds the moved ideal with it; what that checks is the
change of coordinates, done with BivariatePoly products instead of the
integer rows that jtlab moves.  jtlab's normal forms and Ann(F) reduce
with linalg.remainder against forward-only bases; reduced_remainder on
the Bareiss forms is their reference.  Last, generic_jordan_type gives the
Jordan types of a general dual generator by the closed forms that jtlab
once computed, a window search for an order i, where jtlab now reads them
off the bijection cijt_from_hessian_subset.  Three more were jtlab's
display-only routines, which decided nothing: hessian_determinant, the
cofactor expansion of the symbolic i-th Hessian with (i + 1)! terms, the
reference that any other computation of that determinant is tested
against; evaluate_matrix, which substitutes a rational point into every
entry of a matrix of forms; and evaluate, which substitutes it into one.
"""

import math
import random
from bisect import bisect_left
from fractions import Fraction
from functools import reduce
from operator import mul

from jtlab import linalg
from jtlab.algebra import (
    MAX_DEGREE,
    ArtinAlgebra,
    GradedIdeal,
    MonomialCell,
    _vec_poly,
    cell_generators,
    require_linear,
)
from jtlab.codes import E, BranchLabel, _validate_label, is_cijt
from jtlab.constructor import Realization
from jtlab.errors import (
    BudgetExceeded,
    DiagonalMismatch,
    InternalInconsistency,
    InvalidLabel,
    NotArtinian,
    NotCIJT,
    NotCIShape,
    OrderOutOfRange,
    ParseError,
    TopRequiresKGe2,
)
from jtlab.hessians import hessian_matrix
from jtlab.partitions import (
    HilbertFunction,
    JordanDegreeType,
    Partition,
    hilbert_function,
    sl_partition,
)
from jtlab.polynomials import BivariatePoly, catalecticant


def _divide_exact(row, den):
    """row / den entrywise, in one divmod pass; fraction-free elimination
    guarantees that each quotient is an integer."""
    out = []
    for v in row:
        q, r = divmod(v, den)
        if r:
            raise InternalInconsistency("fraction-free elimination lost integrality")
        out.append(q)
    return out


def echelon(rows):
    """Fraction-free reduced echelon form of a matrix with integer entries.

    Gauss-Jordan elimination on integer rows (Bareiss, "Sylvester's
    identity and multistep integer-preserving Gaussian elimination", Math.
    Comp. 1968, applied above the pivot as well as below it).  Every entry
    it produces is a minor of its input, so each division is exact and no
    rational number appears inside the elimination; lead is the last pivot
    value, a determinant whose length grows with the matrix.

    Returns (pivots, reduced, lead): the pivot columns in increasing order,
    and one row per pivot in which column pivots[k] holds lead and every
    other pivot column holds 0.  reduced / lead is the reduced row echelon
    form over Q, and reduced spans the row space of rows.
    """
    m = [list(row) for row in rows if any(row)]
    ncols = len(m[0]) if m else 0
    pivots = []
    prev = 1  # the previous pivot value, which divides every update exactly
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        prow = m[r]
        lead = prow[c]
        for i, row in enumerate(m):
            if i != r:
                head = row[c]
                new = [lead * v - head * w for v, w in zip(row, prow)]
                m[i] = _divide_exact(new, prev) if prev != 1 else new
        pivots.append(c)
        prev = lead
    return pivots, m[: len(pivots)], prev


def reduced_remainder(vec, pivots, rows, lead):
    """lead times the remainder of vec modulo an echelon form (pivots,
    rows, lead), reduced or Bareiss: the unique vector of lead * vec +
    span(rows) that is zero in every pivot column, integral when vec is.
    When lead is 1 and no row touches vec, that is vec itself."""
    out = vec if lead == 1 else [lead * v for v in vec]
    for pc, row in zip(pivots, rows):
        c = vec[pc]
        if c:
            out = [o - c * w for o, w in zip(out, row)]
    return out


def extend(form, vec):
    """The echelon form of span(rows) + span(vec), for an echelon form
    form = (pivots, rows, lead) and an integer vector vec of the same
    length; form itself when vec lies in the span.  The reduced-form
    elimination that jtlab ran before linalg.insert was its only one.

    The remainder of vec, divided by its content with the sign that makes
    its entry p in its first nonzero column c positive, becomes the row of
    a new pivot column c, and c is cleared from the old rows, each scaled
    by p.  The whole form is then divided by its content, the gcd of the
    new lead and every entry, with the sign that makes lead positive; a new
    lead of 1 needs no such pass.  So rows / lead is the reduced row echelon
    form over Q, lead > 0 is its least common denominator, and lead and the
    entries of rows have no common factor.  The input lists are not
    changed, but the result may share them: when p is 1, an old row with a
    zero in column c is returned as the same list, and the new row may be
    vec itself.
    """
    pivots, rows, lead = form
    rest = reduced_remainder(vec, pivots, rows, lead)
    c = next((c for c, v in enumerate(rest) if v), None)
    if c is None:
        return form
    g = math.gcd(*rest)
    if rest[c] < 0:
        g = -g
    if g != 1:
        rest = [v // g for v in rest]
    p = rest[c]
    # row / lead - (row[c] / lead) (rest / p), over the common scale lead * p
    new = [
        [p * v - row[c] * w for v, w in zip(row, rest)]
        if row[c]
        else row if p == 1 else [p * v for v in row]
        for row in rows
    ]
    k = bisect_left(pivots, c)
    new.insert(k, rest if lead == 1 else [lead * w for w in rest])
    lead *= p
    if lead != 1:
        content = lead
        for row in new:
            content = math.gcd(content, *row)
            if content == 1:
                break
        if lead < 0:
            content = -content
        if content != 1:
            new = [[v // content for v in row] for row in new]
            lead //= content
    return [*pivots[:k], c, *pivots[k:]], new, lead


def extend_echelon(rows):
    """The echelon form (pivots, rows, lead) of the row space of a matrix
    with integer entries: extend folded over its rows, from the form of the
    zero space.  rows / lead is the reduced row echelon form over Q and
    lead > 0 its least common denominator."""
    return reduce(extend, rows, ([], [], 1))


def null_vectors(pivots, reduced, lead, ncols):
    """Integer basis of the null space of a matrix, from its echelon form
    (pivots, reduced, lead) and its row length ncols: one vector per free
    column, holding lead there.  Divided by lead they are kernel_basis."""
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        vec = [0] * ncols
        vec[fc] = lead
        for prow, pc in zip(reduced, pivots):
            vec[pc] = -prow[fc]
        basis.append(vec)
    return basis


def diagonal_lengths(P):
    """Walk every cell (r, m) and count it on the diagonal r + m."""
    P = Partition(P)
    top = max(r + p - 1 for r, p in enumerate(P.parts))
    t = [0] * (top + 1)
    for r, m in P.cells():
        t[r + m] += 1
    return tuple(t)


def caret_text(P):
    """The caret list of P's parts, e.g. "6,2^2,1^2": each run of equal
    parts is counted from where the last one ended."""
    parts = Partition(P).parts
    pieces = []
    start = 0
    while start < len(parts):
        end = start
        while end < len(parts) and parts[end] == parts[start]:
            end += 1
        n = end - start
        pieces.append(f"{parts[start]}^{n}" if n > 1 else f"{parts[start]}")
        start = end
    return ",".join(pieces)


def hook_counts_by_degree(P):
    """Count each leg by rescanning the rows below: O(cells x rows)."""
    P = Partition(P)
    parts = P.parts
    counts = {}
    for r0, p in enumerate(parts):
        hand_degree = r0 + p - 1
        for m in range(p):
            arm = p - m
            leg = sum(1 for q in parts[r0:] if q > m)
            if arm - leg == 1:
                counts[hand_degree] = counts.get(hand_degree, 0) + 1
    return counts


def branch_label_to_partition(label, T):
    """Glue the branches into one cell set and scan it once per row."""
    label = BranchLabel(label)
    T = HilbertFunction(T)
    _validate_label(label, T)
    d, k = T.d, T.k
    s = max(0, k - 2)
    e = label.gaps[-1]
    cells = {(r, m) for r in range(1, d + 1) for m in range(d - r + 1)}
    for i, entry in enumerate(label.entries):
        if entry is E:
            continue
        length = entry + s
        if i < e:
            cells.update((d - i + a, i) for a in range(1, length + 1))
        else:
            r = i - e
            cells.update((r, d - r + a) for a in range(1, length + 1))
    nrows = max(r for r, _ in cells)
    parts = []
    for r in range(1, nrows + 1):
        row = {m for rr, m in cells if rr == r}
        if row != set(range(len(row))):
            raise InvalidLabel(f"{label}: glued diagram is not left justified")
        parts.append(len(row))
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise InvalidLabel(f"{label}: glued rows are not weakly decreasing")
    P = Partition(parts)
    if diagonal_lengths(P) != T.values:
        raise InvalidLabel(f"{label}: diagram has wrong diagonal lengths")
    return P


def symmetric_string_placement(P, T):
    """Backtracking over start degrees with no parity test, rebuilding the
    list of remaining lengths at every node."""
    P = Partition(P)
    T = HilbertFunction(T)
    if diagonal_lengths(P) != T.values:
        raise DiagonalMismatch(f"diagonal lengths of {P} are not {T}")
    j = T.j
    cap = list(T.values)
    remaining = {}
    for p in P.parts:
        remaining[p] = remaining.get(p, 0) + 1
    placed = {}

    def place(i, s, sign):
        for deg in range(i, i + s):
            cap[deg] -= sign
        remaining[s] -= sign
        placed[(i, s)] = placed.get((i, s), 0) + sign

    def fits(i, s):
        return 0 <= i and i + s - 1 <= j and all(cap[deg] > 0 for deg in range(i, i + s))

    def search(prev_s=None, min_i=0):
        lengths = [s for s, m in remaining.items() if m > 0]
        if not lengths:
            return all(c == 0 for c in cap)
        s = max(lengths)
        start = min_i if s == prev_s else 0
        for i in range(start, j + 2 - s):
            mirror = j + 1 - s - i
            if mirror < i or not fits(i, s):
                continue
            if mirror == i:
                place(i, s, +1)
                if search(s, i):
                    return True
                place(i, s, -1)
            else:
                if remaining[s] < 2:
                    continue
                place(i, s, +1)
                if fits(mirror, s):
                    place(mirror, s, +1)
                    if search(s, i):
                        return True
                    place(mirror, s, -1)
                place(i, s, -1)
        return False

    if search():
        return JordanDegreeType(placed)
    return None


def _interval_splits(lo, hi):
    """All divisions of the interval [lo, hi] into consecutive subintervals."""
    n = hi - lo + 1
    if n <= 0:
        yield ()
        return
    for mask in range(1 << (n - 1)):
        intervals = []
        start = lo
        for pos in range(n - 1):
            if mask >> pos & 1:
                intervals.append((start, lo + pos))
                start = lo + pos + 1
        intervals.append((start, hi))
        yield tuple(intervals)


def _arranged(verticals, horizontals):
    """Expand interval sets in their forced order: vertical intervals by
    decreasing minimum, horizontal by decreasing maximum."""
    vert = []
    for lo, hi in sorted(verticals, key=lambda iv: -iv[0]):
        vert.extend(range(lo, hi + 1))
    horiz = []
    for lo, hi in sorted(horizontals, key=lambda iv: -iv[1]):
        horiz.extend(range(lo, hi + 1))
    return vert, horiz


def enumerate_branch_labels(T):
    """Interval splits from their own bitmask walk, and one copy of the
    vertical/horizontal mask loop for each k >= 2 and k = 1; the intervals
    are put in their forced order by sorting (_arranged), and every label
    is parsed by BranchLabel."""
    T = HilbertFunction(T)
    d, k = T.d, T.k
    labels = []
    if k >= 2:
        for intervals in _interval_splits(1, d):
            for mask in range(1 << len(intervals)):
                verts = [iv for b, iv in enumerate(intervals) if mask >> b & 1]
                horizs = [iv for b, iv in enumerate(intervals) if not mask >> b & 1]
                vert, horiz = _arranged(verts, horizs)
                labels.append(BranchLabel([*vert, E, *horiz]))
    else:
        for g in range(1, d + 1):
            between = list(range(1, g))
            if g == d:
                labels.append(BranchLabel([E, *between, E]))
                continue
            for intervals in _interval_splits(g, d - 1):
                for mask in range(1 << len(intervals)):
                    verts = [iv for b, iv in enumerate(intervals) if mask >> b & 1]
                    horizs = [iv for b, iv in enumerate(intervals) if not mask >> b & 1]
                    vert, horiz = _arranged(verts, horizs)
                    labels.append(BranchLabel([*vert, E, *between, E, *horiz]))
    return labels


def _shifts(rows):
    """Rows spanning R_1 * V in degree n + 1, from rows spanning V in degree n."""
    return [[0, *row] for row in rows] + [[*row, 0] for row in rows]


def degree_span(ideal, i):
    """Spanning set of the degree-i piece of ideal: monomial multiples of
    the generators, as integer coordinate rows."""
    rows = []
    for e, vec in ideal._rows:
        if e <= i:
            # x^a y^(i-e-a) * g
            rows.extend([0] * a + vec + [0] * (i - e - a) for a in range(i - e + 1))
    return rows


class Quotient(ArtinAlgebra):
    """An ArtinAlgebra that also keeps, as echelons, the echelon form
    (pivots, rows, lead) of I_i in each degree 0 .. socle + 1, off whose
    pivots its standard monomials are read."""

    def __init__(self, ideal, echelons, generator_degrees):
        std = [
            sorted(set(range(i + 1)) - set(pivots))
            for i, (pivots, _, _) in enumerate(echelons)
        ]
        super().__init__(ideal, std, generator_degrees)
        self.echelons = echelons


def _artinian_bound(ideal):
    """2 * (largest generator degree) + 2, the last degree a quotient
    builds; BudgetExceeded when a generator is over MAX_DEGREE."""
    maxdeg = max(e for e, _ in ideal._rows)
    if maxdeg > MAX_DEGREE:
        raise BudgetExceeded(
            f"a generator of degree {maxdeg} is over the cap of {MAX_DEGREE}"
        )
    return 2 * maxdeg + 2


def quotient(ideal):
    """One Bareiss echelon of the whole degree_span(i) in every
    degree i, until I_i is all of R_i.  The algebra keeps no generator
    counts; is_complete_intersection here counts them from its forms."""
    bound = _artinian_bound(ideal)
    echelons = []
    for i in range(bound + 1):
        echelons.append(echelon(degree_span(ideal, i)))
        if len(echelons[-1][0]) == i + 1:
            return Quotient(ideal, echelons, None)
    raise NotArtinian(
        f"dim A_{bound} = {bound + 1 - len(echelons[-1][0])} > 0 for I = ({ideal})"
    )


def extend_quotient(ideal):
    """The quotient as jtlab built it before it read only pivots: the
    reduced echelon form of each I_i grown from y I_(i-1) with
    extend, adding the raw shift x^(i-e) g of every generator g of
    degree e < i, then the generators of degree i, whose new pivots count
    the minimal generators of degree i.  rows / lead is the reduced
    echelon form over Q and lead its least common denominator."""
    bound = _artinian_bound(ideal)
    form = ([], [], 1)  # I_(-1) = 0
    echelons, degrees = [], []
    for i in range(bound + 1):
        pivots, rest, lead = form
        form = pivots, [[*row, 0] for row in rest], lead  # y I_(i-1)
        for e, vec in ideal._rows:
            if e < i:
                form = extend(form, [0] * (i - e) + vec)  # x^(i-e) g
        grown = len(form[0])  # dim R_1*I_(i-1)
        for e, vec in ideal._rows:
            if e == i:
                form = extend(form, vec)
        echelons.append(form)
        degrees += [i] * (len(form[0]) - grown)
        if len(form[0]) == i + 1:
            return Quotient(ideal, echelons, tuple(degrees))
    raise NotArtinian(
        f"dim A_{bound} = {bound + 1 - len(form[0])} > 0 for I = ({ideal})"
    )


def insert_build(rows, top):
    """algebra._build(rows, top), (std, generator degrees, basis), as it
    was built when every x-shift of the rows new in the last degree went
    through linalg.insert and the kept rows were copied, each with a zero
    appended, in every degree from 0."""
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


def _reference(A):
    """A itself when it is a reference Quotient, which keeps its forms;
    otherwise extend_quotient of A's ideal, never A's own build."""
    return A if isinstance(A, Quotient) else extend_quotient(A.ideal)


def _generator_counts(ideal, echelons):
    """dim I_i - dim R_1*I_(i-1) in every degree 0 .. socle + 1, from the
    echelon forms of I, with one elimination of R_1*I_(i-1) per degree, on
    the rows of I_(i-1) divided by their content, which a Bareiss form
    scales by its long last pivot value."""
    counts = []
    for i, (pivots, _, _) in enumerate(echelons):
        rows = [linalg.primitive(row) for row in echelons[i - 1][1]] if i else []
        grown = len(echelon(_shifts(rows))[0])
        new = len(pivots) - grown
        if new < 0:
            raise InternalInconsistency(
                f"dim I_{i} < dim R_1*I_{i - 1} for I = ({ideal})"
            )
        counts.append(new)
    return counts


def is_complete_intersection(ideal, algebra=None):
    """The minimal generator degrees counted by _generator_counts on the
    echelon forms of the Bareiss quotient, or, when an algebra is given,
    on those of _reference(algebra), never on the counts an algebra keeps."""
    A = _reference(algebra) if algebra is not None else quotient(ideal)
    counts = _generator_counts(ideal, A.echelons)
    degrees = tuple(i for i, n in enumerate(counts) for _ in range(n))
    return len(degrees) == 2, degrees


def initial_ideal(ideal, ell, algebra=None):
    """The generators substituted as BivariatePoly products over Fraction,
    x = (x' - b y')/a, y = y' (or x = y', y = x'/b when a = 0), and the
    moved ideal built again by extend_quotient; the algebra is reused only
    when ell is x itself."""
    ell = require_linear(ell)
    a, b = ell.coefficient(1, 0), ell.coefficient(0, 1)
    if algebra is not None and (a, b) == (1, 0):
        A = algebra
    else:
        x, y = BivariatePoly.monomial(1, 0), BivariatePoly.monomial(0, 1)
        if a != 0:
            px = Fraction(1, 1) / a * x - Fraction(b, 1) / a * y
            py = y
        else:
            px = y
            py = Fraction(1, 1) / b * x
        moved = GradedIdeal([g.substitute(px, py) for g in ideal.generators])
        A = extend_quotient(moved)
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


def divided_power_vector(F):
    """The coprime integers proportional to c_m (j-m)! m! for
    F = sum c_m X^(j-m) Y^m, each formed as a Fraction times two
    factorials, and then cleared of denominators by linalg.primitive."""
    j = F.homogeneous_degree()
    fact = math.factorial
    return linalg.primitive(
        [Fraction(F.coefficient(j - m, m)) * fact(j - m) * fact(m) for m in range(j + 1)]
    )


def annihilator(F):
    """Ann(F) degree by degree, 0 .. j+1: the kernel of each catalecticant,
    less a complement of R_1 * Ann(F)_(i-1) inside it."""
    j = F.homogeneous_degree()
    g = divided_power_vector(F)
    generators = []
    prev_kernel = []  # integer rows spanning Ann(F)_(i-1)
    for i in range(j + 2):
        # the catalecticant R_i -> E_(j-i), with the row of Y^v scaled by
        # (j-i-v)! v!: its entry at column x^t y^(i-t) is g_(v+i-t)
        rows = [[g[v + i - t] for t in range(i + 1)] for v in range(j - i + 1)]
        null = null_vectors(*echelon(rows), i + 1)
        kernel = [linalg.primitive(vec) for vec in null]
        grown = echelon(_shifts(prev_kernel))
        for vec in kernel:
            rest = reduced_remainder(vec, *grown)
            if any(rest):
                generators.append(_vec_poly(linalg.primitive(rest), i))
                grown = echelon(grown[1] + [vec])
        prev_kernel = kernel
    return GradedIdeal(generators)


def one_step_columns(A, a, b):
    """columns[i][k]: coordinate k of the normal form of (a*x + b*y) times
    each standard monomial of degree i, all scaled by the lead of the
    echelon form of I_(i+1) that _reference(A) keeps, with no common factor
    divided out."""
    Q = _reference(A)
    columns = []
    for i in range(Q.socle_degree):
        pivots, rows, lead = Q.echelons[i + 1]
        images = []
        for t in Q._std[i]:
            vec = [0] * (i + 2)
            vec[t], vec[t + 1] = b, a  # y * x^t y^(i-t), x * x^t y^(i-t)
            rest = reduced_remainder(vec, pivots, rows, lead)
            images.append([rest[c] for c in Q._std[i + 1]])
        columns.append(list(zip(*images)))
    return columns


def rank_table(A, ell):
    """table[u][s - u] = rank of ell^(s-u): A_u -> A_s, rows filled for u
    descending: the image of A_u is carried one step at a time as primitive
    echelon rows until it is all of some A_s, and the rest of the row is
    copied from row s."""
    a, b = linalg.primitive((ell.coefficient(1, 0), ell.coefficient(0, 1)))
    Q = _reference(A)
    j = Q.socle_degree
    columns = one_step_columns(Q, a, b)
    table = [None] * (j + 1)
    for u in range(j, -1, -1):
        n = Q.hilbert[u]
        image = [[int(r == c) for c in range(n)] for r in range(n)]
        ranks = [n]
        for s in range(u + 1, j + 1):
            moved = [[sum(map(mul, row, col)) for col in columns[s - 1]] for row in image]
            image = [linalg.primitive(row) for row in echelon(moved)[1]]
            if len(image) == Q.hilbert[s]:
                ranks.extend(table[s])
                break
            ranks.append(len(image))
        table[u] = ranks
    return table


def rank_table_jordan_degree_type(table):
    """The Jordan degree type of m_ell read off its ranks, table[u][s - u] =
    r(u, s), the rank of ell^(s-u): A_u -> A_s, by second differences.

    With r(-1, s) = 0, the strings of length >= s starting in degree i
    number at_least(i, s) = r(i, i+s-1) - r(i-1, i+s-1), zero when
    i+s-1 > j, and those of length exactly s number at_least(i, s) -
    at_least(i, s+1).  Summed over i this telescopes: sum_i at_least(i, s)
    = rank(m_ell^(s-1)) - rank(m_ell^s) on all of A, the number of Jordan
    blocks of size >= s.  So the string lengths are the Jordan type of
    m_ell.
    """
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


def dual_rank_table(F, ell):
    """table[u][s - u] = rank of ell^(s-u): A_u -> A_s for A = R/Ann(F),
    from F alone.

    By Macaulay duality, for ell = a x + b y and n = s - u, ell^n f is zero
    in A iff (h ell^n f) o F = 0 for every h of degree j - s.  So the rank
    is that of the (u+1) x (j-s+1) Hankel matrix [h_(alpha+beta)], where
    h_t = sum_r C(n, r) a^(n-r) b^r g_(t+r) and g is
    divided_power_vector(F); hessian_rank_at above builds the case
    u = i, n = j - 2i.  The matrix of the entry u' = j - s, s' = j - u has
    the same n and is the transpose, so one Bareiss echelon per mirror pair
    of entries, on the matrix with fewer rows.
    """
    j = F.homogeneous_degree()
    g = divided_power_vector(F)
    a, b = linalg.primitive((ell.coefficient(1, 0), ell.coefficient(0, 1)))
    table = [[] for _ in range(j + 1)]
    for n in range(j + 1):
        weights = [math.comb(n, r) * a ** (n - r) * b**r for r in range(n + 1)]
        h = [sum(map(mul, weights, g[t:])) for t in range(j - n + 1)]
        ranks = [
            len(echelon([h[alpha : alpha + j - u - n + 1] for alpha in range(u + 1)])[0])
            for u in range((j - n) // 2 + 1)
        ]
        for u in range(j - n + 1):
            table[u].append(ranks[min(u, j - n - u)])
    return table


def _moved_vector(g, a, b, n):
    """h_t = sum_r C(n, r) a^(n-r) b^r g_(t+r), t = 0 .. j - n: the
    divided-power vector of (a x + b y)^n o F, up to the one common factor
    of g = divided_power_vector(F), one weight loop per power n."""
    weights = [math.comb(n, r) * a ** (n - r) * b**r for r in range(n + 1)]
    return [sum(map(mul, weights, g[t:])) for t in range(len(g) - n)]


def middle_catalecticant_rank(F):
    """d of polynomials.dual_data(F): linalg.rank of the middle
    catalecticant of F, i = j // 2, as dual_data once took it."""
    g = divided_power_vector(F)
    return linalg.rank(catalecticant(g, (len(g) - 1) // 2))


def hessian_rank_at(F, i, point):
    """hessians.hessian_rank_at(F, i, point) for a point of two numbers, as
    it was once computed: linalg.rank of the middle catalecticant of
    L^(j-2i) o F, whose vector is built by one weight loop for the order i
    alone."""
    g = divided_power_vector(F)
    a, b = linalg.primitive(point)
    return linalg.rank(catalecticant(_moved_vector(g, a, b, len(g) - 1 - 2 * i), i))


def d_sequence(F, a, b):
    """polynomials.d_sequence(F, a, b): for n = 0 .. j, linalg.rank of the
    middle catalecticant of (a x + b y)^n o F, each built by its own weight
    loop, the way hessian_rank_at builds one order."""
    g = divided_power_vector(F)
    a, b = linalg.primitive((a, b))
    return tuple(
        linalg.rank(catalecticant(h, (len(h) - 1) // 2))
        for h in (_moved_vector(g, a, b, n) for n in range(len(g)))
    )


def two_kernel_annihilator(F):
    """algebra.annihilator(F) as it once read Ann(F) off the kernels of two
    catalecticants: d from middle_catalecticant_rank, the kernels in the
    degrees d and e = j + 2 - d from the reduced forms that extend_echelon
    folds, the first generator the first kernel vector of degree d, and the
    second the first kernel vector of degree e not in R_(e-d) times the
    first, reduced modulo those shifts; both primitive."""
    g = divided_power_vector(F)
    d = middle_catalecticant_rank(F)
    e = len(g) + 1 - d
    kernel = {
        i: null_vectors(*extend_echelon(catalecticant(g, i)), i + 1) for i in {d, e}
    }
    if len(kernel[d]) != 1 + (d == e) or len(kernel[e]) != e - d + 2:
        raise InternalInconsistency(f"Ann({F}) has the kernels of no complete intersection")
    first = linalg.primitive(kernel[d][0])
    shifts = extend_echelon([[0] * a + first + [0] * (e - d - a) for a in range(e - d + 1)])
    rests = (reduced_remainder(vec, *shifts) for vec in kernel[e])
    second = next(rest for rest in rests if any(rest))
    rows = ((d, first), (e, linalg.primitive(second)))
    return GradedIdeal._from_rows(rows, [_vec_poly(vec, n) for n, vec in rows])


def hessian_determinant(F, i, algebra=None):
    """Symbolic determinant of the i-th Hessian matrix (display only;
    vanishing questions go through ranks)."""
    return _det(hessian_matrix(F, i, algebra))


def _det(mat):
    n = len(mat)
    if n == 0:
        return BivariatePoly.monomial(0, 0)
    if n == 1:
        return mat[0][0]
    total = BivariatePoly.zero()
    for c in range(n):
        minor = [row[:c] + row[c + 1 :] for row in mat[1:]]
        term = mat[0][c] * _det(minor)
        total = total + term if c % 2 == 0 else total - term
    return total


def evaluate_matrix(mat, a, b):
    """Substitute the point (a, b) into every entry."""
    return [[evaluate(entry, a, b) for entry in row] for row in mat]


def evaluate(f, a, b):
    """Value of the BivariatePoly f at the rational point (a, b)."""
    a, b = Fraction(a), Fraction(b)
    total = Fraction(0)
    for (i, j), c in f.terms.items():
        total += c * a**i * b**j
    return total


_X = BivariatePoly.monomial(1, 0)
_Y = BivariatePoly.monomial(0, 1)


def _chain_poly(p_i, a_prev, lam):
    """x^p_i y^a_prev + sum lam_l x^(p_i+l) y^(a_prev-l)."""
    terms = {(p_i, a_prev): Fraction(1)}
    for offset, coeff in enumerate(lam, start=1):
        if coeff:
            terms[(p_i + offset, a_prev - offset)] = Fraction(coeff)
    return BivariatePoly(terms)


def construct_ci(P, lambda2=None, seed=None):
    """The chain and the ideal (f_t, f_(t+1)) of a CIJT partition, with the
    recurrence run on tuples of Fraction and the relation
    f_(i-1) = x^(p_i - p_(i+1)) f_(i+1) - f_i y^(n_i) checked by products
    of BivariatePoly."""
    P = Partition(P)
    try:
        T = hilbert_function(P)
    except NotCIShape as exc:
        raise NotCIJT(f"{P} is not a CIJT partition: {exc}") from exc
    if not is_cijt(P):
        raise NotCIJT(f"{P} fails the equality criterion")
    pf = P.power_form
    t = len(pf)
    prefix = [0]
    for _, n_i in pf:
        prefix.append(prefix[-1] + n_i)  # prefix[i] = a_i

    if t == 1:
        f1 = BivariatePoly.monomial(pf[0][0], 0)
        f2 = BivariatePoly.monomial(0, pf[0][1])
        return Realization(
            partition=P,
            hilbert=T,
            ideal=GradedIdeal([f1, f2]),
            chain=(f1, f2),
            lambdas=(),
        )

    a1 = prefix[1]
    if lambda2 is None:
        if seed is None:
            lambda2 = (Fraction(0),) * a1
        else:
            rng = random.Random(seed)
            lambda2 = tuple(Fraction(rng.randint(-5, 5)) for _ in range(a1))
    lambda2 = tuple(Fraction(v) for v in lambda2)
    if len(lambda2) != a1:
        raise ParseError(f"Lambda_2 must have length a_1 = {a1}")

    lam = {1: (), 2: lambda2}
    for i in range(2, t + 1):
        n_i = pf[i - 1][1]
        n_prev = pf[i - 2][1]
        first = lam[i] + (Fraction(0),) * n_i
        second = (
            (Fraction(0),) * (n_prev + n_i - 1) + (Fraction(1),) + lam[i - 1]
        )
        if not len(first) == len(second) == prefix[i]:
            raise InternalInconsistency(f"Lambda_{i + 1} summands of {P} are not of length a_{i}")
        lam[i + 1] = tuple(u + v for u, v in zip(first, second))

    p = [None] + [pi for pi, _ in pf] + [0]  # p[1..t+1], 1-based
    chain = [None]
    for i in range(1, t + 2):
        chain.append(_chain_poly(p[i], prefix[i - 1], lam[i]))
    for i in range(2, t + 1):
        # degree bookkeeping and the two-term relation of the chain
        if p[i - 1] + prefix[i - 2] != p[i] + prefix[i]:
            raise InternalInconsistency(f"f_{i - 1} and f_{i + 1} of {P} differ in degree")
        relation = _X ** (p[i] - p[i + 1]) * chain[i + 1] - chain[i] * _Y ** pf[i - 1][1]
        if relation != chain[i - 1]:
            raise InternalInconsistency(f"chain recurrence violated at f_{i - 1} of {P}")

    return Realization(
        partition=P,
        hilbert=T,
        ideal=GradedIdeal([chain[t], chain[t + 1]]),
        chain=tuple(chain[1:]),
        lambdas=lambda2,
    )


def generic_jordan_type(T, which):
    """hessians.generic_jordan_type(T, which) by its closed forms, as it
    was once computed.  which = "sl": the conjugate of T.  which = "top"
    (k >= 2 only): (j+1, j-1, ..., j+1-2(d-2), 1^k), with d+k-1 parts.
    which = i in [0, d-2]: the maximal d-element window of
    (..., j-2i+5, j-2i+3, j-2i, j-2i, j-2i-3, ...) whose entries all lie
    in [k, j+1]."""
    T = HilbertFunction(T)
    d, k, j = T.d, T.k, T.j
    if which == "sl":
        return sl_partition(T)
    if which == "top":
        if k < 2:
            raise TopRequiresKGe2("top Hessian is only active when k >= 2")
        return Partition([j + 1 - 2 * t for t in range(d - 1)] + [1] * k)
    i = int(which)
    if not 0 <= i <= d - 2:
        raise OrderOutOfRange(f"which = {i} outside [0, {d - 2}]")
    center = j - 2 * i
    seq = (
        [center + 3 + 2 * t for t in range(d, -1, -1)]
        + [center, center]
        + [center - 3 - 2 * t for t in range(d + 1)]
    )
    windows = [
        tuple(seq[t : t + d])
        for t in range(len(seq) - d + 1)
        if all(k <= v <= j + 1 for v in seq[t : t + d])
    ]
    if not windows:
        raise InternalInconsistency(f"no admissible window for order {i} of {T}")
    return Partition(max(windows))
