"""Exact linear algebra over the rationals, carried out on integers.

Three routines eliminate, one for each kind of question:

- `echelon`, for a one-shot reduced form of a matrix given whole (the
  kernels of catalecticants, the references in the tests): fraction-free
  Gauss-Jordan elimination on integer rows (Bareiss, "Sylvester's
  identity and multistep integer-preserving Gaussian elimination", Math.
  Comp. 1968, applied above the pivot as well as below it).  Every entry
  it produces is a minor of its input, so each division is exact and no
  rational number appears inside the elimination; lead is the last pivot
  value, a determinant whose length grows with the matrix.
- `extend`, for an incremental reduced form of a row space grown one
  vector at a time (the degrees of a quotient): it adds one vector to an
  echelon form and divides the result by its content, so lead stays the
  least common denominator of the reduced form over Q and the entries stay
  as short as that form allows.
- `insert`, for rank-only questions (rank tables, Hessian ranks, the
  complete-intersection count, the middle catalecticant): it reduces one
  vector forward only against a basis of primitive rows keyed by their
  leading columns, and never clears a column above its pivot.  The keys
  are the pivot columns of the reduced form, so every rank and pivot set
  read off them is that of `echelon`.  `rank` counts the rows that it
  accepts.

An echelon form, as `echelon` and `extend` build it, is a triple (pivots,
rows, lead): the pivot columns in increasing order, and one integer row
per pivot in which column pivots[k] holds lead and every other pivot
column holds 0.  rows / lead is the reduced row echelon form over Q.

`remainder` reduces a vector modulo an echelon form.  `rank`, `rref` and
`kernel_basis` accept rows with Fraction or int entries and clear
denominators row by row with `primitive`.  Only `rref` and `kernel_basis`
convert back to Fraction, when they return.  Callers that already hold
integer rows read a kernel straight off `echelon` with `null_vectors`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction

from .errors import InternalInconsistency

__all__ = [
    "primitive",
    "echelon",
    "remainder",
    "extend",
    "insert",
    "null_vectors",
    "rank",
    "rref",
    "kernel_basis",
]


def primitive(row):
    """The integer row proportional to row (Fraction or int entries) with
    coprime entries and its first nonzero entry positive; zero stays zero."""
    try:
        g = math.gcd(*row)  # int entries need no common denominator
    except TypeError:  # a Fraction entry: clear denominators first
        scale = math.lcm(*(v.denominator for v in row))
        row = [v.numerator * (scale // v.denominator) for v in row]
        g = math.gcd(*row)
    if g == 0:
        return list(row)
    for v in row:
        if v:
            break
    if v < 0:
        g = -g
    return [v // g for v in row] if g != 1 else list(row)


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


def remainder(vec, pivots, rows, lead):
    """lead times the remainder of vec modulo an echelon form (pivots,
    rows, lead): the unique vector of lead * vec + span(rows) that is zero
    in every pivot column, integral when vec is."""
    out = [lead * v for v in vec]
    for pc, row in zip(pivots, rows):
        c = vec[pc]
        if c:
            out = [o - c * w for o, w in zip(out, row)]
    return out


def extend(form, vec):
    """The echelon form of span(rows) + span(vec), for an echelon form
    form = (pivots, rows, lead) and an integer vector vec of the same
    length; form itself when vec lies in the span.

    The remainder of vec, divided by its content, becomes the row of a new
    pivot column c, and c is cleared from the old rows.  The whole form is
    then divided by its content, the gcd of the new lead and every entry,
    with the sign that makes lead positive.  So rows / lead is the reduced
    row echelon form over Q, lead > 0 is its least common denominator, and
    lead and the entries of rows have no common factor.  The input lists
    are not changed.
    """
    pivots, rows, lead = form
    rest = remainder(vec, pivots, rows, lead)
    c = next((c for c, v in enumerate(rest) if v), None)
    if c is None:
        return form
    g = math.gcd(*rest)
    p = rest[c] // g
    rest = [v // g for v in rest]
    # row / lead - (row[c] / lead) (rest / p), over the common scale lead * p
    new = [
        [p * v - row[c] * w for v, w in zip(row, rest)]
        if row[c]
        else [p * v for v in row]
        for row in rows
    ]
    k = bisect_left(pivots, c)
    new.insert(k, [lead * w for w in rest])
    lead *= p
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


def insert(basis, vec):
    """Add an integer vector to a forward-only basis; its new leading
    column, or None when vec lies in the span of basis.

    basis maps each leading column c to a primitive integer row (coprime
    entries, positive at c) whose first nonzero entry is at c.  vec is
    reduced forward only: at its first nonzero column c, if no row leads
    there, vec divided by its content is stored under c; otherwise
    vec = p * vec - vec[c] * row, with p = row[c] and the pair (p, vec[c])
    first divided by its gcd, is divided by its content and reduced from
    column c + 1 on.  No row is ever cleared above its leading column.

    The keys of basis are the pivot columns of the reduced row echelon form
    over Q of the vectors inserted, so a rank, a pivot set or the free
    columns read off them equal those of echelon.  The row stored under c
    is, up to scale, the one vector of the span of vec and the rows keyed
    before c that is zero before column c; by Cramer's rule its primitive
    entries divide minors of those rows, the kind of bound that Bareiss
    gives.  Neither vec nor a stored row is changed; only basis gains a key.
    """
    n = len(vec)
    c = 0
    while c < n:
        head = vec[c]
        if not head:
            c += 1
            continue
        row = basis.get(c)
        if row is None:
            g = math.gcd(*vec)
            if head < 0:
                g = -g
            basis[c] = [v // g for v in vec] if g != 1 else list(vec)
            return c
        p = row[c]
        g = math.gcd(p, head)
        if g != 1:
            p, head = p // g, head // g
        vec = [p * v - head * w for v, w in zip(vec, row)]
        g = math.gcd(*vec)
        if g > 1:
            vec = [v // g for v in vec]
        c += 1
    return None


def rank(rows):
    """Rank of a matrix given as a list of rows (Fraction or int entries):
    the number of rows, made primitive, that insert adds to one basis."""
    basis = {}
    return sum(insert(basis, primitive(row)) is not None for row in rows)


def rref(rows, ncols):
    """Reduced row echelon form over Fraction.

    Returns (pivots, reduced) where pivots is the ordered list of pivot
    column indices and reduced the corresponding normalized rows.  ncols
    is the row length, which only kernel_basis needs.
    """
    pivots, reduced, lead = echelon([primitive(row) for row in rows])
    return pivots, [[Fraction(v, lead) for v in row] for row in reduced]


def kernel_basis(rows, ncols):
    """Basis of the null space {v : M v = 0} of the matrix with given rows.

    Vectors are returned RREF-style: one per free column, with a 1 in the
    free coordinate.
    """
    pivots, reduced, lead = echelon([primitive(row) for row in rows])
    return [
        [Fraction(v, lead) for v in vec]
        for vec in null_vectors(pivots, reduced, lead, ncols)
    ]


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
