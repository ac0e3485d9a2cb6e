"""Exact linear algebra over the rationals, carried out on integers.

Two routines eliminate, one for each kind of question:

- `extend`, for reduced forms: it adds one vector to an echelon form and
  divides the result by its content, so lead stays the least common
  denominator of the reduced form over Q and the entries stay as short as
  that form allows.  `echelon` folds it over the rows of a matrix given
  whole: the kernels of catalecticants, and the one form that a normal
  form reduces against.
- `insert`, for questions that read only pivots or ranks: every quotient,
  built degree by degree, and the standard monomials of an ideal moved so
  that a linear form is x, whose Ferrers diagram holds every rank, Jordan
  type and initial ideal in that direction, and, through `rank`, the
  Hessian ranks and the middle catalecticant.  It reduces one vector
  forward only against a basis of primitive rows keyed by their leading
  columns, and never clears a column above its pivot.  The keys are the
  pivot columns of the reduced form, so every rank and pivot set read off
  them is that of `echelon`.  `rank` counts the rows that it accepts.

An echelon form, as `echelon` and `extend` build it, is a triple (pivots,
rows, lead): the pivot columns in increasing order, and one integer row
per pivot in which column pivots[k] holds lead and every other pivot
column holds 0.  rows / lead is the reduced row echelon form over Q.

A form that `extend` returns may share row lists with the form it was
given, and its new row may be the vector it was given: a row that the new
pivot leaves untouched is kept as it is.  No caller mutates a row of a
form, so sharing is safe.

`remainder` reduces a vector modulo an echelon form.  `rank`, `rref` and
`kernel_basis` accept rows with Fraction or int entries.  `rref` and
`kernel_basis` clear denominators row by row with `primitive`, and convert
back to Fraction when they return.  `rank` hands a row of ints to `insert`
as it is, since `insert` takes the content of a row before it stores it,
and clears only a row that holds a Fraction.  Callers that already hold
integer rows read a kernel straight off `echelon` with `null_vectors`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import reduce

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


def remainder(vec, pivots, rows, lead):
    """lead times the remainder of vec modulo an echelon form (pivots,
    rows, lead): the unique vector of lead * vec + span(rows) that is zero
    in every pivot column, integral when vec is.  When lead is 1 and no
    row touches vec, that is vec itself."""
    out = vec if lead == 1 else [lead * v for v in vec]
    for pc, row in zip(pivots, rows):
        c = vec[pc]
        if c:
            out = [o - c * w for o, w in zip(out, row)]
    return out


def extend(form, vec):
    """The echelon form of span(rows) + span(vec), for an echelon form
    form = (pivots, rows, lead) and an integer vector vec of the same
    length; form itself when vec lies in the span.

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
    rest = remainder(vec, pivots, rows, lead)
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


def echelon(rows):
    """The echelon form (pivots, rows, lead) of the row space of a matrix
    with integer entries: extend folded over its rows, from the form of the
    zero space.  rows / lead is the reduced row echelon form over Q and
    lead > 0 its least common denominator."""
    return reduce(extend, rows, ([], [], 1))


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
    the number of rows that insert adds to one basis.

    A row of ints goes to insert as it is: insert divides a row by its
    content before it stores it, and a scale of a row changes neither the
    rank nor a stored row.  Only a row with a non-int entry is first
    cleared of its denominators by primitive."""
    basis = {}
    count = 0
    for row in rows:
        try:
            math.gcd(*row)  # raises TypeError on a Fraction entry
        except TypeError:
            row = primitive(row)
        if insert(basis, row) is not None:
            count += 1
    return count


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
