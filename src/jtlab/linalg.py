"""Exact linear algebra over the rationals, carried out on integers.

One routine eliminates: `insert` adds one vector to a forward-only basis
of primitive rows keyed by their leading columns, reducing it forward only
and never clearing a column above its pivot.  Every quotient is built with
it degree by degree, and so are the standard monomials of an ideal moved
so that a linear form is x, whose Ferrers diagram holds every rank, Jordan
type and initial ideal of that form; the builder, algebra._build,
stores a shifted row whose lead is free as it stands, since it is already
primitive, and inserts the rest.  The keys are the pivot columns
of the reduced row echelon form, so every rank and pivot set read off them
is that of the reduced form.  `rank` counts the rows that it accepts; no
module of jtlab calls it, since the middle catalecticant and Hessian ranks
are read off a Berlekamp-Massey pass in polynomials, and it is kept as
public API.

`remainder` reduces a vector against such a basis, clearing its keys in
increasing order: the normal form of a form modulo a quotient's ideal, and
the second generator of an annihilator modulo the shifts of the first,
which form a forward-only basis as they stand.  `_exact_remainder` divides
out its scale exactly, so a normal form holds ints and Fractions, never a
float.  `rref` and `kernel_basis` read the reduced row echelon form off
the basis that `insert` gives, by back-substitution: each row is passed
through `remainder` against the reduced rows keyed after it.  No module of
jtlab calls them either.

`rank`, `rref` and `kernel_basis` accept rows whose entries are ints,
Fractions or a mix of both, as a BivariatePoly's coefficients are (an int
where a coefficient is integral, a Fraction otherwise).  All three pass
every row through `primitive`, which clears its denominators, before
`insert`; `rref` and `kernel_basis` return Fraction entries.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "primitive",
    "insert",
    "remainder",
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
    The content is divided out after every step, which keeps the entries
    short; so once a step has run, vec is already primitive when it
    reaches a free column, and is stored with no second gcd, negated when
    its lead is negative.

    The keys of basis are the pivot columns of the reduced row echelon form
    over Q of the vectors inserted, so a rank, a pivot set or the free
    columns read off them equal those of that form.  The row stored under c
    is, up to scale, the one vector of the span of vec and the rows keyed
    before c that is zero before column c; by Cramer's rule its primitive
    entries divide minors of those rows, the kind of bound that Bareiss
    gives.  Neither vec nor a stored row is changed, and vec itself is
    never stored, only a new list; only basis gains a key.
    """
    n = len(vec)
    c = 0
    reduced = False  # whether a step has run, so vec is a primitive list of insert's own
    while c < n:
        head = vec[c]
        if not head:
            c += 1
            continue
        row = basis.get(c)
        if row is None:
            g = 1 if reduced else math.gcd(*vec)
            if head < 0:
                g = -g
            basis[c] = [v // g for v in vec] if g != 1 else vec if reduced else list(vec)
            return c
        p = row[c]
        g = math.gcd(p, head)
        if g != 1:
            p, head = p // g, head // g
        vec = [p * v - head * w for v, w in zip(vec, row)]
        g = math.gcd(*vec)
        if g > 1:
            vec = [v // g for v in vec]
        reduced = True
        c += 1
    return None


def remainder(basis, vec):
    """(rest, scale) for a vector vec (int or Fraction entries) and a basis
    that maps each key c to an integer row whose first nonzero entry, at c,
    is positive, as insert keeps one: rest is zero in every key column,
    scale > 0, and rest / scale - vec lies in the span of basis, so rest /
    scale is the remainder of vec modulo the reduced echelon form.

    The keys are cleared in increasing order, rest = p * rest - rest[c] *
    row with p = row[c]; the row under c is zero before c, so a column that
    has been cleared stays cleared.  vec is not changed, but rest is vec
    itself when no key column of vec is nonzero."""
    rest, scale = vec, 1
    for c in sorted(basis):
        head = rest[c]
        if head:
            row = basis[c]
            p = row[c]
            rest = [p * v - head * w for v, w in zip(rest, row)]
            scale *= p
    return rest, scale


def _exact_remainder(basis, vec):
    """rest / scale for (rest, scale) = remainder(basis, vec), entry by
    entry exact: an int where the entry is integral and a Fraction
    otherwise.  Never a float, which / would give on two ints."""
    rest, scale = remainder(basis, vec)
    out = []
    for v in rest:
        q = Fraction(v, scale)
        out.append(q.numerator if q.denominator == 1 else q)
    return out


def rank(rows):
    """Rank of a matrix given as a list of rows (Fraction or int entries):
    the number of rows that insert adds to one basis, each row first
    cleared of its denominators by primitive."""
    basis = {}
    return sum(insert(basis, primitive(row)) is not None for row in rows)


def _reduced(rows):
    """(pivots, reduced) for a matrix given as a list of rows (Fraction or
    int entries): the pivot columns in increasing order, and one primitive
    integer row per pivot, zero in every other pivot column, so that row k
    divided by its entry at pivots[k] is row k of the reduced row echelon
    form over Q.  insert gives the basis, and each of its rows, from the
    last key back, is reduced against the rows already reduced."""
    basis = {}
    for row in rows:
        insert(basis, primitive(row))
    pivots = sorted(basis)
    done = {}
    for c in reversed(pivots):
        done[c] = primitive(remainder(done, basis[c])[0])
    return pivots, [done[c] for c in pivots]


def rref(rows, ncols):
    """Reduced row echelon form over Fraction.

    Returns (pivots, reduced) where pivots is the ordered list of pivot
    column indices and reduced the corresponding normalized rows.  ncols
    is the row length, which only kernel_basis needs.
    """
    pivots, reduced = _reduced(rows)
    return pivots, [[Fraction(v, row[c]) for v in row] for c, row in zip(pivots, reduced)]


def kernel_basis(rows, ncols):
    """Basis of the null space {v : M v = 0} of the matrix with given rows.

    Vectors are returned RREF-style: one per free column, with a 1 in the
    free coordinate.
    """
    pivots, reduced = _reduced(rows)
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for c, row in zip(pivots, reduced):
            vec[c] = Fraction(-row[fc], row[c])
        basis.append(vec)
    return basis
