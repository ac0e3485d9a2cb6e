"""Exact linear algebra over the rationals, carried out on integers.

All elimination goes through one routine, `echelon`: fraction-free
Gauss-Jordan elimination on integer rows (Bareiss, "Sylvester's identity
and multistep integer-preserving Gaussian elimination", Math. Comp. 1968,
applied above the pivot as well as below it).  Every entry it produces is
a minor of its input, so each division is exact and no rational number
appears inside the elimination.  It returns the reduced rows scaled by one
common pivot value; dividing by that value gives the reduced row echelon
form over Q.

`rank`, `rref` and `kernel_basis` accept rows with Fraction or int
entries and clear denominators row by row with `primitive`.  Only `rref`
and `kernel_basis` convert back to Fraction, when they return.  Callers
that already hold integer rows read a kernel straight off `echelon` with
`null_vectors`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InternalInconsistency

__all__ = ["primitive", "echelon", "null_vectors", "rank", "rref", "kernel_basis"]


def primitive(row):
    """The integer row proportional to row (Fraction or int entries) with
    coprime entries and its first nonzero entry positive; zero stays zero."""
    scale = math.lcm(*(v.denominator for v in row))
    ints = [v.numerator * (scale // v.denominator) for v in row]
    g = math.gcd(*ints)
    if g == 0:
        return ints
    if next(v for v in ints if v) < 0:
        g = -g
    return [v // g for v in ints]


def _divide_exact(row, den):
    """row / den entrywise; fraction-free elimination guarantees that each
    quotient is an integer."""
    if any(v % den for v in row):
        raise InternalInconsistency("fraction-free elimination lost integrality")
    return [v // den for v in row]


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


def rank(rows):
    """Rank of a matrix given as a list of rows (Fraction or int entries)."""
    return len(echelon([primitive(row) for row in rows])[0])


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
