"""Higher and mixed Hessians of a Macaulay dual generator, their ranks at a
linear form, and the bijection between CIJT partitions and vanishing sets.

For A = R/Ann(F) of socle degree j, the i-th Hessian matrix is
[alpha_u alpha_v o F] over a monomial basis of A_i; its determinant
evaluated at the point (a, b) of a linear form L = a x + b y vanishes
exactly when multiplication by L^(j-2i) from A_i to A_(j-i) drops rank.
Vanishing is therefore always decided here by exact ranks of multiplication
maps; symbolic determinants are only for display.

The rank of the i-th Hessian at a point needs no symbolic matrix.  The
matrix is Hankel: its entry in row r, column c is
(x^(2i-t) y^t o F)(a, b) with t = r + c.  With g the divided-power vector
of F (polynomials.divided_power_vector) and n = j - 2i,

    h_t = sum_r C(n, r) a^(n-r) b^r g_(t+r),   t = 0, ..., 2i,

is n! times that entry, up to the one common factor of g.  The rank is
taken of the integer Hankel matrix [h_(r+c)], with (a, b) first scaled to
coprime integers: a nonzero scale of the point, of g or of every entry
changes no rank.  It is a rank-only question, so linalg.rank answers it
with the forward-only kernel linalg.insert and builds no reduced form.

Mixed orders are written (u, s) = (source degree, target degree): the rank
of L^(s-u): A_u -> A_s.  In the determinant picture this map corresponds to
the mixed Hessian of bases A_u and A_(j-s), i.e. (u, s) <-> (u, j-s) in the
two-basis indexing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .algebra import annihilator, quotient, rank_mult_power
from .codes import _runs, cijt_from_composition, is_cijt
from .errors import (
    InternalInconsistency,
    InvalidSubset,
    NotCIJT,
    OrderOutOfRange,
    ParseError,
    TopRequiresKGe2,
    ZeroForm,
)
from .linalg import primitive, rank
from .partitions import (
    HilbertFunction,
    Partition,
    hilbert_function,
    sl_partition,
)
from .polynomials import BivariatePoly, contract, divided_power_vector

__all__ = [
    "hessian_matrix",
    "hessian_determinant",
    "evaluate_matrix",
    "hessian_rank_at",
    "active_hessian_indices",
    "nonvanishing_set",
    "predicted_nonvanishing_set",
    "cijt_from_hessian_subset",
    "predicted_rank_profile",
    "generic_jordan_type",
]


def hessian_matrix(F, i, algebra=None):
    """Symbolic i-th Hessian matrix of F.

    The basis of A_i is the full set of degree-i monomials (the ideal of a
    Gorenstein quotient of k[x,y] starts in degree d > i), ordered by
    descending x-exponent: (x^i, x^(i-1) y, ..., y^i).
    """
    A = algebra if algebra is not None else quotient(annihilator(F))
    _check_order(i, A, HilbertFunction(A.hilbert))
    basis = [BivariatePoly.monomial(i - b, b) for b in range(i + 1)]
    return [[contract(mu * mv, F) for mv in basis] for mu in basis]


def _check_order(i, A, T):
    """Raise OrderOutOfRange unless 0 <= i <= d-1 for the Hilbert function
    T of the algebra A = quotient(annihilator(F)), and InternalInconsistency
    unless A_i is all of R_i, as it is below d."""
    if not 0 <= i <= T.d - 1:
        raise OrderOutOfRange(f"order {i} outside [0, {T.d - 1}]")
    if A.dim(i) != i + 1:
        raise InternalInconsistency(f"dim A_{i} = {A.dim(i)}, not {i + 1}, below d = {T.d}")


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
    return [[entry.evaluate(a, b) for entry in row] for row in mat]


def hessian_rank_at(F, i, point, algebra=None):
    """Rank of the i-th Hessian matrix of F evaluated at point = (a, b).

    The rank of the integer Hankel matrix [h_(r+c)] of the module
    docstring, which is n! = (j - 2i)! times the evaluated Hessian up to
    one nonzero factor, taken with linalg.rank.  It is computed from F
    alone, never from a rank table of the algebra; algebra, when given,
    is quotient(annihilator(F)) and serves the order check.  The algebra
    keeps its validated Hilbert function and F's divided-power vector for
    later calls about the same F.  Raises ParseError unless point is two
    finite rational coordinates, and ZeroForm when both are 0.
    """
    try:
        coords = [Fraction(v) for v in point]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"a point needs rational coordinates, not {point!r}") from exc
    if len(coords) != 2:
        raise ParseError(f"a point has two coordinates, not {len(coords)}")
    a, b = primitive(coords)
    if not (a or b):
        raise ZeroForm("the point (0, 0) is no linear form")
    A = algebra if algebra is not None else quotient(annihilator(F))
    known = A.dual_vectors.get(F)
    T = known[0] if known else HilbertFunction(A.hilbert)
    _check_order(i, A, T)
    if known is None:
        known = A.dual_vectors[F] = (T, divided_power_vector(F))
    g = known[1]
    n = len(g) - 1 - 2 * i
    weights = [math.comb(n, r) * a ** (n - r) * b**r for r in range(n + 1)]
    h = [sum(map(mul, weights, g[t:])) for t in range(2 * i + 1)]
    return rank([h[r : r + i + 1] for r in range(i + 1)])


def active_hessian_indices(T):
    """Orders whose Hessian is not identically degenerate:
    0..T.branches-1, that is 0..d-2 and, when k >= 2, d-1."""
    return tuple(range(HilbertFunction(T).branches))


def nonvanishing_set(A, ell):
    """Active orders i with full-rank multiplication A_i -> A_(j-i) by
    ell^(j-2i): the convention-free meaning of h^i_ell != 0."""
    T = HilbertFunction(A.hilbert)
    return frozenset(
        i
        for i in active_hessian_indices(T)
        if rank_mult_power(A, ell, i, T.j - i) == i + 1
    )


def predicted_nonvanishing_set(P):
    """Active orders i with p_1 + ... + p_(i+1) = (i+1)(j+1-i).

    The partial sum of a Jordan type meets this bound exactly when the i-th
    Hessian is nonzero at the linear form.
    """
    P = Partition(P)
    T = hilbert_function(P)
    if not is_cijt(P):
        raise NotCIJT(f"{P} is not a CIJT partition")
    parts = P.parts + (0,) * (T.d + T.k)
    return frozenset(
        i
        for i in active_hessian_indices(T)
        if sum(parts[: i + 1]) == (i + 1) * (T.j + 1 - i)
    )


def cijt_from_hessian_subset(T, S):
    """The unique CIJT partition whose nonvanishing set is S.

    Sorting S as s_1 < ... < s_c, the gaps n_i = s_i - s_(i-1) (with
    s_0 = -1) form the composition building the partition; the empty set
    gives the rectangle (d)^(d+k-1).
    """
    T = HilbertFunction(T)
    S = frozenset(S)
    active = set(active_hessian_indices(T))
    if not S <= active:
        raise InvalidSubset(f"{sorted(S)} not within active orders {sorted(active)}")
    ordered = sorted(S)
    comp = []
    prev = -1
    for s in ordered:
        comp.append(s - prev)
        prev = s
    return cijt_from_composition(T, tuple(comp))


def _vanishing_runs(T, S):
    """Maximal runs of consecutive vanishing active orders, as (m, m+n)."""
    vanishing = sorted(set(active_hessian_indices(T)) - set(S))
    return [(run[0], run[-1]) for run in _runs(vanishing)]


def predicted_rank_profile(P):
    """Exact ranks of multiplication maps A_u -> A_s forced by the Jordan
    type, as {(u, s): rank}.

    Nonvanishing orders i contribute full rank i+1 at (i, j-i).  A vanishing
    run h^m = ... = h^(m+n) = 0 bounded above by a nonvanishing order
    contributes rank max(j+i-(n+s), m) for s in [j-(m+n), j-(m+i)] and full
    rank m+i+1 for s in [d, j-(m+n+1)]; a run reaching the top order d-1
    (k >= 2) contributes rank max(2m+n+i+1-s, m) for i in [0, n+k//2-1] and
    s in [d, j-(m+i)].
    """
    P = Partition(P)
    T = hilbert_function(P)
    S = predicted_nonvanishing_set(P)
    d, k, j = T.d, T.k, T.j
    profile = {}
    for i in sorted(S):
        profile[(i, j - i)] = i + 1
    for m, top in _vanishing_runs(T, S):
        n = top - m
        if top <= d - 2:
            for i in range(n + 1):
                for s in range(j - (m + n), j - (m + i) + 1):
                    profile[(m + i, s)] = max(j + i - (n + s), m)
                for s in range(d, j - (m + n + 1) + 1):
                    profile[(m + i, s)] = m + i + 1
        else:
            if k < 2 or top != d - 1:
                raise InternalInconsistency(f"vanishing run {m}..{top} of {P} past order d-2")
            for i in range(n + k // 2):
                for s in range(d, j - (m + i) + 1):
                    profile[(m + i, s)] = max(2 * m + n + i + 1 - s, m)
    return profile


def generic_jordan_type(T, which):
    """Jordan types of a sufficiently general dual generator F.

    which = "sl": the strong Lefschetz type, the conjugate of T.
    which = "top" (k >= 2 only): the type at a root of the top Hessian,
    (j+1, j-1, ..., j+1-2(d-2), 1^k), with d+k-1 parts.
    which = i in [0, d-2]: the type at a simple root of h^i: the maximal
    d-element window of (..., j-2i+5, j-2i+3, j-2i, j-2i, j-2i-3, ...)
    whose entries all lie in [k, j+1].
    """
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
