"""Higher and mixed Hessians of a Macaulay dual generator, their ranks at a
linear form, and the bijection between CIJT partitions and vanishing sets.

For A = R/Ann(F) of socle degree j, the i-th Hessian matrix is
[alpha_u alpha_v o F] over a monomial basis of A_i; its determinant
evaluated at the point (a, b) of a linear form L = a x + b y vanishes
exactly when multiplication by L^(j-2i) from A_i to A_(j-i) drops rank.
Vanishing is therefore always decided here by exact ranks; no determinant
is expanded.

The rank of the i-th Hessian at a point needs no symbolic matrix, no
algebra and no elimination.  The matrix is Hankel: its entry in row r,
column c is (x^(2i-t) y^t o F)(a, b) with t = r + c.  Up to one nonzero
factor it is the middle catalecticant of L^n o F, n = j - 2i, for the
linear form L = a x + b y, whose rank polynomials.d_sequence(F, a, b)
reads, for every n at once, off one Berlekamp-Massey pass over F's
divided-power vector moved so that L is x.  With (a, b) first scaled to
coprime integers, as a nonzero scale of the point changes no rank, each
direction and its multiples share that pass, kept on F.  The point is
read by polynomials._direction, the one point reader, which d_sequence
shares.  From F's vector to the rank every number is an int.  A point of
two ints is scaled without a Fraction; the coefficients of a linear form
with integral coefficients are such a point, since a BivariatePoly keeps
an integral coefficient as an int.  Any other point is read by
errors._rationals, the package's one rule for a sequence of rationals.

The orders are 0 <= i <= d - 1, with d the rank of F's middle
catalecticant.  d is read by polynomials.dual_data, the one reader of a
dual generator, which checks F once and keeps what it reads on it.  An
algebra, when one is passed, is only cross-checked: below d, A_i is all of
R_i.

Mixed orders are written (u, s) = (source degree, target degree): the rank
of L^(s-u): A_u -> A_s.  In the determinant picture this map corresponds to
the mixed Hessian of bases A_u and A_(j-s), i.e. (u, s) <-> (u, j-s) in the
two-basis indexing.
"""

from __future__ import annotations

from functools import partial

from .algebra import rank_mult_power
from .codes import cijt_from_composition, is_cijt
from .errors import (
    InternalInconsistency,
    InvalidSubset,
    NotCIJT,
    OrderOutOfRange,
    TopRequiresKGe2,
    _integer,
    _integers,
)
from .partitions import HilbertFunction, Partition, hilbert_function
from .polynomials import BivariatePoly, _d_sequence, _direction, contract, dual_data

__all__ = [
    "hessian_matrix",
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
    descending x-exponent: (x^i, x^(i-1) y, ..., y^i).  The matrix is
    Hankel: its entry in row r, column c is x^(2i-t) y^t o F with t = r + c,
    so 2i + 1 contractions fill it.  The order i is checked against F's d by
    _check_order, which also cross-checks a given algebra; no algebra is
    built.
    """
    i = _check_order(F, i, algebra)[1]
    entries = [contract(BivariatePoly.monomial(2 * i - t, t), F) for t in range(2 * i + 1)]
    return [entries[r : r + i + 1] for r in range(i + 1)]


def _check_order(F, i, A):
    """(j, i) for F's degree j, read by dual_data, and the order i read by
    errors._integer, once 0 <= i <= d-1 is checked against F's d: ParseError
    when i is no integer (a bool, a float, a numeric string, None), and
    OrderOutOfRange when it lies outside.  A given algebra
    A = quotient(annihilator(F)) raises InternalInconsistency unless A_i is
    all of R_i, as it is below d."""
    g, d = dual_data(F)[:2]
    i = _integer(i, "a Hessian order is an integer")
    if not 0 <= i <= d - 1:
        raise OrderOutOfRange(f"order {i} outside [0, {d - 1}]")
    if A is not None and A.dim(i) != i + 1:
        raise InternalInconsistency(f"dim A_{i} = {A.dim(i)}, not {i + 1}, below d = {d}")
    return len(g) - 1, i


def hessian_rank_at(F, i, point, algebra=None):
    """Rank of the i-th Hessian matrix of F evaluated at point = (a, b).

    d_sequence(F, a, b)[j - 2i]: the rank of the middle catalecticant of
    L^(j-2i) o F for L = a x + b y, which is (j - 2i)! times the evaluated
    Hessian up to one nonzero factor.  It is computed from F alone, never
    from an algebra: the order range comes from dual_data, and algebra,
    when given, is quotient(annihilator(F)) and only cross-checked by
    _check_order.  The point is read first, by polynomials._direction, the
    point reader that d_sequence shares: ParseError unless it is two
    finite rational coordinates as errors._rationals reads them (a str
    such as "12" or a bool coordinate is refused), and ZeroForm when both
    are 0, before F is read.  A point of two ints is scaled to coprime integers without a
    Fraction.  F and the point are checked once, here, and
    polynomials._d_sequence, which checks neither again, reads the rank.
    """
    a, b = _direction(point)
    j, i = _check_order(F, i, algebra)
    return _d_sequence(F, a, b)[j - 2 * i]


def active_hessian_indices(T):
    """Orders whose Hessian is not identically degenerate:
    0..T.branches-1, that is 0..d-2 and, when k >= 2, d-1."""
    return tuple(range(HilbertFunction(T).branches))


def _hessian_columns(T, rank):
    """(ranks, nonvanishing) of a linear form ell on an algebra of CI-shaped
    Hilbert function T, read off a rank source: rank(u, s) is the rank of
    multiplication by ell^(s-u) from A_u to A_s, as rank_mult_power on the
    algebra gives it or predicted_rank_profile predicts it.  ranks lists
    rank(i, j - i) at the active orders i, and nonvanishing the orders
    where it is full, i + 1: those whose Hessian is nonzero at ell.  This
    is the one place that rule is written; nonvanishing_set, the Hessian
    columns of a classification row and of `jtlab jordan`, and check (e)
    of constructor.verify_realization all read it here."""
    ranks = [rank(i, T.j - i) for i in active_hessian_indices(T)]
    return ranks, [i for i, r in enumerate(ranks) if r == i + 1]


def nonvanishing_set(A, ell):
    """Active orders i with full-rank multiplication A_i -> A_(j-i) by
    ell^(j-2i): the convention-free meaning of h^i_ell != 0, read by
    _hessian_columns off rank_mult_power on A.  T is the algebra's own
    HilbertFunction, validated once per algebra; when A's is not
    CI-shaped, HilbertFunction(A.hilbert) raises NotCIShape."""
    T = A._ci_hilbert
    if T is None:
        T = HilbertFunction(A.hilbert)
    return frozenset(_hessian_columns(T, partial(rank_mult_power, A, ell))[1])


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
    gives the rectangle (d)^(d+k-1).  The orders in S are read by
    errors._integers (ParseError for a str, a non-iterable, or an order
    that is a bool, a float or None).
    """
    T = HilbertFunction(T)
    S = frozenset(_integers(S, "a Hessian subset must be a set of integer orders"))
    active = set(active_hessian_indices(T))
    if not S <= active:
        raise InvalidSubset(f"{sorted(S)} not within active orders {sorted(active)}")
    ordered = sorted(S)
    comp = tuple(s - prev for s, prev in zip(ordered, [-1] + ordered))
    return cijt_from_composition(T, comp)


def _vanishing_runs(T, S):
    """Maximal runs of consecutive vanishing active orders, as (m, m+n)."""
    runs = []
    for i in sorted(set(active_hessian_indices(T)) - set(S)):
        if runs and i == runs[-1][1] + 1:
            runs[-1][1] = i
        else:
            runs.append([i, i])
    return runs


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
    """Jordan types of a sufficiently general dual generator F: one value
    of the bijection cijt_from_hessian_subset, at the active orders less
    the one Hessian that vanishes.

    which = "sl": no Hessian vanishes, giving the strong Lefschetz type,
    the conjugate of T.
    which = "top" (k >= 2 only): the top Hessian, of order d-1, vanishes.
    which = i in [0, d-2]: the Hessian of order i vanishes, as at a simple
    root of h^i.  Any other value is an order, read by errors._integer:
    one outside [0, d-2] raises OrderOutOfRange, and one that is no integer
    (a bool, a float, a numeric string, None) ParseError.
    The closed forms these once came from, (j+1, j-1, ..., j+1-2(d-2), 1^k)
    for "top" and a d-element window around j-2i for an order i, are
    tests/reference_paths.generic_jordan_type, the reference they are
    tested against.
    """
    T = HilbertFunction(T)
    if which == "sl":
        order = None
    elif which == "top":
        if T.k < 2:
            raise TopRequiresKGe2("top Hessian is only active when k >= 2")
        order = T.d - 1
    else:
        order = _integer(which, "which must be 'sl', 'top' or an int order")
        if not 0 <= order <= T.d - 2:
            raise OrderOutOfRange(f"which = {order} outside [0, {T.d - 2}]")
    return cijt_from_hessian_subset(T, set(active_hessian_indices(T)) - {order})
