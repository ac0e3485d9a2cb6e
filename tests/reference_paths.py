"""Earlier bodies of ten routines, kept as references for differential
tests of the versions in jtlab: four slower combinatorial ones, the
branch-label enumeration with its own interval-split helper, the
complete-intersection test that counts new generators in every degree,
the annihilator that echelonizes every degree 0 .. j+1, the rank table
that carries the image of each A_u one step at a time, and the quotient
that echelonizes the whole degree_span of every degree with Bareiss
elimination.  One more reference, dual_rank_table, reads the rank table
of R/Ann(F) off F alone, by Macaulay duality, and shares no code with the
quotient or the rank kernel.

Each returns exactly what the jtlab function of the same name returns;
rank_table and dual_rank_table are ArtinAlgebra._rank_table,
one_step_columns is its raw one-step maps, with no common factor divided
out, and degree_span is the spanning set that GradedIdeal once offered.
The quotient's echelon forms are scaled by Bareiss pivot values, not by
least common denominators, so they agree with jtlab's over Q, not entry by
entry.  Every rank here is taken with Bareiss linalg.echelon, never with
the forward-only linalg.insert that jtlab uses for rank-only questions.
"""

import math
from operator import mul

from jtlab import linalg
from jtlab.algebra import MAX_DEGREE, ArtinAlgebra, GradedIdeal, _shifts, _vec_poly
from jtlab.codes import E, BranchLabel, _arranged, _validate_label
from jtlab.errors import (
    BudgetExceeded,
    DiagonalMismatch,
    InternalInconsistency,
    InvalidLabel,
    NotArtinian,
)
from jtlab.partitions import HilbertFunction, JordanDegreeType, Partition
from jtlab.polynomials import divided_power_vector


def diagonal_lengths(P):
    """Walk every cell (r, m) and count it on the diagonal r + m."""
    P = Partition(P)
    top = max(r + p - 1 for r, p in enumerate(P.parts))
    t = [0] * (top + 1)
    for r, m in P.cells():
        t[r + m] += 1
    return tuple(t)


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


def enumerate_branch_labels(T):
    """Interval splits from their own bitmask walk, and one copy of the
    vertical/horizontal mask loop for each k >= 2 and k = 1."""
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


def degree_span(ideal, i):
    """Spanning set of the degree-i piece of ideal: monomial multiples of
    the generators, as integer coordinate rows."""
    rows = []
    for e, vec in ideal._rows:
        if e <= i:
            # x^a y^(i-e-a) * g
            rows.extend([0] * a + vec + [0] * (i - e - a) for a in range(i - e + 1))
    return rows


def quotient(ideal):
    """One Bareiss linalg.echelon of the whole degree_span(i) in every
    degree i, until I_i is all of R_i."""
    maxdeg = max(e for e, _ in ideal._rows)
    if maxdeg > MAX_DEGREE:
        raise BudgetExceeded(
            f"a generator of degree {maxdeg} is over the cap of {MAX_DEGREE}"
        )
    bound = 2 * maxdeg + 2
    echelons = []
    for i in range(bound + 1):
        echelons.append(linalg.echelon(degree_span(ideal, i)))
        if len(echelons[-1][0]) == i + 1:
            return ArtinAlgebra(ideal, echelons)
    raise NotArtinian(
        f"dim A_{bound} = {bound + 1 - len(echelons[-1][0])} > 0 for I = ({ideal})"
    )


def is_complete_intersection(ideal, algebra=None):
    """Count dim I_i - dim R_1*I_(i-1) in every degree 0 .. socle + 1, with
    one elimination of R_1*I_(i-1) per degree."""
    A = algebra if algebra is not None else quotient(ideal)
    degrees = []
    for i in range(A.socle_degree + 2):
        grown = linalg.rank(_shifts(A._echelons[i - 1][1])) if i else 0
        new = (i + 1) - A.dim(i) - grown
        if new < 0:
            raise InternalInconsistency(
                f"dim I_{i} < dim R_1*I_{i - 1} for I = ({ideal})"
            )
        degrees.extend([i] * new)
    return len(degrees) == 2, tuple(degrees)


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
        null = linalg.null_vectors(*linalg.echelon(rows), i + 1)
        kernel = [linalg.primitive(vec) for vec in null]
        grown = linalg.echelon(_shifts(prev_kernel))
        for vec in kernel:
            rest = linalg.remainder(vec, *grown)
            if any(rest):
                generators.append(_vec_poly(linalg.primitive(rest), i))
                grown = linalg.echelon(grown[1] + [vec])
        prev_kernel = kernel
    return GradedIdeal(generators)


def one_step_columns(A, a, b):
    """columns[i][k]: coordinate k of the normal form of (a*x + b*y) times
    each standard monomial of degree i, all scaled by the pivot value of
    I_(i+1), with no common factor divided out."""
    columns = []
    for i in range(A.socle_degree):
        images = []
        for t in A._std[i]:
            vec = [0] * (i + 2)
            vec[t], vec[t + 1] = b, a  # y * x^t y^(i-t), x * x^t y^(i-t)
            images.append(A._reduce(vec, i + 1))
        columns.append(list(zip(*images)))
    return columns


def rank_table(A, ell):
    """table[u][s - u] = rank of ell^(s-u): A_u -> A_s, rows filled for u
    descending: the image of A_u is carried one step at a time as primitive
    echelon rows until it is all of some A_s, and the rest of the row is
    copied from row s."""
    a, b = linalg.primitive((ell.coefficient(1, 0), ell.coefficient(0, 1)))
    j = A.socle_degree
    columns = one_step_columns(A, a, b)
    table = [None] * (j + 1)
    for u in range(j, -1, -1):
        n = A.hilbert[u]
        image = [[int(r == c) for c in range(n)] for r in range(n)]
        ranks = [n]
        for s in range(u + 1, j + 1):
            moved = [[sum(map(mul, row, col)) for col in columns[s - 1]] for row in image]
            image = [linalg.primitive(row) for row in linalg.echelon(moved)[1]]
            if len(image) == A.hilbert[s]:
                ranks.extend(table[s])
                break
            ranks.append(len(image))
        table[u] = ranks
    return table


def dual_rank_table(F, ell):
    """table[u][s - u] = rank of ell^(s-u): A_u -> A_s for A = R/Ann(F),
    from F alone.

    By Macaulay duality, for ell = a x + b y and n = s - u, ell^n f is zero
    in A iff (h ell^n f) o F = 0 for every h of degree j - s.  So the rank
    is that of the (u+1) x (j-s+1) Hankel matrix [h_(alpha+beta)], where
    h_t = sum_r C(n, r) a^(n-r) b^r g_(t+r) and g is
    divided_power_vector(F); hessians.hessian_rank_at builds the case
    u = i, n = j - 2i.  One Bareiss echelon per entry.
    """
    j = F.homogeneous_degree()
    g = divided_power_vector(F)
    a, b = linalg.primitive((ell.coefficient(1, 0), ell.coefficient(0, 1)))
    table = [[] for _ in range(j + 1)]
    for n in range(j + 1):
        weights = [math.comb(n, r) * a ** (n - r) * b**r for r in range(n + 1)]
        h = [sum(map(mul, weights, g[t:])) for t in range(j - n + 1)]
        for u in range(j - n + 1):
            rows = [h[alpha : alpha + j - u - n + 1] for alpha in range(u + 1)]
            table[u].append(len(linalg.echelon(rows)[0]))
    return table
