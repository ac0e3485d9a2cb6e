"""Branch labels, hook codes, and the classification of complete
intersection Jordan types (CIJT).

A partition P with diagonal lengths T = (1,2,...,d^k,...,2,1) is obtained
from the basic triangle of all monomials of degree < d by attaching
T.branches branches at the d+1 cells of degree d: vertical ones below the
last gap, horizontal ones above it.  There is one gap when k >= 2 and two
when k = 1; HilbertFunction.branches (d or d-1) counts the labelled
branches, and the code here reads the gap count d+1-T.branches and the
largest composition sum from it.  The partition count, the label
enumeration and the subscript of a horizontal entry 1 test k themselves.
The branch label records the branch lengths, with each gap written as the
sentinel E; when k >= 2 every branch carries k-2 extra "thickening" boxes
not counted in the label.

enumerate_diagonal_partitions builds each partition of T once.  Its labels
need no sort and no parse: the intervals of each division are consecutive,
so their forced orders are the division reversed, and the entries are
known to be E and 1..T.branches.  `_glue` checks each glued diagram once,
and the Partition is built from its rows without checking them again.

P is CIJT exactly when its power form satisfies p_{i-1} = n_{i-1} + n_i + p_i
for every i, equivalently when P has d or d+k-1 parts.  CIJT partitions are
parametrized by ordered partitions (compositions) of n in [0, T.branches].

A difference-one hook of P is a hook of the Ferrers diagram whose arm
exceeds its leg by exactly one; the hook code counts these by the degree of
the hand monomial.  The total count is the dimension of the affine cell of
ideals whose initial ideal is the monomial ideal complementary to P.
"""

from __future__ import annotations

import contextlib
import itertools
import operator

from .errors import (
    InternalInconsistency,
    InvalidLabel,
    NotCIJT,
    NotCIJTWithDParts,
    ParseError,
    _integer,
    _integers,
    _Value,
)
from .partitions import (
    HilbertFunction,
    Partition,
    column_lengths,
    diagonal_lengths,
    hilbert_function,
    share_hilbert,
)

__all__ = [
    "E",
    "BranchLabel",
    "HookCode",
    "partition_to_branch_label",
    "branch_label_to_partition",
    "diagonal_partition_count",
    "enumerate_branch_labels",
    "enumerate_diagonal_partitions",
    "is_cijt",
    "enumerate_cijt",
    "compositions",
    "hook_counts_by_degree",
    "hook_code_direct",
    "hook_code_from_label",
    "cell_dimension",
    "iota",
]


class _Gap:
    """Sentinel for an omitted attachment point in a branch label."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "E"

    def __reduce__(self):
        return "E"  # the module attribute: copies and unpickling give E itself


E = _Gap()


class BranchLabel(_Value):
    """A (d+1)-tuple holding d+1-T.branches E's and the values
    1..T.branches: {E, 1..d} when k >= 2, {E, E, 1..d-1} when k = 1.

    Built from text ("1,2,E,3"), from another label, or from a sequence of
    entries: E, "E" or "e", 0 (a gap too), an integer, or the text of one.
    Text that int() reads is read with int; any other entry goes to
    errors._integer, as a Partition's parts do, so a float such as 2.7, a
    bool or other text raises ParseError instead of being truncated, taken
    for 1 or parsed."""

    __slots__ = ("entries",)

    def __new__(cls, entries):
        if isinstance(entries, BranchLabel):
            return entries  # parsed when it was built, and immutable since
        if isinstance(entries, str):
            entries = [piece.strip() for piece in entries.split(",")]
        clean = []
        for e in entries:
            if e is E or e in ("E", "e"):
                clean.append(E)
                continue
            with contextlib.suppress(ValueError):  # text int() does not read: _integer refuses it
                e = int(e) if isinstance(e, str) else e
            value = _integer(e, "bad branch label entry: an entry is E, 0 or an integer")
            clean.append(E if value == 0 else value)  # 0 is the gap too
        if not clean:
            raise ParseError("empty branch label")
        return cls._of(tuple(clean))

    @classmethod
    def _of(cls, entries):
        """The label of a nonempty tuple of entries E and nonzero ints, the
        form the parser leaves them in; nothing is parsed or checked."""
        self = object.__new__(cls)
        object.__setattr__(self, "entries", entries)
        return self

    @property
    def gaps(self):
        """Positions of the E entries."""
        return tuple(i for i, e in enumerate(self.entries) if e is E)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __str__(self):
        return ",".join(["E" if e is E else str(e) for e in self.entries])

    def __repr__(self):
        return f"BranchLabel({str(self)!r})"


def partition_to_branch_label(P):
    """The branch label of a partition with CI-shaped diagonal lengths.

    The gaps are the x-exponents m in [0, d] with no cell at x^m y^(d-m),
    i.e. whose column is at most d-m long; there are d+1-T.branches of them,
    v = first and h = last (equal when k >= 2).  Vertical attachment lengths
    are read off the columns left of v, horizontal ones off the rows above
    h, each reduced by the thickening offset s = max(0, k-2); the entries
    between v and h (k = 1) are 1, 2, ....

    A partition glued by `_glue` (from branch_label_to_partition, which
    validates the label, or from enumerate_diagonal_partitions, whose labels
    are valid by construction) holds the label it was glued from, and that
    label is returned as it is, the way hilbert_function returns a shared T.
    Any other partition has its label read off the diagram and validated.
    """
    P = Partition(P)
    if P._label is not None:
        return P._label
    T = hilbert_function(P)
    d = T.d
    s = max(0, T.k - 2)
    # column m and row r (0-based), as 0 past the diagram
    cols = column_lengths(P) + [0] * (d + 1)
    rows = P.parts + (0,) * d
    gaps = [m for m in range(d + 1) if cols[m] <= d - m]
    if len(gaps) != d + 1 - T.branches:
        raise InternalInconsistency(
            f"{P}: {len(gaps)} gaps in degree {d}, want {d + 1 - T.branches}"
        )
    v, h = gaps[0], gaps[-1]
    entries = [E] * (d + 1)
    for i in range(v):
        entries[i] = cols[i] - (d - i) - s
    for i in range(v + 1, h):
        entries[i] = i - v
    for i in range(h + 1, d + 1):
        entries[i] = rows[i - h - 1] - (d - i + h + 1) - s
    label = BranchLabel(entries)
    _validate_label(label, T)
    return label


def _segments(label, T):
    """Split a valid-shaped label into (vertical, between, horizontal).

    A label of T has d+1-T.branches E's, at v = first and h = last, and the
    values 1..T.branches; `between` lies strictly between v and h, so it is
    empty when there is one E.  Raises InvalidLabel when the entry multiset
    or gap count is wrong.
    """
    d, top = T.d, T.branches
    entries = label.entries
    if len(entries) != d + 1:
        raise InvalidLabel(f"{label} has {len(entries)} entries, want {d + 1}")
    gaps = label.gaps
    if len(gaps) != d + 1 - top:
        raise InvalidLabel(f"{label} has {len(gaps)} E entries, want {d + 1 - top}")
    values = sorted(e for e in entries if e is not E)
    if values != list(range(1, top + 1)):
        raise InvalidLabel(f"{label}: entries other than E must be 1..{top}")
    v, h = gaps[0], gaps[-1]
    return entries[:v], entries[v + 1 : h], entries[h + 1 :]


def _validate_label(label, T):
    """Interval conditions: within the vertical and horizontal segments each
    step satisfies next <= prev + 1, and the segment between the first and
    last E is exactly 1, 2, ..., g-1 (empty when there is one E)."""
    vert, between, horiz = _segments(label, T)
    if between != tuple(range(1, len(between) + 1)):
        raise InvalidLabel(f"{label}: segment between the E's must be 1,2,...")
    for segment in (vert, horiz):
        for a, b in zip(segment, segment[1:]):
            if b > a + 1:
                raise InvalidLabel(f"{label}: step {a} -> {b} rises by more than one")
    return vert, between, horiz


def branch_label_to_partition(label, T):
    """Glue the labelled branches to the basic triangle and read the rows.

    Inverse of partition_to_branch_label.  The label is parsed, checked
    against T by `_validate_label` (InvalidLabel when it fails), and glued
    by `_glue`, which gives the partition T itself and the label.
    """
    label = BranchLabel(label)
    T = HilbertFunction(T)
    _validate_label(label, T)
    return _glue(label, T)


def _glue(label, T):
    """The partition of a label that `_validate_label` accepts for T.

    The last gap e is found by a scan from the right.  The entries left of
    it are vertical branches, glued in one pass, and those right of it
    horizontal ones, glued in a second.  Each row keeps its cell count and
    one past its largest column; no two cells coincide (see below), so a
    row is left justified exactly when the two are equal.  The rows are
    checked to be left justified, then to be weakly decreasing, and the
    partition is built from them with Partition._checked, which does not
    check them again.  Every row is positive: the triangle's d rows are,
    and a vertical branch that adds rows past the last one covers each row
    it adds, since it starts at row d - i <= d.  Once its diagonal lengths
    are checked, after every other check, the partition is given T itself
    and the label, which partition_to_branch_label then returns without
    reading the diagram.  No other function gives a partition a label.  The
    caller vouches for the label: branch_label_to_partition validates it,
    and enumerate_diagonal_partitions takes it from enumerate_branch_labels,
    which builds only labels that pass (a test checks every label for
    d <= 8, k <= 4).

    Every label tested (d <= 6, k <= 3) that passes `_segments` but not the
    interval conditions glues to a diagram that is not left justified or
    whose rows rise, so those two checks raise InvalidLabel for a label that
    slipped past its caller.  The diagonal-lengths check after them cannot
    fire.  A branch of length l covers degrees d..d+l-1 once each, outside
    the triangle, and no two branches share a cell: vertical branches hang
    below columns i < e, horizontal ones extend rows r <= d-e, and a shared
    cell would need r + i >= d+1.  So the glued cells have diagonal lengths
    T whenever `_segments` accepts the entry multiset, and a left-justified
    diagram with weakly decreasing rows is the Ferrers diagram of P itself.
    """
    d, s = T.d, max(0, T.k - 2)
    entries = label.entries
    e = len(entries) - 1
    while entries[e] is not E:
        e -= 1
    # row r (0-based here) of the triangle holds the columns 0..d-1-r
    count = list(range(d, 0, -1))
    end = count[:]  # one past the largest column, 0 for no cell
    for i in range(e):  # a vertical branch below column i
        entry = entries[i]
        if entry is E:
            continue
        lo = d - i
        hi = lo + entry + s
        if hi > len(count):
            count += [0] * (hi - len(count))
            end += [0] * (hi - len(end))
        # columns come in increasing order, and the triangle's cells in
        # these rows lie left of column i
        for r in range(lo, hi):
            count[r] += 1
            end[r] = i + 1
    for r, entry in enumerate(entries[e + 1 :]):  # row r, past column d-1-r
        count[r] += entry + s
        end[r] += entry + s
    # an empty row has count and end 0, so the rows are left justified
    # exactly when the two lists agree
    if end != count:
        raise InvalidLabel(f"{label}: glued diagram is not left justified")
    if any(map(operator.lt, count, count[1:])):
        raise InvalidLabel(f"{label}: glued rows are not weakly decreasing")
    P = Partition._checked(tuple(count))
    if diagonal_lengths(P) != T.values:
        raise InternalInconsistency(f"{label}: diagram has wrong diagonal lengths")
    object.__setattr__(P, "_label", label)
    return share_hilbert(P, T)


def diagonal_partition_count(T):
    """Number of partitions of diagonal lengths T, one per branch label:
    2*3^(d-1) when k >= 2, 3^(d-1) when k = 1."""
    T = HilbertFunction(T)
    return (2 if T.k >= 2 else 1) * 3 ** (T.d - 1)


def _labels_around(middle, lo, hi):
    """Labels (*vertical, *middle, *horizontal) for the tuple middle: for
    each division of [lo, hi] into consecutive intervals (one per
    composition of hi - lo + 1, in the order of compositions) and each
    choice, by increasing bitmask, of which intervals are vertical.  An
    empty [lo, hi] gives the one label (*middle).

    The vertical intervals come in their forced order, by decreasing
    minimum, and the horizontal ones in theirs, by decreasing maximum.  The
    intervals are consecutive, so both orders are the order of the division
    reversed, and no sort is needed.  The entries are E and the values
    lo..hi, so the label is built with BranchLabel._of, unparsed.
    """
    for comp in compositions(hi - lo + 1):
        ends = list(itertools.accumulate(comp, initial=lo - 1))
        intervals = [tuple(range(a + 1, z + 1)) for a, z in zip(ends, ends[1:])]
        # mask bit b makes interval b vertical; both sides list the last first
        choices = [(1 << b, intervals[b]) for b in reversed(range(len(intervals)))]
        for mask in range(1 << len(intervals)):
            vert = horiz = ()
            for bit, run in choices:
                if mask & bit:
                    vert += run
                else:
                    horiz += run
            yield BranchLabel._of(vert + middle + horiz)


def enumerate_branch_labels(T):
    """All valid branch labels for T: 2*3^(d-1) of them when k >= 2,
    3^(d-1) when k = 1.  Their distinctness is checked on the entries
    tuples, which equal labels share, without hashing a BranchLabel."""
    T = HilbertFunction(T)
    d, k = T.d, T.k
    if k >= 2:
        labels = list(_labels_around((E,), 1, d))
    else:
        labels = [
            label
            for g in range(1, d + 1)
            for label in _labels_around((E, *range(1, g), E), g, d - 1)
        ]
    expected = diagonal_partition_count(T)
    if not len(labels) == len({label.entries for label in labels}) == expected:
        raise InternalInconsistency(f"{len(labels)} labels for {T}, want {expected} distinct")
    return labels


def enumerate_diagonal_partitions(T):
    """All partitions of diagonal lengths T, via their branch labels,
    sorted by parts in descending lexicographic order (a linear extension
    of dominance).

    Each label of enumerate_branch_labels is valid by construction and is
    glued by `_glue` without a second `_validate_label`; the gluing's own
    checks still raise InvalidLabel for a label that is not.  No two labels
    may glue to one partition, checked on the parts tuples.
    """
    T = HilbertFunction(T)
    parts = [_glue(b, T) for b in enumerate_branch_labels(T)]
    if len(parts) != len({P.parts for P in parts}):
        raise InternalInconsistency(f"two branch labels of {T} glue to the same partition")
    return sorted(parts, key=lambda P: P.parts, reverse=True)


def is_cijt(P):
    """Whether P occurs as the Jordan type of a linear form on a graded
    complete intersection.

    Both characterizations are computed and compared: the power-form
    equality p_{i-1} = n_{i-1} + n_i + p_i, and the part count being d or
    d+k-1.
    """
    P = Partition(P)
    T = hilbert_function(P)
    pf = P.power_form
    by_equality = all(
        pf[i - 1][0] == pf[i - 1][1] + pf[i][1] + pf[i][0] for i in range(1, len(pf))
    )
    by_parts = len(P) in (T.d, T.d + T.k - 1)
    if by_equality != by_parts:
        raise InternalInconsistency(
            f"{P}: equality criterion says {by_equality}, part count says {by_parts}"
        )
    return by_equality


def compositions(n):
    """Ordered partitions of n, by increasing cut bitmask; () for n = 0.  n
    is read by errors._integer when the first one is asked for (ParseError
    for a bool, a float, a str or None)."""
    n = _integer(n, "n is an integer")
    if n == 0:
        yield ()
        return
    for mask in range(1 << (n - 1)):
        comp = []
        run = 1
        for pos in range(n - 1):
            if mask >> pos & 1:
                comp.append(run)
                run = 1
            else:
                run += 1
        comp.append(run)
        yield tuple(comp)


def cijt_from_composition(T, comp):
    """The CIJT partition attached to an ordered partition n_1 + ... + n_c.

    Parts p_i = k - 1 + 2d - n_i - 2(n_1 + ... + n_{i-1}) with multiplicity
    n_i, followed by the rectangle (d-n)^(d-n+k-1), empty when n = d.  The
    sum n runs over 0..T.branches.  comp is read by errors._integers
    (ParseError for a str, a non-iterable or an entry that is no integer).
    """
    T = HilbertFunction(T)
    comp = _integers(comp, "a composition must be a sequence of integers")
    d, k = T.d, T.k
    n = sum(comp)
    if not 0 <= n <= T.branches:
        raise NotCIJT(f"composition sums to {n}, want 0..{T.branches}")
    parts = []
    prefix = 0
    for n_i in comp:
        p_i = (k - 1) + 2 * d - n_i - 2 * prefix
        parts.extend([p_i] * n_i)
        prefix += n_i
    if n < d:
        parts.extend([d - n] * (d - n + k - 1))
    P = Partition(parts)
    if diagonal_lengths(P) != T.values:
        raise InternalInconsistency(f"composition {comp} gives {P}, not of diagonal lengths {T}")
    return share_hilbert(P, T)


def enumerate_cijt(T):
    """All CIJT partitions of diagonal lengths T, 2^T.branches of them,
    checked distinct on their parts tuples.  Order: n ascending, then
    composition bitmask."""
    T = HilbertFunction(T)
    top = T.branches
    out = []
    for n in range(top + 1):
        for comp in compositions(n):
            out.append(cijt_from_composition(T, comp))
    if not len(out) == len({P.parts for P in out}) == 2**top:
        raise InternalInconsistency(f"{len(out)} CIJT partitions of {T}, want {2**top} distinct")
    if not all(is_cijt(P) for P in out):
        raise InternalInconsistency(f"a composition of {T} gives a non-CIJT partition")
    return out


def hook_counts_by_degree(P):
    """Count difference-one hooks by the degree of the hand monomial.

    Every cell (r, m) is the corner of one hook: the arm runs to the end of
    row r (length u = p_r - m), the leg to the bottom of column m (length
    v = number of rows at or below r longer than m).  The hook counts when
    u - v = 1; its hand is the last cell of row r, of degree r + p_r - 2
    (1-based row).

    With 0-based rows, the rows longer than m are exactly rows 0..c_m - 1,
    where c_m = column_lengths(P)[m], so v = c_m - r.  Then u - v = 1 reads
    m + c_m = p_r + r - 1, and row r's count is how often that value occurs
    among m + c_m for m < p_r: one pass over the columns, O(cells) in all
    instead of O(cells x rows).
    """
    P = Partition(P)
    reach = [m + c for m, c in enumerate(column_lengths(P))]
    counts = {}
    for r, p in enumerate(P.parts):
        hooks = reach[:p].count(p + r - 1)
        if hooks:
            hand_degree = r + p - 1
            counts[hand_degree] = counts.get(hand_degree, 0) + hooks
    return counts


def cell_dimension(P):
    """Total number of difference-one hooks = dimension of the affine cell
    of ideals with this initial-monomial-ideal partition."""
    return sum(hook_counts_by_degree(P).values())


class HookCode(_Value):
    """Hook counts of a partition of CI-shaped diagonal lengths.

    traditional: counts by hand degree over the window [d, j], stored as
    ((degree, count), ...).  subscripted: the branch label with each entry
    annotated by the hook count at its branch endpoint, stored aligned with
    the label entries (None at E).
    """

    __slots__ = ("traditional", "label", "subscripts", "d", "k")

    def __init__(self, traditional: tuple, label: BranchLabel, subscripts: tuple, d: int, k: int):
        object.__setattr__(self, "traditional", traditional)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "subscripts", subscripts)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "k", k)

    def traditional_str(self, support_only=False):
        """Comma list "1_3,2_4,2_5", written by `_traditional_text`.  With
        support_only the window starts at d+k-2, the least possible hand
        degree, as reference tables print it; degrees d..d+k-3 are
        identically zero (only visible when k >= 3)."""
        lo = self.d + max(0, self.k - 2) if support_only else self.d
        return _traditional_text(self.traditional, lo)

    def subscripted_str(self):
        """Comma list "E,3_2,2_2,1_1", written by `_subscripted_text`."""
        return _subscripted_text(self.label.entries, self.subscripts)

    def traditional_counts(self):
        return tuple(c for _, c in self.traditional)


def _traditional_text(traditional, lo):
    """The text "c_deg,..." of the ((degree, count), ...) pairs of a hook
    code's traditional field whose degree is at least lo."""
    return ",".join([f"{c}_{deg}" for deg, c in traditional if deg >= lo])


def _subscripted_text(entries, subs):
    """The text of label entries annotated by the subscripts aligned with
    them: "E" at a gap, "v_sub" at the entry v."""
    return ",".join(["E" if e is E else f"{e}_{sub}" for e, sub in zip(entries, subs)])


def hook_code_direct(P):
    """Hook code by scanning all cells of the Ferrers diagram.

    The label is partition_to_branch_label(P), so for a partition glued by
    `_glue` it is the label it was glued from; the hook counts, and so
    every subscript, are always counted on the diagram.  The branch
    labelled v has actual length v + s, s = max(0, k-2), so its hand, where
    its subscript is counted, has degree v + d-1 + s.  Raises
    InternalInconsistency when a hand lies outside the window [d, j].
    """
    P = Partition(P)
    T = hilbert_function(P)
    label = partition_to_branch_label(P)
    counts = hook_counts_by_degree(P)
    if counts and (min(counts) < T.d or max(counts) > T.j):
        raise InternalInconsistency(f"{label}: difference-one hook hands outside [d, j]")
    shift = T.d - 1 + max(0, T.k - 2)
    subs = tuple(None if v is E else counts.get(v + shift, 0) for v in label.entries)
    traditional = tuple([(deg, counts.get(deg, 0)) for deg in range(T.d, T.j + 1)])
    return HookCode(traditional, label, subs, T.d, T.k)


def hook_code_from_label(label, T):
    """Hook code computed from the interval structure of the branch label,
    without touching the Ferrers diagram.

    The label is parsed and checked against T by `_validate_label`
    (InvalidLabel when it fails), then read in one walk by `_label_hooks`.
    Tests check it against hook_code_direct, the count on the diagram, on
    every label for d <= 8, k <= 4.
    """
    label = BranchLabel(label)
    T = HilbertFunction(T)
    _validate_label(label, T)
    subs, traditional = _label_hooks(label, T)
    return HookCode(traditional, label, subs, T.d, T.k)


def _label_hooks(label, T):
    """The hook code of a label that `_validate_label` accepts for T, read
    in one walk over its entries, as (subscripts, traditional): the
    subscripts aligned with the entries (None at E), and the
    ((degree, count), ...) pairs over the window [d, j].  These are the
    fields of its HookCode, which cli.classification_row never builds: it
    writes both hook-code columns of every row from this walk, with
    `_traditional_text` and `_subscripted_text`, off the label
    partition_to_branch_label gives.

    Vertical runs (maximal runs of steps of exactly +1 left of the first
    E): first entry 0 hooks, later entries 1.  Horizontal runs (right of
    the last E, above the gap): first entry the maximum possible -- 2,
    except that when k >= 2 the entry 1 admits only 1 -- and later entries
    1.  For k = 1 the segment between the two E's continues the ascending
    run started by the lower gap, so all its entries get 1.  The entry v
    is counted at its hand, of degree v + d-1 + s, s = max(0, k-2); a hand
    outside [d, j] raises InternalInconsistency.
    """
    d, j = T.d, T.j
    entries = label.entries
    first = entries.index(E)
    last = len(entries) - 1 - entries[::-1].index(E)
    shift = d - 1 + max(0, T.k - 2)  # a hand degree less its label value
    subs = []
    counts = [0] * (j + 1)  # by hand degree; the window is counts[d:]
    prev = E  # a run starts at each segment's first entry, E never being v - 1
    for i, v in enumerate(entries):
        if v is E:
            subs.append(None)
        else:
            if prev == v - 1 or first < i < last:
                sub = 1
            elif i < first:
                sub = 0
            else:
                sub = 1 if v == 1 and T.k >= 2 else 2
            subs.append(sub)
            degree = v + shift
            if not d <= degree <= j:
                raise InternalInconsistency(f"{label}: difference-one hook hands outside [d, j]")
            counts[degree] = sub
        prev = v
    return tuple(subs), tuple(zip(range(d, j + 1), counts[d:]))


def iota(P):
    """Conjugate the smallest-part rectangular block in place.

    Defined on CIJT partitions with exactly d parts, where the bottom block
    has shape (a+k)^(a+1); flipping it to (a+1)^(a+k) gives the CIJT
    partition with d+k-1 parts, bijectively.  Identity when k = 1.
    """
    P = Partition(P)
    T = hilbert_function(P)
    if not is_cijt(P) or len(P) != T.d:
        raise NotCIJTWithDParts(f"{P} is not a CIJT partition with {T.d} parts")
    p_t, n_t = P.power_form[-1]
    a = n_t - 1
    if p_t != a + T.k:
        raise InternalInconsistency(f"{P}: smallest block of a d-part CIJT must be (a+k)^(a+1)")
    flipped = P.parts[: len(P) - n_t] + (a + 1,) * (a + T.k)
    Q = Partition(flipped)
    if not is_cijt(Q) or len(Q) != T.d + T.k - 1:
        raise InternalInconsistency(f"{P} flips to {Q}, not a CIJT partition with d+k-1 parts")
    return Q
