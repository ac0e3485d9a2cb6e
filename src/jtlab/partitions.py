"""Partitions, Ferrers diagrams, diagonal lengths, and CI-shaped Hilbert
functions.

A partition stores its weakly decreasing parts as a tuple and is read in
power form ((p_1, n_1), ..., (p_t, n_t)) with p_1 > p_2 > ... > p_t: every
structural formula in this package indexes by distinct part sizes and
their multiplicities.  _runs reads that form, and format_caret_list, the
one writer of caret text "p_1^n_1,...", writes it.

Diagonal lengths of a partition are the lengths of the slope-one diagonals
of its Ferrers diagram; they always form an admissible Hilbert function of a
graded Artinian quotient of k[x,y], and the Jordan type of any linear form
on such a quotient has diagonal lengths equal to the Hilbert function.

Partition and HilbertFunction are immutable values on errors._Value:
``Partition(P)`` returns P itself and ``HilbertFunction(T)`` returns T,
without validating again.  A partition is its parts alone; what it holds
besides, in the memo slots _hilbert and _label, is never compared, hashed
or pickled.  A partition holds its validated HilbertFunction once known.
Those built by codes._glue and codes.cijt_from_composition get the T they
were built from, after their diagonal lengths are checked, so all the
partitions of one enumeration share one T.  Any other partition derives
its own on the first call of hilbert_function(P); diagonal_lengths(P)
reads it.

A partition glued from a branch label (codes._glue, behind both
codes.branch_label_to_partition and codes.enumerate_diagonal_partitions)
is built by Partition._checked from the rows the gluing has checked, with
no second check of its parts.  It also holds its label, set there once
every check of the gluing passed, and codes.partition_to_branch_label
returns it.  A partition that is parsed, built from its parts, copied or
unpickled holds no label, and its label is read off the diagram.
"""

from __future__ import annotations

import itertools
import operator
import re

from .errors import (
    BudgetExceeded,
    DiagonalMismatch,
    InternalInconsistency,
    NotCIShape,
    ParseError,
    SizeMismatch,
    _integers,
    _pairs,
    _Value,
)

__all__ = [
    "Partition",
    "HilbertFunction",
    "JordanDegreeType",
    "diagonal_lengths",
    "hilbert_function",
    "column_lengths",
    "conjugate",
    "sl_partition",
    "validate_ci_hilbert",
    "dominance_leq",
    "is_symmetric_jdt",
    "symmetric_string_placement",
]

# Most entries, and largest entry, of a caret list, and most parts of a
# partition given to symmetric_string_placement, whose search takes one
# stack frame per string or mirror pair it places (about 1990 parts
# overflow Python's default recursion limit).  Every partition of diagonal
# lengths T has at most len(T) parts.
MAX_PARTS = 500


class Partition(_Value):
    """A weakly decreasing sequence of positive integers.

    Immutable and hashable.  ``Partition("6,2^2,1^2")`` and
    ``Partition([6, 2, 2, 1, 1])`` build the same value.  The entries of a
    sequence are read by errors._integers, so 2.5, "2" or True is refused,
    not rounded, parsed or taken for 1: anything but a partition, its text
    or a sequence of integers raises ParseError.  str gives the caret text
    of the parts, written by format_caret_list.  Its one field is parts; ==,
    hash and pickling come from errors._Value.  Besides its parts it may
    hold, as the memos _hilbert and _label, its validated HilbertFunction
    and, when it was glued from a branch label, that label; neither takes
    part in equality, hashing or pickling, and a copy starts without them.
    """

    __slots__ = ("parts", "_hilbert", "_label")

    def __new__(cls, parts):
        if isinstance(parts, Partition):
            return parts  # validated when it was built, and immutable since
        if isinstance(parts, str):
            parts = _parse_caret_list(parts)
        parts = _integers(parts, "a partition must be a sequence of integers")
        if not parts:
            raise ParseError("empty partition")
        if min(parts) < 1:
            raise ParseError(f"parts must be positive: {parts}")
        if any(map(operator.lt, parts, parts[1:])):
            raise ParseError(f"parts must be weakly decreasing: {parts}")
        return cls._checked(parts)

    @classmethod
    def _checked(cls, parts):
        """The partition of a nonempty tuple of positive ints in weakly
        decreasing order, which the caller has checked; nothing is checked
        again."""
        self = object.__new__(cls)
        object.__setattr__(self, "parts", parts)
        # the validated HilbertFunction of the diagonal lengths, once known
        object.__setattr__(self, "_hilbert", None)
        # the checked branch label it was glued from, if any
        object.__setattr__(self, "_label", None)
        return self

    @property
    def power_form(self):
        """((p_1, n_1), ..., (p_t, n_t)) with p_1 > ... > p_t: the runs of
        equal parts, read by _runs, the reader behind the caret text too."""
        return _runs(self.parts)

    @property
    def size(self):
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __lt__(self, other):
        return self.parts < other.parts

    def __repr__(self):
        return f"Partition({str(self)!r})"

    def __str__(self):
        return format_caret_list(self.parts)

    def cells(self):
        """Cells (row r, column m), both 0-based, of the Ferrers diagram.

        Row r is filled by the monomials y^r x^m for m < p_{r+1}; the cell
        (r, m) sits on the diagonal of degree r + m.
        """
        for r, p in enumerate(self.parts):
            for m in range(p):
                yield (r, m)


def _parse_caret_list(text):
    """Parse a comma list with caret multiplicities, e.g. "19^2,15^2,10^3,3^4".

    Raises BudgetExceeded, before anything is expanded, when the list would
    have more than MAX_PARTS entries or an entry larger than MAX_PARTS.
    """
    runs = []
    for piece in text.split(","):
        piece = piece.strip()
        m = re.fullmatch(r"(\d+)(?:\^(\d+))?", piece)
        if not m:
            raise ParseError(f"bad entry {piece!r} in {text!r}")
        try:
            value, mult = int(m.group(1)), int(m.group(2) or 1)
        except ValueError:  # more digits than int() converts
            raise BudgetExceeded(
                f"an entry of {len(piece)} characters is over the cap of {MAX_PARTS}"
            ) from None
        if mult < 1:
            raise ParseError(f"multiplicity must be positive in {piece!r}")
        runs.append((value, mult))
    count = sum(mult for _, mult in runs)
    largest = max(value for value, _ in runs)
    if count > MAX_PARTS or largest > MAX_PARTS:
        raise BudgetExceeded(
            f"{count} entries, the largest {largest}: the cap is {MAX_PARTS} "
            f"entries of at most {MAX_PARTS} each"
        )
    return [value for value, mult in runs for _ in range(mult)]


def _runs(values):
    """The runs of equal neighbours of a sequence, in order, as pairs
    (value, count), read in one pass; () for an empty sequence."""
    runs = []
    if values:
        run, count = values[0], 0
        for v in values:
            if v != run:
                runs.append((run, count))
                run, count = v, 0
            count += 1
        runs.append((run, count))
    return tuple(runs)


def format_caret_list(values):
    """The caret text of a sequence, the inverse of the caret-list parser:
    each run of _runs written v^n, or v alone when n = 1, joined by commas.
    The one writer of that text: a Partition prints its parts and a
    HilbertFunction its values through it."""
    return ",".join(f"{v}^{n}" if n > 1 else str(v) for v, n in _runs(values))


def diagonal_lengths(P):
    """Lengths t_i of the degree-i diagonals of the Ferrers diagram of P.

    t_i counts rows r (1-based) whose column index i-(r-1) lies in
    [0, p_r - 1].  For the Jordan type of a linear form on an Artinian
    algebra this sequence is the algebra's Hilbert function.

    Row r (0-based) of length p has one cell on each diagonal r..r+p-1, so
    t is the running sum of a difference array that gains +1 at r and -1
    at r + p for every row: O(rows + degrees), not O(cells).  Row r covers
    diagonal r, so the sum stays positive up to the top degree
    max(r + p) - 1 and is cut at its first zero.  A partition that already
    holds its HilbertFunction (see hilbert_function) answers from it.
    """
    P = Partition(P)
    if P._hilbert is not None:
        return P._hilbert.values
    parts = P.parts
    steps = [0] * (len(parts) + parts[0])
    for r, p in enumerate(parts):
        steps[r] += 1
        steps[r + p] -= 1
    t = tuple(itertools.accumulate(steps))
    return t[: t.index(0)]


def hilbert_function(P):
    """The validated HilbertFunction of P's diagonal lengths.

    It is derived on the first call for a partition and kept on it, unless
    the enumeration that built P already gave it the T it was built from.
    Raises NotCIShape when the diagonal lengths are not CI-shaped.
    """
    P = Partition(P)
    if P._hilbert is None:
        share_hilbert(P, HilbertFunction(diagonal_lengths(P)))
    return P._hilbert


def share_hilbert(P, T):
    """Give P the HilbertFunction T, which the caller has checked to be
    P's diagonal lengths, and return P."""
    object.__setattr__(P, "_hilbert", T)
    return P


def column_lengths(P):
    """Column lengths of the Ferrers diagram of the Partition P, indexed by
    x-exponent: entry m counts the parts larger than m."""
    parts = P.parts
    cols = []
    rows = len(parts)
    for m in range(parts[0]):
        while parts[rows - 1] <= m:
            rows -= 1
        cols.append(rows)
    return cols


def conjugate(P):
    """Transpose of the Ferrers diagram (switch rows and columns)."""
    return Partition(column_lengths(Partition(P)))


def validate_ci_hilbert(T):
    """Check T = (1,2,...,d-1,d^k,d-1,...,2,1) and return (d, k, j).

    The entries are read by errors._integers, as a Partition's are
    (ParseError for a str, a bool or any other entry that is no integer).
    Raises NotCIShape for any other sequence, and compares the length with
    2d+k-2 before the expected sequence is built, so a large entry such as
    (1, 10**30, 1) is refused without allocating for it.
    """
    T = _integers(T, "a Hilbert function must be a sequence of integers")
    if not T or T[0] != 1:
        raise NotCIShape(f"{T} does not start at 1")
    d = max(T)
    k = T.count(d)
    j = 2 * d + k - 3
    # `or` compares the length first, so the expected sequence is built
    # only when it is as long as T
    if len(T) != j + 1 or T != tuple(range(1, d)) + (d,) * k + tuple(range(d - 1, 0, -1)):
        raise NotCIShape(f"{T} is not of the form (1,...,d-1,d^k,d-1,...,1)")
    if sum(T) != d * (j + 2 - d):
        raise InternalInconsistency(f"{T}: size disagrees with d={d}, k={k}")
    return d, k, j


class HilbertFunction(_Value):
    """A complete intersection Hilbert function (1,2,...,d^k,...,2,1).

    d is the Sperner number (height), k the multiplicity of d, and
    j = 2d + k - 3 the socle degree.  Built from a HilbertFunction (returned
    as it is), a caret list, or a sequence whose entries are read by
    errors._integers like a Partition's: a non-integer entry or input raises
    ParseError, and any other sequence NotCIShape (see validate_ci_hilbert).
    """

    __slots__ = ("values", "d", "k", "j")

    def __new__(cls, values):
        if isinstance(values, HilbertFunction):
            return values  # validated when it was built, and immutable since
        if isinstance(values, str):
            values = _parse_caret_list(values)
        values = _integers(values, "a Hilbert function must be a sequence of integers")
        d, k, j = validate_ci_hilbert(values)
        self = object.__new__(cls)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "j", j)
        return self

    def __reduce__(self):
        return (HilbertFunction, (self.values,))

    @classmethod
    def from_dk(cls, d, k):
        """T(d, k) = (1,...,d-1,d^k,d-1,...,1).  d and k are read by
        errors._integers, like a Partition's entries (ParseError for a bool
        or any other value that is no integer), and d < 1 or k < 1 raises
        NotCIShape."""
        d, k = _integers((d, k), "T(d, k) needs integers d and k")
        if d < 1 or k < 1:
            raise NotCIShape(f"T(d, k) needs d >= 1 and k >= 1, not d = {d}, k = {k}")
        return cls(tuple(range(1, d)) + (d,) * k + tuple(range(d - 1, 0, -1)))

    @property
    def size(self):
        return sum(self.values)

    @property
    def branches(self):
        """d when k >= 2 and d - 1 when k = 1.

        A partition of diagonal lengths T is the basic triangle with
        branches attached at the d+1 cells of degree d, one left as a gap
        when k >= 2 and two when k = 1.  So this one number is the count of
        labelled branches (a branch label holds the values 1..branches, and
        d+1-branches E's), the count of active Hessian orders
        (0..branches-1), and the largest sum of a composition that gives a
        CIJT partition; each of these reads it here.  Other rules that
        differ between k = 1 and k >= 2 test k themselves: the partition
        count, the labels that enumerate_branch_labels lists, the subscript
        of a horizontal entry 1 in codes._label_hooks, the run that reaches
        the top order in hessians.predicted_rank_profile, and the "top"
        type of hessians.generic_jordan_type.
        """
        return self.d if self.k >= 2 else self.d - 1

    def __getitem__(self, i):
        return self.values[i]

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __str__(self):
        return format_caret_list(self.values)

    def __repr__(self):
        return f"HilbertFunction({str(self)!r})"


def sl_partition(T):
    """The strong Lefschetz Jordan type (2d+k-2, 2d+k-4, ..., k+2, k).

    This is the conjugate of T viewed as a partition; it has d parts.
    """
    T = HilbertFunction(T)
    return Partition(range(2 * T.d + T.k - 2, T.k - 1, -2))


def dominance_leq(Q, P):
    """Dominance order: every partial sum of Q is at most that of P.

    Requires |Q| = |P|; comparing up to the shorter length then suffices.
    """
    Q, P = Partition(Q), Partition(P)
    if Q.size != P.size:
        raise SizeMismatch(f"|{Q}| = {Q.size} != {P.size} = |{P}|")
    sq = sp = 0
    for q, p in zip(Q.parts, P.parts):
        sq += q
        sp += p
        if sq > sp:
            return False
    return True


class JordanDegreeType(_Value):
    """Multiset of strings (start degree i, length s) with multiplicities.

    A string of length s starting in degree i covers degrees i..i+s-1; the
    per-degree coverage of all strings of an Artinian algebra equals its
    Hilbert function.  Built from a mapping {(i, s): m} or items
    ((i, s), m), as errors._pairs reads them, each of i, s and m read by
    errors._integers (ParseError for anything else: an item that is no
    such pair, a bool, a float, a str or None).  The multiplicities of
    items with one key (i, s) are summed, and a string whose sum is 0 is
    dropped, so every spelling of one multiset gives one value.
    """

    __slots__ = ("strings",)  # sorted tuple of ((i, s), multiplicity)

    def __init__(self, strings):
        items = _pairs(strings, "strings are a mapping or items ((i, s), m)")
        what = "a string's start, length and multiplicity are integers"
        counts = {}
        for (i, s), m in items:
            i, s, m = _integers((i, s, m), what)
            counts[i, s] = counts.get((i, s), 0) + m
        normal = tuple(sorted(item for item in counts.items() if item[1]))
        object.__setattr__(self, "strings", normal)

    def coverage(self):
        """Number of strings covering each degree, as a tuple."""
        top = max((i + s for (i, s), _ in self.strings), default=0)
        cov = [0] * top
        for (i, s), m in self.strings:
            for deg in range(i, i + s):
                cov[deg] += m
        return tuple(cov)

    def partition(self):
        lengths = []
        for (_, s), m in self.strings:
            lengths.extend([s] * m)
        return Partition(sorted(lengths, reverse=True))

    def is_symmetric(self, j):
        """Invariance of the multiset under (i, s) -> (j+1-s-i, s)."""
        d = dict(self.strings)
        return all(d.get((j + 1 - s - i, s), 0) == m for (i, s), m in d.items())

    def __str__(self):
        return "; ".join(
            f"{m} x (start {i}, len {s})" if m > 1 else f"(start {i}, len {s})"
            for (i, s), m in self.strings
        )


def _parity_rules_out(power_form, j):
    """Whether the parity lemma rules out every symmetric placement.

    The mirror (i, s) -> (j+1-s-i, s) is an involution on the strings of
    length s, so a symmetric multiset holds its non-fixed strings in mirror
    pairs.  A fixed string starts at (j+1-s)/2, which exists only when
    j+1-s is even.  Hence when j+1-s is odd every length-s string has a
    distinct partner, and an odd number n_s of parts of length s cannot be
    placed symmetrically.  This is a proof, not a heuristic: True means no
    symmetric placement exists.
    """
    for s, n in power_form:
        if n % 2 and (j + 1 - s) % 2:
            return True
    return False


def _placement(P, T):
    """The backtracking search behind symmetric_string_placement: a dict
    {(start, length): multiplicity} that covers T symmetrically, or None.

    Each part of length s becomes a string covering s consecutive degrees;
    the per-degree coverage must equal T, and the multiset of (start, length)
    pairs must be invariant under (i, s) -> (j+1-s-i, s).  A partition of
    more than MAX_PARTS parts raises BudgetExceeded, and one whose diagonal
    lengths are not T raises DiagonalMismatch, before any search.

    Parity lemma: if some length s has odd multiplicity and j+1-s is odd,
    no symmetric placement exists (see _parity_rules_out), and None is
    returned without searching.  Otherwise plain backtracking over start
    degrees: distinct lengths largest first, starts non-decreasing within a
    length, each mirror pair placed through its lower start i <= (j+1-s)/2,
    pruned by the remaining per-degree capacity.  The capacity list is
    decremented and restored in place, and the placement is recorded only
    on the way back from the search that covered T.

    A returned dict is a symmetric cover of T by construction: no capacity
    goes below 0, success needs every capacity at 0, and each string off
    its mirror start is placed together with its mirror.
    """
    P = Partition(P)
    if len(P) > MAX_PARTS:
        raise BudgetExceeded(f"{len(P)} parts, over the cap of {MAX_PARTS}")
    T = HilbertFunction(T)
    if diagonal_lengths(P) != T.values:
        raise DiagonalMismatch(f"diagonal lengths of {P} are not {T}")
    j = T.j
    runs = P.power_form  # ((s, n_s), ...) by decreasing length s
    if _parity_rules_out(runs, j):
        return None
    cap = list(T.values)
    placed = {}

    def search(run, left, low):
        # `left` strings of length runs[run][0] remain, starting at >= low;
        # on success the strings placed from here on are added to `placed`
        if not left:
            run += 1
            if run == len(runs):
                return not any(cap)
            left, low = runs[run][1], 0
        s = runs[run][0]
        for i in range(low, (j + 1 - s) // 2 + 1):
            mirror = j + 1 - s - i
            if mirror != i and left < 2 or 0 in cap[i : i + s]:
                continue
            for t in range(i, i + s):
                cap[t] -= 1
            if mirror == i:
                if search(run, left - 1, i):
                    placed[i, s] = placed.get((i, s), 0) + 1
                    return True
            elif 0 not in cap[mirror : mirror + s]:
                for t in range(mirror, mirror + s):
                    cap[t] -= 1
                if search(run, left - 2, i):
                    placed[i, s] = placed.get((i, s), 0) + 1
                    placed[mirror, s] = placed.get((mirror, s), 0) + 1
                    return True
                for t in range(mirror, mirror + s):
                    cap[t] += 1
            for t in range(i, i + s):
                cap[t] += 1
        return False

    return placed if search(0, runs[0][1], 0) else None


def symmetric_string_placement(P, T):
    """A witness JordanDegreeType for a symmetric string placement of the
    parts of P covering T, or None when there is none.

    The search is `_placement` (see there for the rules, the parity lemma
    and the BudgetExceeded and DiagonalMismatch refusals).  The witness is
    checked once more, its coverage against T and its symmetry, and
    InternalInconsistency is raised if either fails.
    """
    placed = _placement(P, T)
    if placed is None:
        return None
    T = HilbertFunction(T)
    witness = JordanDegreeType(placed)
    if witness.coverage() != T.values or not witness.is_symmetric(T.j):
        raise InternalInconsistency(f"placement {witness} of {P} is not a symmetric cover of {T}")
    return witness


def is_symmetric_jdt(P, T):
    """True iff the parts of P admit a symmetric string placement for T.

    Answers from `_placement` alone and builds no witness: a placement that
    the search returns covers T symmetrically by construction, and tests
    check this answer against symmetric_string_placement, whose witness
    check still runs there.
    """
    return _placement(P, T) is not None
