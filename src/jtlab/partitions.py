"""Partitions, Ferrers diagrams, diagonal lengths, and CI-shaped Hilbert
functions.

A partition is stored in power form ((p_1, n_1), ..., (p_t, n_t)) with
p_1 > p_2 > ... > p_t: every structural formula in this package indexes by
distinct part sizes and their multiplicities.  The expanded weakly
decreasing list of parts is kept alongside as a tuple.

Diagonal lengths of a partition are the lengths of the slope-one diagonals
of its Ferrers diagram; they always form an admissible Hilbert function of a
graded Artinian quotient of k[x,y], and the Jordan type of any linear form
on such a quotient has diagonal lengths equal to the Hilbert function.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .errors import (
    DiagonalMismatch,
    NotCIShape,
    ParseError,
    SizeMismatch,
)

__all__ = [
    "Partition",
    "HilbertFunction",
    "JordanDegreeType",
    "diagonal_lengths",
    "column_lengths",
    "conjugate",
    "sl_partition",
    "validate_ci_hilbert",
    "dominance_leq",
    "is_symmetric_jdt",
    "symmetric_string_placement",
]


class Partition:
    """A weakly decreasing sequence of positive integers.

    Immutable and hashable.  ``Partition("6,2^2,1^2")`` and
    ``Partition([6, 2, 2, 1, 1])`` build the same value.
    """

    __slots__ = ("parts",)

    def __init__(self, parts):
        if isinstance(parts, str):
            parts = _parse_caret_list(parts)
        elif isinstance(parts, Partition):
            parts = parts.parts
        parts = tuple(int(p) for p in parts)
        if not parts:
            raise ParseError("empty partition")
        if any(p < 1 for p in parts):
            raise ParseError(f"parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ParseError(f"parts must be weakly decreasing: {parts}")
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @property
    def power_form(self):
        """((p_1, n_1), ..., (p_t, n_t)) with p_1 > ... > p_t."""
        return tuple((p, len(list(g))) for p, g in itertools.groupby(self.parts))

    @property
    def size(self):
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __lt__(self, other):
        return self.parts < other.parts

    def __repr__(self):
        return f"Partition({str(self)!r})"

    def __str__(self):
        return ",".join(
            f"{p}^{n}" if n > 1 else str(p) for p, n in self.power_form
        )

    def cells(self):
        """Cells (row r, column m), both 0-based, of the Ferrers diagram.

        Row r is filled by the monomials y^r x^m for m < p_{r+1}; the cell
        (r, m) sits on the diagonal of degree r + m.
        """
        for r, p in enumerate(self.parts):
            for m in range(p):
                yield (r, m)


def _parse_caret_list(text):
    """Parse a comma list with caret multiplicities, e.g. "19^2,15^2,10^3,3^4"."""
    values = []
    for piece in text.split(","):
        piece = piece.strip()
        m = re.fullmatch(r"(\d+)(?:\^(\d+))?", piece)
        if not m:
            raise ParseError(f"bad entry {piece!r} in {text!r}")
        value = int(m.group(1))
        mult = int(m.group(2)) if m.group(2) else 1
        if mult < 1:
            raise ParseError(f"multiplicity must be positive in {piece!r}")
        values.extend([value] * mult)
    if not values:
        raise ParseError(f"empty sequence {text!r}")
    return values


def format_caret_list(values):
    """Inverse of the caret-list parser; groups repeats as v^n."""
    return ",".join(
        f"{v}^{n}" if n > 1 else str(v)
        for v, n in ((v, len(list(g))) for v, g in itertools.groupby(values))
    )


def diagonal_lengths(P):
    """Lengths t_i of the degree-i diagonals of the Ferrers diagram of P.

    t_i counts rows r (1-based) whose column index i-(r-1) lies in
    [0, p_r - 1].  For the Jordan type of a linear form on an Artinian
    algebra this sequence is the algebra's Hilbert function.
    """
    P = Partition(P)
    top = max(r + p - 1 for r, p in enumerate(P.parts))
    t = [0] * (top + 1)
    for r, m in P.cells():
        t[r + m] += 1
    return tuple(t)


def column_lengths(P):
    """Column lengths of the Ferrers diagram of the Partition P, indexed by
    x-exponent: entry m counts the parts larger than m."""
    cols = [0] * P.parts[0]
    for p in P.parts:
        for m in range(p):
            cols[m] += 1
    return cols


def conjugate(P):
    """Transpose of the Ferrers diagram (switch rows and columns)."""
    return Partition(column_lengths(Partition(P)))


def validate_ci_hilbert(T):
    """Check T = (1,2,...,d-1,d^k,d-1,...,2,1) and return (d, k, j).

    Raises NotCIShape for any other sequence.
    """
    T = tuple(int(v) for v in T)
    if not T or T[0] != 1:
        raise NotCIShape(f"{T} does not start at 1")
    d = max(T)
    k = sum(1 for v in T if v == d)
    j = 2 * d + k - 3
    expected = tuple(range(1, d)) + (d,) * k + tuple(range(d - 1, 0, -1))
    if T != expected:
        raise NotCIShape(f"{T} is not of the form (1,...,d-1,d^k,d-1,...,1)")
    assert len(T) == j + 1 and sum(T) == d * (j + 2 - d)
    return d, k, j


@dataclass(frozen=True)
class HilbertFunction:
    """A complete intersection Hilbert function (1,2,...,d^k,...,2,1).

    d is the Sperner number (height), k the multiplicity of d, and
    j = 2d + k - 3 the socle degree.
    """

    values: tuple
    d: int
    k: int
    j: int

    def __init__(self, values):
        if isinstance(values, str):
            values = _parse_caret_list(values)
        elif isinstance(values, HilbertFunction):
            values = values.values
        values = tuple(int(v) for v in values)
        d, k, j = validate_ci_hilbert(values)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "j", j)

    @classmethod
    def from_dk(cls, d, k):
        return cls(tuple(range(1, d)) + (d,) * k + tuple(range(d - 1, 0, -1)))

    @property
    def size(self):
        return sum(self.values)

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


@dataclass(frozen=True)
class JordanDegreeType:
    """Multiset of strings (start degree i, length s) with multiplicities.

    A string of length s starting in degree i covers degrees i..i+s-1; the
    per-degree coverage of all strings of an Artinian algebra equals its
    Hilbert function.
    """

    strings: tuple  # sorted tuple of ((i, s), multiplicity)

    def __init__(self, strings):
        if isinstance(strings, dict):
            items = strings.items()
        else:
            items = strings
        normal = tuple(sorted(((int(i), int(s)), int(m)) for (i, s), m in items if m))
        object.__setattr__(self, "strings", normal)

    def multiplicity(self, i, s):
        return dict(self.strings).get((i, s), 0)

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


def symmetric_string_placement(P, T):
    """Search for a symmetric assignment of start degrees to the parts of P.

    Each part of length s becomes a string covering s consecutive degrees;
    the per-degree coverage must equal T, and the multiset of (start, length)
    pairs must be invariant under (i, s) -> (j+1-s-i, s).  Plain backtracking
    over start degrees, parts processed largest first, pruned by remaining
    per-degree capacity.  Returns a witness JordanDegreeType or None.
    """
    P = Partition(P)
    T = HilbertFunction(T)
    if diagonal_lengths(P) != T.values:
        raise DiagonalMismatch(f"diagonal lengths of {P} are not {T}")
    j = T.j
    cap = list(T.values)
    # remaining[s] = number of still unplaced parts of length s
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
        # Parts of equal length are placed consecutively, so starts within a
        # run may be forced non-decreasing; each unordered mirror pair is
        # enumerated once via its lower start.
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
        witness = JordanDegreeType(placed)
        assert witness.coverage() == T.values and witness.is_symmetric(j)
        return witness
    return None


def is_symmetric_jdt(P, T):
    """True iff the parts of P admit a symmetric string placement for T."""
    return symmetric_string_placement(P, T) is not None
