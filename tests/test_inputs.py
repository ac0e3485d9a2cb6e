"""Hostile values against every public entry point that takes a number, a
point, a sequence of numbers or a table keyed by pairs.

jtlab reads a number from outside by one of three rules (errors._integer,
errors._integers, errors._rationals): a bool is a flag, not a number; an
integer is an int or any other non-bool with __index__; a rational is an
int or anything Fraction reads exactly.  A table keyed by pairs
(errors._pairs) is a mapping or a sequence of items ((p, q), v).  Each
entry point must answer for a value as it answers for that value's
reading, or raise ParseError when the value has none; no other exception
may escape.
"""

import math
from fractions import Fraction

import pytest

from jtlab.algebra import annihilator, quotient, rank_mult_power
from jtlab.codes import (
    E,
    BranchLabel,
    branch_label_to_partition,
    cijt_from_composition,
    compositions,
)
from jtlab.constructor import construct_ci
from jtlab.errors import JtlabError, ParseError
from jtlab.hessians import (
    cijt_from_hessian_subset,
    generic_jordan_type,
    hessian_matrix,
    hessian_rank_at,
)
from jtlab.partitions import (
    HilbertFunction,
    JordanDegreeType,
    Partition,
    validate_ci_hilbert,
)
from jtlab.polynomials import BivariatePoly, d_sequence, parse_poly

HOSTILE = [
    "1",
    "12",
    True,
    False,
    1.0,
    2.5,
    math.nan,
    math.inf,
    -math.inf,
    None,
    Fraction(3, 2),
    Fraction(2),
    1j,
    [1],
    [(1, 2, 3)],
    (),
]

F = parse_poly("X^5 + 3*X^2*Y^3 - Y^5")
A = quotient(annihilator(F))
X = BivariatePoly.linear(1, 0)
T = HilbertFunction("1,2,3,3,2,1")
P = Partition("6,2^3")  # a_1 = 1, so Lambda_2 has one entry

# (entry point, the kind of the slot the value goes in, the call).  Kinds:
# "integer", an integer; "integer text", an integer or its text;
# "rational", a rational; "integers", a sequence of integers; "caret", a
# sequence of integers or its caret text; "rationals", a sequence of
# rationals; "lambda2", a sequence of rationals or None, the default zero;
# "pairs", a table keyed by pairs; "terms", a table keyed by pairs or None,
# the zero polynomial; "text", text only.
ENTRY_POINTS = [
    ("Partition", "caret", Partition),
    ("Partition part", "integer", lambda v: Partition([v])),
    ("HilbertFunction", "caret", HilbertFunction),
    ("HilbertFunction entry", "integer", lambda v: HilbertFunction([1, v, 1])),
    ("validate_ci_hilbert", "integers", validate_ci_hilbert),
    ("HilbertFunction.from_dk d", "integer", lambda v: HilbertFunction.from_dk(v, 2)),
    ("HilbertFunction.from_dk k", "integer", lambda v: HilbertFunction.from_dk(2, v)),
    ("BranchLabel entry", "integer text", lambda v: BranchLabel([v, E])),
    ("branch_label_to_partition entry", "integer text", lambda v: branch_label_to_partition([v, E], "1,1")),
    ("hessian_rank_at order", "integer", lambda v: hessian_rank_at(F, v, (1, 1))),
    ("hessian_rank_at order, algebra", "integer", lambda v: hessian_rank_at(F, v, (1, 1), algebra=A)),
    ("hessian_matrix order", "integer", lambda v: hessian_matrix(F, v)),
    ("hessian_rank_at point", "rationals", lambda v: hessian_rank_at(F, 1, v)),
    ("hessian_rank_at a", "rational", lambda v: hessian_rank_at(F, 1, (v, 1))),
    ("hessian_rank_at b", "rational", lambda v: hessian_rank_at(F, 1, (1, v))),
    ("d_sequence a", "rational", lambda v: d_sequence(F, v, 1)),
    ("d_sequence b", "rational", lambda v: d_sequence(F, 1, v)),
    ("generic_jordan_type", "integer", lambda v: generic_jordan_type(T, v)),
    ("construct_ci lambda2", "lambda2", lambda v: construct_ci(P, lambda2=v)),
    ("construct_ci lambda2 entry", "rational", lambda v: construct_ci(P, lambda2=(v,))),
    ("rank_mult_power u", "integer", lambda v: rank_mult_power(A, X, v, 3)),
    ("rank_mult_power s", "integer", lambda v: rank_mult_power(A, X, 1, v)),
    ("ArtinAlgebra.dim", "integer", lambda v: A.dim(v)),
    ("ArtinAlgebra.basis", "integer", lambda v: A.basis(v)),
    ("compositions", "integer", lambda v: list(compositions(v))),
    ("cijt_from_composition", "integers", lambda v: cijt_from_composition(T, v)),
    ("cijt_from_composition entry", "integer", lambda v: cijt_from_composition(T, (v,))),
    ("cijt_from_hessian_subset", "integers", lambda v: cijt_from_hessian_subset(T, v)),
    ("cijt_from_hessian_subset order", "integer", lambda v: cijt_from_hessian_subset(T, [v])),
    ("BivariatePoly.monomial x exponent", "integer", lambda v: BivariatePoly.monomial(v, 1)),
    ("BivariatePoly.monomial y exponent", "integer", lambda v: BivariatePoly.monomial(1, v)),
    ("BivariatePoly.monomial coefficient", "rational", lambda v: BivariatePoly.monomial(1, 1, v)),
    ("BivariatePoly coefficient", "rational", lambda v: BivariatePoly({(1, 0): v})),
    ("BivariatePoly.linear a", "rational", lambda v: BivariatePoly.linear(v, 1)),
    ("BivariatePoly.linear b", "rational", lambda v: BivariatePoly.linear(1, v)),
    ("JordanDegreeType start", "integer", lambda v: JordanDegreeType([((v, 2), 1)])),
    ("JordanDegreeType length", "integer", lambda v: JordanDegreeType([((0, v), 1)])),
    ("JordanDegreeType multiplicity", "integer", lambda v: JordanDegreeType([((0, 2), v)])),
    ("JordanDegreeType strings", "pairs", JordanDegreeType),
    ("BivariatePoly terms", "terms", BivariatePoly),
    ("BivariatePoly * scalar", "rational", lambda v: X * v),
    ("scalar * BivariatePoly", "rational", lambda v: v * X),
    ("BivariatePoly ** exponent", "integer", lambda v: X**v),
    ("parse_poly", "text", parse_poly),
]

NO_READING = object()


def reading(kind, value):
    """The value that the rule of the slot reads value as, or NO_READING;
    written out here from the rules, not taken from the package."""
    if kind == "lambda2" and value is None:
        return (0,) * P.power_form[0][1]  # a_1 zeros
    if kind == "text":
        return value if isinstance(value, str) else NO_READING
    if kind == "terms" and value is None:
        return {}
    if kind in ("pairs", "terms"):
        # a sequence of items ((p, q), v); a mapping is no hostile value
        table = isinstance(value, (list, tuple)) and all(
            isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], tuple) and len(item[0]) == 2
            for item in value
        )
        return tuple(value) if table else NO_READING
    if kind in ("integer text", "caret") and isinstance(value, str):
        return int(value) if kind == "integer text" else (int(value),)  # "1" and "12"
    if kind in ("integer", "integer text"):
        return value if type(value) is int else NO_READING
    if kind == "rational":
        if isinstance(value, bool):
            return NO_READING
        try:
            return Fraction(value)
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            return NO_READING
    # a sequence slot: of the hostile values only [1], [(1, 2, 3)] and ()
    # are sequences
    return tuple(value) if isinstance(value, (list, tuple)) else NO_READING


def outcome(call, value):
    """("value", what call returned) or ("error", the JtlabError class it
    raised); any other exception propagates and fails the test."""
    try:
        return "value", call(value)
    except JtlabError as exc:
        return "error", type(exc)


@pytest.mark.parametrize("name, kind, call", ENTRY_POINTS, ids=[e[0] for e in ENTRY_POINTS])
def test_a_hostile_value_is_read_by_its_rule_or_refused(name, kind, call):
    for value in HOSTILE:
        want = reading(kind, value)
        got = outcome(call, value)
        if want is NO_READING:
            assert got == ("error", ParseError), (name, value, got)
        else:
            assert got == outcome(call, want), (name, value, got)


def test_the_table_reaches_every_kind_of_answer():
    # the table is no vacuous pass: every kind of slot but "integer" reads
    # some hostile value, which must then give the reading's answer; no
    # hostile value is an int, and test_an_index_integer_is_read_through_index
    # feeds the integer slots a value that they read
    kinds = {kind for _, kind, _ in ENTRY_POINTS}
    read = {kind for kind in kinds for value in HOSTILE if reading(kind, value) is not NO_READING}
    assert read == kinds - {"integer"}


@pytest.mark.parametrize(
    "call",
    [
        lambda: rank_mult_power(A, X, 2.5, 3),  # answered 3
        lambda: A.dim(math.nan),  # answered 0
        lambda: cijt_from_hessian_subset(T, {True}),  # read as {1}
        lambda: BivariatePoly({(2.5, 0): 1}),  # was x^2
        lambda: BivariatePoly.monomial(2.5, 1),  # was x^2*y
        lambda: JordanDegreeType({(2.5, 2): 1}),  # started at 2
        lambda: JordanDegreeType({("12", 2): 1}),  # started at 12
        lambda: hessian_rank_at(F, 1, "12"),  # answered for the point (1, 2)
        lambda: hessian_rank_at(F, True, (1, 1)),  # answered for order 1
        lambda: HilbertFunction.from_dk(True, 2),  # was T(1, 2)
        lambda: Partition([True]),  # was the partition 1
        lambda: d_sequence(F, True, 0),  # was the direction (1, 0)
        lambda: construct_ci(P, lambda2=(True,)),  # was Lambda_2 = (1,)
        lambda: BivariatePoly(5),  # raised TypeError
        lambda: BivariatePoly("12"),  # raised ValueError
        lambda: BivariatePoly([(1, 2, 3)]),  # raised ValueError
        lambda: BivariatePoly(False),  # was the zero polynomial
        lambda: BivariatePoly({5: 1}),  # raised TypeError
        lambda: JordanDegreeType([5]),  # raised TypeError
        lambda: JordanDegreeType(None),  # raised TypeError
        lambda: X**True,  # was x
        lambda: X * True,  # was x
        lambda: X**2.5,  # raised TypeError
        lambda: X ** "2",  # raised TypeError
        lambda: X * None,  # raised TypeError
        lambda: X * "abc",  # raised ValueError
        lambda: X * math.nan,  # raised ValueError
        lambda: X**-1,  # raised ValueError
    ],
    ids=[
        "rank_mult_power 2.5",
        "dim nan",
        "subset {True}",
        "exponent 2.5",
        "monomial 2.5",
        "JDT start 2.5",
        "JDT start '12'",
        "point '12'",
        "order True",
        "from_dk True",
        "Partition [True]",
        "d_sequence True",
        "lambda2 (True,)",
        "terms 5",
        "terms '12'",
        "terms [(1, 2, 3)]",
        "terms False",
        "terms {5: 1}",
        "JDT [5]",
        "JDT None",
        "x ** True",
        "x * True",
        "x ** 2.5",
        "x ** '2'",
        "x * None",
        "x * 'abc'",
        "x * nan",
        "x ** -1",
    ],
)
def test_a_value_once_misread_is_refused(call):
    with pytest.raises(ParseError):
        call()


def test_an_index_integer_is_read_through_index():
    # any non-bool with __index__ is an integer, as operator.index reads it
    class Index:
        def __init__(self, n):
            self.n = n

        def __index__(self):
            return self.n

    assert Partition([Index(2), Index(1)]) == Partition("2,1")
    assert hessian_rank_at(F, Index(1), (1, 1)) == hessian_rank_at(F, 1, (1, 1))
    assert rank_mult_power(A, X, Index(1), Index(3)) == rank_mult_power(A, X, 1, 3)
    assert BivariatePoly.monomial(Index(2), Index(1)) == parse_poly("x^2*y")
    assert X ** Index(2) == parse_poly("x^2") and X ** Index(0) == parse_poly("1")


def test_a_negative_n_has_no_compositions():
    # 2^(n - 1) compositions for n >= 1, the empty one for n = 0, and none
    # for n < 0, whose shift 1 << (n - 1) once raised a bare ValueError
    for n in range(-5, 6):
        got = outcome(lambda v: list(compositions(v)), n)
        want = 2 ** (n - 1) if n > 0 else int(n == 0)
        assert got[0] == "value" and len(set(got[1])) == len(got[1]) == want, n


def test_a_later_item_with_the_same_key_wins():
    # items are read as dict() reads them, a zero coefficient included
    assert BivariatePoly([((1, 0), 2), ((1, 0), 0)]) == BivariatePoly()
    assert BivariatePoly([((1, 0), 0), ((1, 0), 3)]) == BivariatePoly({(1, 0): 3})
