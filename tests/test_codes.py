import itertools
import pickle
from collections import Counter
from fractions import Fraction

import pytest

from jtlab import codes
from jtlab.algebra import (
    GradedIdeal,
    MonomialCell,
    annihilator,
    initial_ideal,
    jordan_degree_type,
    quotient,
)
from jtlab.codes import (
    E,
    BranchLabel,
    branch_label_to_partition,
    cell_dimension,
    cijt_from_composition,
    compositions,
    enumerate_branch_labels,
    enumerate_cijt,
    enumerate_diagonal_partitions,
    hook_code_direct,
    hook_code_from_label,
    hook_counts_by_degree,
    is_cijt,
    iota,
    partition_to_branch_label,
)
from jtlab.constructor import Check, Realization, RealizationReport, construct_ci
from jtlab.errors import (
    DiagonalMismatch,
    InternalInconsistency,
    InvalidLabel,
    NotCIJT,
    NotCIJTWithDParts,
    ParseError,
    _Value,
)
from jtlab.partitions import (
    HilbertFunction,
    JordanDegreeType,
    Partition,
    conjugate,
    diagonal_lengths,
    hilbert_function,
    sl_partition,
    symmetric_string_placement,
)
from jtlab.hessians import predicted_nonvanishing_set
from jtlab.polynomials import BivariatePoly, dual_data, parse_poly
from tests_support import copies, parse_subscripted_hook_code, parse_traditional_hook_code

T1221 = HilbertFunction("1,2,2,1")
T12321 = HilbertFunction("1,2,3,2,1")
T33 = HilbertFunction("1,2,3,3,2,1")


def all_dk(dmax, kmax, dmin=2):
    return itertools.product(range(dmin, dmax + 1), range(1, kmax + 1))


# -- branch labels ------------------------------------------------------------


def test_label_serialization_round_trip():
    b = BranchLabel("3,E,1,E,2")
    assert str(b) == "3,E,1,E,2"
    assert b.entries == (3, E, 1, E, 2)
    assert BranchLabel(str(b)) == b


def test_a_non_integer_label_entry_is_refused():
    # an entry that is not text is read by errors._integer, as a part of a
    # Partition is, so a float is refused, not truncated, and a bool is a
    # flag, not the entry 1; text, E, "E" and 0 read as before
    for entries in ([2.7, E, 1], [1.5, "E"], [2.0, E], [Fraction(1), E], [None, E]):
        with pytest.raises(ParseError, match="bad branch label entry"):
            BranchLabel(entries)
    with pytest.raises(ParseError):
        branch_label_to_partition([1.5, "E"], "1,1")
    with pytest.raises(ParseError):
        hook_code_from_label([1.5, "E"], "1,1")
    assert BranchLabel(["1", "E"]) == BranchLabel("1,E")
    with pytest.raises(ParseError, match="bad branch label entry"):
        BranchLabel([True, E])
    assert BranchLabel([" 2", 0, 1]).entries == (2, E, 1)
    assert branch_label_to_partition(["1", "E"], "1,1") == Partition("1^2")
    with pytest.raises(ParseError, match="bad branch label entry"):
        hook_code_from_label([True, E], "1,1")


def test_an_empty_label_is_refused():
    with pytest.raises(ParseError, match="empty branch label"):
        BranchLabel([])


@pytest.mark.parametrize(
    "parts, hilbert, label",
    [
        ("6,3,3,1,1,1,1", "1,2,3,4,3,2,1", "3,E,1,E,2"),
        ("7,7,2,2,2", "1,2,3,4^2,3,2,1", "1,2,E,3,4"),
        ("9,9,2,2,2,2,2", "1,2,3,4^4,3,2,1", "1,2,E,3,4"),
        ("6,4,2", "1,2,3,3,2,1", "E,3,2,1"),
        ("5,2,2,1,1,1", "1,2,3,3,2,1", "3,1,E,2"),
    ],
)
def test_partition_to_branch_label(parts, hilbert, label):
    P = Partition(parts)
    assert str(partition_to_branch_label(P)) == label
    assert branch_label_to_partition(BranchLabel(label), HilbertFunction(hilbert)) == P


def test_label_to_partition_examples():
    T = HilbertFunction("1,2,3,4^7,3,2,1")
    assert branch_label_to_partition(BranchLabel("2,E,3,4,1"), T) == Partition("12^2,8,1^8")
    assert branch_label_to_partition(BranchLabel("E,3,2,1"), T33) == Partition("6,4,2")


def test_invalid_labels():
    with pytest.raises(InvalidLabel):
        branch_label_to_partition(BranchLabel("E,1,3,2"), T33)  # step 1 -> 3
    with pytest.raises(InvalidLabel):
        branch_label_to_partition(BranchLabel("E,2,1"), T33)  # wrong multiset
    with pytest.raises(InvalidLabel):
        # k = 1: the segment between the E's must be 1, 2, ...
        branch_label_to_partition(BranchLabel("E,2,E,1"), HilbertFunction("1,2,3,4,3,2,1"))
    with pytest.raises(InvalidLabel):
        branch_label_to_partition(BranchLabel("1,2,3,E"), T12321)  # one E for k=1
    with pytest.raises(InvalidLabel):
        branch_label_to_partition(BranchLabel("E,3,1,2"), T12321)  # one E for k=1
    with pytest.raises(InvalidLabel):
        branch_label_to_partition(BranchLabel("E,1,E,2"), T33)  # two E's for k>=2


def test_gluing_checks_reject_every_label_the_interval_test_rejects(monkeypatch):
    # With the interval conditions switched off (shape check only), every
    # arrangement they reject must still fail when glued: at a row that is
    # not left justified or at rows that rise, never at the diagonal-lengths
    # check, which raises InternalInconsistency.
    validate = codes._validate_label
    reached = Counter()
    for d, k in all_dk(6, 3, dmin=1):
        T = HilbertFunction.from_dk(d, k)
        entries = [E, *range(1, d + 1)] if k >= 2 else [E, E, *range(1, d)]
        for arrangement in set(itertools.permutations(entries)):
            b = BranchLabel(arrangement)
            try:
                validate(b, T)
                continue
            except InvalidLabel:
                pass
            with monkeypatch.context() as m:
                m.setattr(codes, "_validate_label", codes._segments)
                with pytest.raises(InvalidLabel) as info:
                    branch_label_to_partition(b, T)
            reached[str(info.value).rsplit(": ", 1)[1]] += 1
    assert reached == {
        "glued diagram is not left justified": 8197,
        "glued rows are not weakly decreasing": 4763,
    }


def test_every_enumerated_label_passes_the_interval_test():
    # enumerate_diagonal_partitions glues these labels without validating
    # them again, on the strength of this
    for d, k in all_dk(8, 4, dmin=1):
        T = HilbertFunction.from_dk(d, k)
        for b in enumerate_branch_labels(T):
            codes._validate_label(b, T)


def test_every_enumerated_label_is_the_parsed_label():
    # the enumeration builds its labels unparsed; each must be the value
    # the parser builds from its text: the same entries tuple, equality,
    # hash and pickle
    for d, k in all_dk(8, 4, dmin=1):
        T = HilbertFunction.from_dk(d, k)
        for b in enumerate_branch_labels(T):
            parsed = BranchLabel(str(b))
            assert type(b.entries) is tuple and b.entries == parsed.entries
            assert all(e is E or type(e) is int for e in b.entries), b
            assert b == parsed and hash(b) == hash(parsed)
            assert pickle.dumps(b) == pickle.dumps(parsed), b


@pytest.mark.parametrize("d, k", [(4, 1), (4, 2), (4, 3), (5, 2)])
def test_enumeration_refuses_a_label_that_fails_the_interval_test(monkeypatch, d, k):
    # a label slipped in among the enumerated ones, each label of T that
    # passes the shape check but not the interval conditions in turn, is
    # refused by the gluing's own checks
    T = HilbertFunction.from_dk(d, k)
    labels = codes.enumerate_branch_labels(T)
    entries = [E, *range(1, d + 1)] if k >= 2 else [E, E, *range(1, d)]
    slipped = 0
    for arrangement in sorted(set(itertools.permutations(entries)), key=str):
        b = BranchLabel(arrangement)
        try:
            codes._validate_label(b, T)
            continue
        except InvalidLabel:
            pass
        with monkeypatch.context() as m:
            m.setattr(codes, "enumerate_branch_labels", lambda T: [*labels[:5], b, *labels[5:]])
            with pytest.raises(InvalidLabel):
                enumerate_diagonal_partitions(T)
        slipped += 1
    assert slipped == len(set(itertools.permutations(entries))) - len(labels)


def test_gluing_refuses_wrong_diagonal_lengths(monkeypatch):
    # the check cannot fire on a label that passes the shape check (see
    # codes._glue); a tampered diagonal_lengths reaches it on both paths
    T = HilbertFunction.from_dk(4, 2)
    monkeypatch.setattr(codes, "diagonal_lengths", lambda P: T.values[1:])
    with pytest.raises(InternalInconsistency, match="wrong diagonal lengths"):
        branch_label_to_partition(enumerate_branch_labels(T)[0], T)
    with pytest.raises(InternalInconsistency, match="wrong diagonal lengths"):
        enumerate_diagonal_partitions(T)


def test_round_trip_all_labels():
    for d, k in all_dk(6, 4, dmin=1):
        T = HilbertFunction.from_dk(d, k)
        for b in enumerate_branch_labels(T):
            P = branch_label_to_partition(b, T)
            # a copy holds no label, so this reads the label off the diagram
            assert partition_to_branch_label(Partition(P.parts)) == b
    # d = 1: no labelled branch for T = (1), one for T = (1^k)
    assert enumerate_branch_labels(HilbertFunction("1")) == [BranchLabel("E,E")]
    for k in range(2, 5):
        labels = enumerate_branch_labels(HilbertFunction.from_dk(1, k))
        assert set(labels) == {BranchLabel("E,1"), BranchLabel("1,E")}


def test_value_objects_copy_and_pickle():
    T = HilbertFunction.from_dk(4, 2)
    P = enumerate_diagonal_partitions(T)[5]  # carries the enumeration's T
    witness = symmetric_string_placement(sl_partition(T), T)
    values = [
        P,
        Partition("6,2^2,1^2"),
        partition_to_branch_label(P),
        BranchLabel("E,1,E"),
        hook_code_direct(P),
        hook_code_direct(Partition("3,1")),
        T,
        witness,
        JordanDegreeType({(0, 3): 2, (1, 1): 1}),
    ]
    for value in values:
        for twin in copies(value):
            assert type(twin) is type(value) and twin == value, value
    for twin in copies(P):
        assert diagonal_lengths(twin) == diagonal_lengths(P) == T.values
        assert hilbert_function(twin) == T
    for twin in copies(BranchLabel("E,1,E")):
        assert twin.gaps == (0, 2)  # gaps are found by identity with E
    for twin in copies(hook_code_direct(Partition("3,1"))):
        assert twin.label.gaps == (0, 1) and twin.subscripted_str() == "E,E,1_2"
    assert all(twin is E for twin in copies(E))


def _value_cases():
    """(built, keyword twin, field names, repr) for one instance of each
    immutable value class, with the class name as its id: built by the
    package where it has a builder, the twin built apart by keyword, and
    the repr as the frozen dataclasses these classes once were printed it."""
    P = Partition("3,1")
    r = construct_ci(P)
    x, y = parse_poly("x"), parse_poly("y")
    check = Check(name="jordan_type", passed=True, expected="3,1", observed="3,1")
    cases = [
        (
            initial_ideal(quotient(GradedIdeal([x**2, y**2])), x),
            MonomialCell(
                partition=Partition("2^2"),
                fill=(((0, 0),), ((0, 1), (1, 0)), ((1, 1),)),
                generators=((2, 0), (0, 2)),
            ),
            ("partition", "fill", "generators"),
            "MonomialCell(partition=Partition('2^2'), fill=(((0, 0),), ((0, 1), (1, 0)), "
            "((1, 1),)), generators=((2, 0), (0, 2)))",
        ),
        (
            hook_code_direct(P),
            codes.HookCode(
                traditional=((2, 2),),
                label=BranchLabel("E,E,1"),
                subscripts=(None, None, 2),
                d=2,
                k=1,
            ),
            ("traditional", "label", "subscripts", "d", "k"),
            "HookCode(traditional=((2, 2),), label=BranchLabel('E,E,1'), "
            "subscripts=(None, None, 2), d=2, k=1)",
        ),
        (
            r,
            Realization(
                partition=P,
                hilbert=HilbertFunction("1,2,1"),
                ideal=GradedIdeal([x * y, x**2 + y**2]),
                chain=(x**3, x * y, x**2 + y**2),
                lambdas=(Fraction(0),),
            ),
            ("partition", "hilbert", "ideal", "chain", "lambdas"),
            "Realization(partition=Partition('3,1'), hilbert=HilbertFunction('1,2,1'), "
            "ideal=GradedIdeal([parse_poly('x*y'), parse_poly('y^2 + x^2')]), chain=(parse_poly('x^3'), "
            "parse_poly('x*y'), parse_poly('y^2 + x^2')), lambdas=(Fraction(0, 1),))",
        ),
        (
            Check("jordan_type", True, "3,1", "3,1"),
            check,
            ("name", "passed", "expected", "observed"),
            "Check(name='jordan_type', passed=True, expected='3,1', observed='3,1')",
        ),
        (
            RealizationReport((check,)),
            RealizationReport(checks=(check,)),
            ("checks",),
            "RealizationReport(checks=(Check(name='jordan_type', passed=True, "
            "expected='3,1', observed='3,1'),))",
        ),
        (
            HilbertFunction.from_dk(2, 1),
            HilbertFunction(values=(1, 2, 1)),
            ("values", "d", "k", "j"),
            "HilbertFunction('1,2,1')",
        ),
        (
            jordan_degree_type(quotient(r.ideal), x),
            JordanDegreeType(strings={(1, 1): 1, (0, 3): 1}),
            ("strings",),
            "JordanDegreeType(strings=(((0, 3), 1), ((1, 1), 1)))",
        ),
    ]
    return [pytest.param(*case, id=type(case[0]).__name__) for case in cases]


@pytest.mark.parametrize("built, twin, names, text", _value_cases())
def test_value_classes_keep_their_semantics(built, twin, names, text):
    # the seven classes were frozen dataclasses: the same repr, == only
    # within the class, the hash of the field tuple, no assignment or
    # deletion, and copies and pickles equal to the original
    fields = tuple(getattr(built, name) for name in names)
    assert repr(built) == repr(twin) == text
    assert built == twin and not built != twin and hash(built) == hash(twin) == hash(fields)
    assert built != fields and built != object() and not built == fields
    for name in names:
        with pytest.raises(AttributeError):
            setattr(built, name, None)
        with pytest.raises(AttributeError):
            delattr(built, name)
    assert tuple(getattr(built, name) for name in names) == fields
    for copy in copies(built):
        assert type(copy) is type(built) and copy == built and hash(copy) == hash(built)
        assert repr(copy) == text


@pytest.mark.parametrize(
    "build, names",
    [
        (lambda: Partition("3,1"), ("parts", "_hilbert", "_label")),
        (lambda: BranchLabel("3,E,1,E,2"), ("entries",)),
        (lambda: GradedIdeal([parse_poly("x^2"), parse_poly("y^2")]), ("generators", "_rows")),
        (lambda: parse_poly("x^2*y + 7/2*x^3"), ("terms",)),
    ],
    ids=["Partition", "BranchLabel", "GradedIdeal", "BivariatePoly"],
)
def test_deleting_a_field_raises(build, names):
    # the classes that refuse assignment refuse deletion too, so a value
    # never loses a field that its str, == or hash reads
    value = build()
    text, twin = str(value), build()
    for name in names:
        with pytest.raises(AttributeError, match="immutable"):
            delattr(value, name)
    assert str(value) == text and value == twin and hash(value) == hash(twin)


def _memo_cases():
    """(value, its public field names) for a Partition, BranchLabel,
    GradedIdeal and BivariatePoly with every memo of its class set: a glued
    partition (its T and its label), its label (no memo), an ideal from
    annihilator (its rows) and a dual generator after dual_data and hash."""
    P = enumerate_diagonal_partitions(HilbertFunction.from_dk(4, 2))[5]
    F = parse_poly("x^5 + 3/2*x^2*y^3 - y^5")
    dual_data(F)
    hash(F)
    cases = [
        (P, ("parts",)),
        (partition_to_branch_label(P), ("entries",)),
        (annihilator(F), ("generators",)),
        (F, ("terms",)),
    ]
    return [pytest.param(*case, id=type(case[0]).__name__) for case in cases]


@pytest.mark.parametrize("value, names", _memo_cases())
def test_memos_are_not_part_of_the_value(value, names):
    # a slot named with a leading underscore is a memo: the value is its
    # public fields alone, so it equals, hashes, prints and pickles like a
    # twin built from them, and every copy starts with the twin's memos
    cls = type(value)
    fields = tuple(getattr(value, name) for name in names)
    assert cls._names == names and cls._fields(value) == fields
    fresh = cls(*fields)
    assert fresh is not value and value == fresh and hash(value) == hash(fresh)
    assert repr(value) == repr(fresh) and str(value) == str(fresh)
    assert pickle.dumps(value) == pickle.dumps(fresh)
    if cls is BivariatePoly:
        assert hash(value) == hash(frozenset(value.terms.items()))
    else:
        assert hash(value) == hash(fields)
    memos = [name for name in cls.__slots__ if name.startswith("_")]
    for twin in copies(value):
        assert type(twin) is cls and twin == value and hash(twin) == hash(value)
        for name in memos:
            assert getattr(twin, name, "unset") == getattr(fresh, name, "unset"), name
    if cls is Partition:
        assert value._label is not None and value._hilbert is not None
        assert all(twin._label is None for twin in copies(value))
    if cls is BivariatePoly:
        assert value._dual is not None
        assert not any(hasattr(twin, "_dual") for twin in copies(value))


def test_the_value_base_leaves_memos_out():
    class Point(_Value):
        __slots__ = ("x", "_norm", "y")

        def __init__(self, x, y):
            object.__setattr__(self, "x", x)
            object.__setattr__(self, "y", y)
            object.__setattr__(self, "_norm", abs(x) + abs(y))

    p = Point(1, -2)
    assert Point._names == ("x", "y") and Point._fields(p) == (1, -2)
    assert repr(p) == "test_the_value_base_leaves_memos_out.<locals>.Point(x=1, y=-2)"
    assert p == Point(1, -2) and hash(p) == hash((1, -2)) and p != Point(1, 2)
    assert p.__reduce__() == (Point, (1, -2))
    with pytest.raises(AttributeError, match="immutable"):
        p._norm = 0


def test_realization_fields_default_to_empty():
    r = construct_ci(Partition("3,1"))
    bare = Realization(r.partition, r.hilbert, r.ideal)
    assert (bare.chain, bare.lambdas) == ((), ())
    assert bare != r and bare == Realization(r.partition, r.hilbert, r.ideal, (), ())


def test_enumerated_partitions_share_their_T():
    T = HilbertFunction.from_dk(5, 2)
    for P in enumerate_diagonal_partitions(T) + enumerate_cijt(T):
        assert hilbert_function(P) is T
        fresh = Partition(P.parts)
        assert fresh is not P and hilbert_function(fresh) == T
        assert hilbert_function(fresh) is hilbert_function(fresh)


def test_glued_partitions_carry_the_label_read_off_their_diagram():
    # every partition of T(d, k) for d <= 7, k <= 4: the label the gluing
    # kept is the one the diagram of a label-free copy gives
    for d, k in all_dk(7, 4):
        T = HilbertFunction.from_dk(d, k)
        for P in enumerate_diagonal_partitions(T):
            carried = partition_to_branch_label(P)
            assert carried is P._label is not None
            fresh = Partition(P.parts)
            assert fresh._label is None
            assert partition_to_branch_label(fresh) == carried, P
            assert hook_code_direct(fresh) == hook_code_direct(P), P


def test_copies_of_a_glued_partition_carry_no_label():
    T = HilbertFunction.from_dk(5, 2)
    b = enumerate_branch_labels(T)[7]
    P = branch_label_to_partition(b, T)
    assert P._label is b
    for twin in copies(P):
        assert twin == P and twin._label is None
        assert partition_to_branch_label(twin) == b
    # parsed or built from parts: no label either
    assert Partition(str(P))._label is None
    assert Partition(list(P.parts))._label is None
    assert Partition(P) is P  # the same value, label and all


def test_enumerated_partition_with_another_T_is_refused():
    T, other = HilbertFunction.from_dk(4, 2), HilbertFunction.from_dk(4, 3)
    for P in enumerate_diagonal_partitions(T):
        with pytest.raises(DiagonalMismatch):
            symmetric_string_placement(P, other)
        with pytest.raises(DiagonalMismatch):
            symmetric_string_placement(P, HilbertFunction.from_dk(3, 3))


# -- enumeration --------------------------------------------------------------


def test_enumerate_diagonal_partitions_examples():
    assert set(enumerate_diagonal_partitions(T1221)) == {
        Partition(p) for p in ["4,2", "4,1,1", "3,3", "2,2,2", "3,1,1,1", "2,2,1,1"]
    }
    assert len(enumerate_diagonal_partitions(T33)) == 18
    assert len(enumerate_diagonal_partitions(T12321)) == 9


def test_enumeration_counts():
    for d, k in all_dk(6, 4):
        T = HilbertFunction.from_dk(d, k)
        parts = enumerate_diagonal_partitions(T)
        expected = 2 * 3 ** (d - 1) if k >= 2 else 3 ** (d - 1)
        assert len(parts) == len(set(parts)) == expected
        # descending lexicographic order
        assert all(parts[i].parts > parts[i + 1].parts for i in range(len(parts) - 1))


def test_compositions_order():
    assert list(compositions(0)) == [()]
    assert list(compositions(3)) == [(3,), (1, 2), (2, 1), (1, 1, 1)]


def test_is_cijt_examples():
    assert is_cijt(Partition([4, 2]))
    assert not is_cijt(Partition([2, 2, 1, 1]))
    assert not is_cijt(Partition("3^2,2^2,1^2"))
    assert is_cijt(Partition([1]))


def test_enumerate_cijt_examples():
    fig9_yes = ["6,4,2", "5^2,2", "6,3^2", "6,4,1^2", "4^3", "5^2,1^2", "6,2^3", "3^4"]
    assert set(enumerate_cijt(T33)) == {Partition(p) for p in fig9_yes}
    assert set(enumerate_cijt(T1221)) == {
        Partition(p) for p in ["4,2", "4,1,1", "3,3", "2,2,2"]
    }
    k1 = enumerate_cijt(HilbertFunction("1,2,3,4,3,2,1"))
    assert len(k1) == 8
    assert all(len(P) == 4 for P in k1)


def test_cijt_counts_and_membership():
    for d, k in all_dk(6, 4, dmin=1):
        T = HilbertFunction.from_dk(d, k)
        cijt = enumerate_cijt(T)
        expected = 2**d if k >= 2 else 2 ** (d - 1)
        assert len(cijt) == len(set(cijt)) == expected
        # compositions sum to at most T.branches: d when k >= 2, d-1 when k = 1
        assert T.branches == (d if k >= 2 else d - 1)
        for comp in [(T.branches + 1,), (1,) * (T.branches + 1)]:
            with pytest.raises(NotCIJT):
                cijt_from_composition(T, comp)
        everything = enumerate_diagonal_partitions(T)
        assert set(cijt) <= set(everything)
        assert set(cijt) == {P for P in everything if is_cijt(P)}
        # CIJT parts rule: d parts (weak Lefschetz) or d+k-1 parts
        assert all(len(P) in (d, d + k - 1) for P in cijt)
        if k == 1:
            assert all(len(P) == d for P in cijt)


# The duplicate checks of the three enumerators compare the entries and parts
# tuples, not the value objects; each is made to see a repeat here, with the
# count still right, so only the distinctness half of the check can fire


def test_enumerate_branch_labels_refuses_a_repeated_label(monkeypatch):
    real = codes._labels_around

    def repeat_the_first(*args):
        labels = list(real(*args))
        return labels[:-1] + labels[:1]

    monkeypatch.setattr(codes, "_labels_around", repeat_the_first)
    with pytest.raises(InternalInconsistency, match="distinct"):
        enumerate_branch_labels(T33)


def test_enumerate_diagonal_partitions_refuses_two_labels_with_one_partition(monkeypatch):
    real = codes._glue
    count = codes.diagonal_partition_count(T33)
    glued = []

    def glue_the_last_as_the_first(label, T):
        glued.append(real(label, T))
        return glued[0] if len(glued) == count else glued[-1]

    monkeypatch.setattr(codes, "_glue", glue_the_last_as_the_first)
    with pytest.raises(InternalInconsistency, match="glue to the same partition"):
        enumerate_diagonal_partitions(T33)


def test_enumerate_cijt_refuses_a_repeated_partition(monkeypatch):
    real = codes.cijt_from_composition
    made = []

    def repeat_the_first(T, comp):
        made.append(real(T, comp))
        return made[0] if len(made) == 2 else made[-1]

    monkeypatch.setattr(codes, "cijt_from_composition", repeat_the_first)
    with pytest.raises(InternalInconsistency, match="distinct"):
        enumerate_cijt(T33)


def test_degenerate_height_one():
    # T = (1^k): the triangle is a single cell; two partitions for k >= 2
    T = HilbertFunction("1,1")
    assert set(enumerate_diagonal_partitions(T)) == {Partition([2]), Partition([1, 1])}
    assert set(enumerate_cijt(T)) == {Partition([2]), Partition([1, 1])}
    assert iota(Partition([2])) == Partition([1, 1])
    T1 = HilbertFunction("1")
    assert enumerate_diagonal_partitions(T1) == [Partition([1])]
    assert str(partition_to_branch_label(Partition([1]))) == "E,E"


def test_cijt_from_composition_rectangle():
    assert cijt_from_composition(T33, ()) == Partition([3, 3, 3, 3])
    assert cijt_from_composition(T33, (1, 1, 1)) == Partition([6, 4, 2])


# -- hook codes ----------------------------------------------------------------


@pytest.mark.parametrize(
    "parts, traditional",
    [
        ("6,4,2", "1_3,2_4,2_5"),
        ("5^2,1^2", "0_3,2_4,1_5"),
        # conjugate of (5,5,1,1); complement of its code in (1,2,2)
        ("4,2^4", "1_3,0_4,1_5"),
        ("5,3,1", "2_3,2_4"),
    ],
)
def test_hook_code_direct(parts, traditional):
    assert hook_code_direct(Partition(parts)).traditional_str() == traditional


def test_hook_code_from_label_examples():
    hc = hook_code_from_label(BranchLabel("E,2,1"), T1221)
    assert hc.subscripted_str() == "E,2_2,1_1"
    hc = hook_code_from_label(BranchLabel("1,2,E,3"), T33)
    assert hc.subscripted_str() == "1_0,2_1,E,3_2"
    assert hc.traditional_str() == "0_3,1_4,2_5"


def test_hook_code_label_rule_equals_direct():
    # every row of T(d, k) for d <= 8, k <= 4, from the label the
    # enumeration built the partition from; the label-free copy makes
    # hook_code_direct read its label off the diagram too.  d = 8 covers
    # T(8, 2), whose rows cli.classification_row reads off their labels
    for d, k in all_dk(8, 4):
        T = HilbertFunction.from_dk(d, k)
        for b in enumerate_branch_labels(T):
            P = Partition(branch_label_to_partition(b, T).parts)
            assert partition_to_branch_label(P) == b
            assert hook_code_from_label(b, T) == hook_code_direct(P), (P, str(b))


@pytest.mark.parametrize("degree", [2, 6])
def test_hook_code_refuses_a_hand_outside_the_window(monkeypatch, degree):
    # every hand of a partition of T(3, 2) lies in [d, j] = [3, 5]; a count
    # tampered to one degree below or past the window is refused
    P = Partition("6,4,2")
    monkeypatch.setattr(codes, "hook_counts_by_degree", lambda P: {3: 1, degree: 1})
    with pytest.raises(InternalInconsistency, match="outside"):
        hook_code_direct(P)


@pytest.mark.parametrize("value", [0, 4])
def test_label_walk_refuses_a_hand_outside_the_window(value):
    # in T(3, 2) the entry v has its hand at degree v + 2, so 0 and 4 put
    # it one degree below or past the window [d, j] = [3, 5]
    label = BranchLabel._of((E, value, 2, 1))
    with pytest.raises(InternalInconsistency, match="outside"):
        codes._label_hooks(label, HilbertFunction.from_dk(3, 2))


def test_hook_code_complementarity():
    for d, k in all_dk(5, 3):
        T = HilbertFunction.from_dk(d, k)
        full = hook_code_direct(sl_partition(T)).traditional_counts()
        for P in enumerate_diagonal_partitions(T):
            mine = hook_code_direct(P).traditional_counts()
            conj = hook_code_direct(conjugate(P)).traditional_counts()
            assert conj == tuple(a - b for a, b in zip(full, mine))


def test_hook_counts_of_arbitrary_partition():
    # works off the CI-shape track too
    assert hook_counts_by_degree(Partition([4, 2, 2, 2])) == {3: 1, 4: 1}


def test_hook_code_string_round_trip():
    for parts in ("6,4,2", "5^2,1^2", "3^2,2^2,1^2", "5,3,1", "2^2,1^2"):
        hc = hook_code_direct(Partition(parts))
        assert parse_traditional_hook_code(hc.traditional_str()) == hc.traditional
        label, subs = parse_subscripted_hook_code(hc.subscripted_str())
        assert label == hc.label and subs == hc.subscripts


def test_cell_dimension_examples():
    assert cell_dimension(Partition([6, 4, 2])) == 5
    assert cell_dimension(Partition([3, 3, 3, 3])) == 2
    assert cell_dimension(Partition([5, 3, 1])) == 4


def test_cell_dimension_of_sl_partition():
    # dim G_T = 1 + 2(d-1) for k >= 2, 2(d-1) for k = 1, reached by T-conjugate
    for d, k in all_dk(6, 3):
        T = HilbertFunction.from_dk(d, k)
        expected = 1 + 2 * (d - 1) if k >= 2 else 2 * (d - 1)
        assert cell_dimension(sl_partition(T)) == expected


def _times(a, b):
    """The product of two polynomials in q, as coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for m, u in enumerate(a):
        for n, v in enumerate(b):
            out[m + n] += u * v
    return out


def _power(a, n):
    out = [1]
    for _ in range(n):
        out = _times(out, a)
    return out


@pytest.mark.parametrize("d, k", list(all_dk(8, 4, dmin=1)))
def test_cell_dimensions_sum_over_the_whole_table(d, k):
    # the cells V(E_P) decompose G_T: the sum over every partition P of T of
    # q^cell_dimension(P) is (1 + q + q^2)^(d-1), times (1 + q) when k >= 2;
    # over the CIJTs it is q^(d-1) (1 + q)^branches, and each vanishing
    # Hessian costs a CIJT's cell exactly one dimension
    T = HilbertFunction.from_dk(d, k)
    every, cijt = Counter(), Counter()
    for P in enumerate_diagonal_partitions(T):
        dim = cell_dimension(P)
        every[dim] += 1
        if is_cijt(P):
            cijt[dim] += 1
            assert dim == d - 1 + len(predicted_nonvanishing_set(P)), P
    want = _power([1, 1, 1], d - 1)
    if k >= 2:
        want = _times(want, [1, 1])
    assert [every[n] for n in range(max(every) + 1)] == want
    want = [0] * (d - 1) + _power([1, 1], T.branches)
    assert [cijt[n] for n in range(max(cijt) + 1)] == want


# -- the rectangle flip ---------------------------------------------------------


def test_iota_examples():
    assert iota(Partition([6, 3, 3])) == Partition([6, 2, 2, 2])
    assert iota(Partition([6, 4, 2])) == Partition([6, 4, 1, 1])
    # (k+1, k+1) -> (2^(k+1)) at k = 3
    assert iota(Partition([4, 4])) == Partition([2, 2, 2, 2])


def test_iota_rejects_non_dpart():
    with pytest.raises(NotCIJTWithDParts):
        iota(Partition([6, 2, 2, 2]))  # d+k-1 parts, in the image
    with pytest.raises(NotCIJTWithDParts):
        iota(Partition([2, 2, 1, 1]))  # not CIJT at all


def test_iota_bijection_and_identity():
    for d, k in all_dk(6, 3):
        T = HilbertFunction.from_dk(d, k)
        cijt = enumerate_cijt(T)
        with_d = [P for P in cijt if len(P) == d]
        with_top = [P for P in cijt if len(P) == d + k - 1]
        assert len(with_d) == 2 ** (d - 1)
        images = [iota(P) for P in with_d]
        if k == 1:
            assert images == with_d
        else:
            assert sorted(images) == sorted(with_top)
            assert len(set(images)) == len(images)


def test_smallest_part_subcounts():
    # among d-part CIJT partitions: 2^(d-2-a) have smallest part a+k for
    # a in [0, d-2], and exactly one has smallest part d+k-1
    for d, k in all_dk(6, 3):
        T = HilbertFunction.from_dk(d, k)
        with_d = [P for P in enumerate_cijt(T) if len(P) == d]
        counter = Counter(P.parts[-1] for P in with_d)
        for a in range(d - 1):
            assert counter[a + k] == 2 ** (d - 2 - a)
        assert counter[d + k - 1] == 1
