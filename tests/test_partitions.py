import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import jtlab
from jtlab import partitions
from jtlab.errors import (
    BudgetExceeded,
    InternalInconsistency,
    NotCIShape,
    ParseError,
    SizeMismatch,
)
from jtlab.codes import enumerate_diagonal_partitions
from jtlab.partitions import (
    MAX_PARTS,
    HilbertFunction,
    JordanDegreeType,
    Partition,
    _parity_rules_out,
    conjugate,
    diagonal_lengths,
    dominance_leq,
    hilbert_function,
    is_symmetric_jdt,
    sl_partition,
    symmetric_string_placement,
    validate_ci_hilbert,
)


def partitions_of(n, maxp=None):
    maxp = n if maxp is None else maxp
    if n == 0:
        yield ()
        return
    for p in range(min(n, maxp), 0, -1):
        for rest in partitions_of(n - p, p):
            yield (p,) + rest


@st.composite
def partition_strategy(draw, max_size=40):
    n = draw(st.integers(min_value=1, max_value=max_size))
    parts = []
    while n > 0:
        p = draw(st.integers(min_value=1, max_value=n))
        parts.append(p)
        n -= p
    return Partition(sorted(parts, reverse=True))


# -- basic structure ---------------------------------------------------------


def test_power_form_round_trip():
    P = Partition("19^2,15^2,10^3,3^4")
    assert P.parts == (19, 19, 15, 15, 10, 10, 10, 3, 3, 3, 3)
    assert P.power_form == ((19, 2), (15, 2), (10, 3), (3, 4))
    assert str(P) == "19^2,15^2,10^3,3^4"
    assert Partition(str(P)) == P


@given(partition_strategy())
def test_text_round_trip(P):
    assert Partition(str(P)) == P


def test_rejects_bad_input():
    with pytest.raises(ParseError):
        Partition([3, 4])
    with pytest.raises(ParseError):
        Partition([2, 0])
    with pytest.raises(ParseError):
        Partition("")


NOT_INTEGERS = [None, 5, 2.5, [1, "a"], [1, None], [1, "2", 1], [2.5, 1], [1, 2.5, 1]]


@pytest.mark.parametrize("bad", NOT_INTEGERS, ids=repr)
def test_non_integer_entries_are_refused(bad):
    # entries are read with operator.index: int() would round 2.5 and
    # parse "2", and a bare TypeError is not a domain error
    for build in (Partition, HilbertFunction, validate_ci_hilbert):
        with pytest.raises(ParseError):
            build(bad)
    with pytest.raises(ParseError):
        is_symmetric_jdt("3,1", bad)


# -- diagonal lengths --------------------------------------------------------


def test_diagonal_lengths_examples():
    assert diagonal_lengths(Partition([4, 4, 4])) == (1, 2, 3, 3, 2, 1)
    assert diagonal_lengths(Partition([6, 2, 2, 1, 1])) == (1, 2, 3, 3, 2, 1)
    assert diagonal_lengths(Partition([1])) == (1,)


def test_sum_of_parts_equals_diagonal_total():
    for parts in partitions_of(11):
        P = Partition(parts)
        assert sum(diagonal_lengths(P)) == P.size


# -- conjugation -------------------------------------------------------------


def test_conjugate_examples():
    assert conjugate(Partition([4, 2])) == Partition([2, 2, 1, 1])
    assert conjugate(Partition([6, 4, 2])) == Partition([3, 3, 2, 2, 1, 1])
    P = Partition("19^2,15^2,10^3,3^4")
    assert conjugate(conjugate(P)) == P


@given(partition_strategy())
def test_conjugate_involution_and_diagonal_invariance(P):
    assert conjugate(conjugate(P)) == P
    assert diagonal_lengths(conjugate(P)) == diagonal_lengths(P)


# -- CI Hilbert functions ----------------------------------------------------


def test_validate_ci_hilbert():
    assert validate_ci_hilbert((1, 2, 3, 4, 3, 2, 1)) == (4, 1, 6)
    assert validate_ci_hilbert((1, 2, 2, 2, 1)) == (2, 3, 4)
    assert validate_ci_hilbert((1,)) == (1, 1, 0)
    for bad in [(1, 3, 1), (1, 2, 2, 2), (2, 1), (1, 2, 3, 3, 1), ()]:
        with pytest.raises(NotCIShape):
            validate_ci_hilbert(bad)


@pytest.mark.parametrize("build", [HilbertFunction, validate_ci_hilbert])
def test_a_large_entry_is_refused_before_allocating(build):
    with pytest.raises(NotCIShape):
        build([1, 10**30, 1])
    tracemalloc.start()
    try:
        with pytest.raises(NotCIShape):
            build([1, 10**6, 1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_hilbert_function_parse():
    T = HilbertFunction("1,2,3^2,2,1")
    assert T.values == (1, 2, 3, 3, 2, 1)
    assert (T.d, T.k, T.j) == (3, 2, 5)
    assert T.size == 12 == T.d * (T.j + 2 - T.d)
    assert HilbertFunction.from_dk(3, 2) == T


def test_from_dk_checks_its_arguments():
    assert HilbertFunction.from_dk(1, 1).values == (1,)
    assert HilbertFunction.from_dk(2, 3).values == (1, 2, 2, 2, 1)
    # d and k are read like a Partition's entries
    for d, k in [(1.5, 2), (2, 2.0), ("2", 2), (2, None)]:
        with pytest.raises(ParseError):
            HilbertFunction.from_dk(d, k)
    # no T(d, k) has d or k below 1, though the formula would build a tuple
    for d, k in [(2, 0), (2, -1), (3, 0), (0, 2), (-1, 3)]:
        with pytest.raises(NotCIShape, match="d >= 1 and k >= 1"):
            HilbertFunction.from_dk(d, k)


def test_sl_partition_examples():
    assert sl_partition(HilbertFunction("1,2,3,3,2,1")) == Partition([6, 4, 2])
    assert sl_partition(HilbertFunction("1,2,2,1")) == Partition([4, 2])
    assert sl_partition(HilbertFunction("1,2,1")) == Partition([3, 1])


def test_sl_partition_has_diagonal_lengths_T():
    for d, k in itertools.product(range(1, 7), range(1, 5)):
        T = HilbertFunction.from_dk(d, k)
        P = sl_partition(T)
        assert len(P) == d
        assert diagonal_lengths(P) == T.values


# -- dominance ---------------------------------------------------------------


def test_dominance_examples():
    assert dominance_leq(Partition([3, 3]), Partition([4, 2]))
    # incomparable pair: 5 < 6 at the first sum but 10 > 9 at the second
    assert not dominance_leq(Partition("5^2,2"), Partition("6,3^2"))
    assert not dominance_leq(Partition("6,3^2"), Partition("5^2,2"))
    # adding the nonvanishing index 3 to {1,6,7} refines (17^2,10^5,4,1^2)
    # into (17^2,13^2,8^3,4,1^2), which dominates it
    assert dominance_leq(Partition("17^2,10^5,4,1^2"), Partition("17^2,13^2,8^3,4,1^2"))


def test_dominance_size_mismatch():
    with pytest.raises(SizeMismatch):
        dominance_leq(Partition([2, 1]), Partition([2, 2]))


def test_dominance_reflexive_and_antisymmetric():
    # reflexivity on every partition of n <= 20; antisymmetry on all pairs of
    # moderate n (same partial sums everywhere forces equality)
    for n in range(1, 21):
        for parts in partitions_of(n):
            P = Partition(parts)
            assert dominance_leq(P, P)
    for n in range(1, 13):
        all_parts = [Partition(p) for p in partitions_of(n)]
        for P, Q in itertools.combinations(all_parts, 2):
            assert not (dominance_leq(P, Q) and dominance_leq(Q, P))


def test_dominance_transitive():
    for n in range(1, 11):
        all_parts = [Partition(p) for p in partitions_of(n)]
        leq = {
            (P, Q): dominance_leq(P, Q)
            for P in all_parts
            for Q in all_parts
        }
        for P in all_parts:
            for Q in all_parts:
                if not leq[(P, Q)]:
                    continue
                for R in all_parts:
                    if leq[(Q, R)]:
                        assert leq[(P, R)]


# -- symmetric Jordan degree type --------------------------------------------


def test_symmetric_examples():
    assert is_symmetric_jdt(Partition([2, 2, 1, 1]), HilbertFunction("1,2,2,1"))
    assert not is_symmetric_jdt(Partition([3, 1, 1, 1]), HilbertFunction("1,2,2,1"))
    assert is_symmetric_jdt(Partition([6, 2, 2, 1, 1]), HilbertFunction("1,2,3,3,2,1"))


def test_symmetric_placement_refuses_more_parts_than_the_cap():
    assert is_symmetric_jdt(Partition([1] * MAX_PARTS), HilbertFunction((1,) * MAX_PARTS))
    with pytest.raises(BudgetExceeded):
        symmetric_string_placement(
            Partition([1] * (MAX_PARTS + 1)), HilbertFunction((1,) * (MAX_PARTS + 1))
        )


@pytest.mark.parametrize(
    "text",
    [f"1^{MAX_PARTS + 1}", f"{MAX_PARTS + 1}", "3,2^300,1^300", "1^" + "9" * 5000],
    ids=["many", "large", "sum", "digits"],
)
def test_caret_list_over_the_cap_is_refused(text):
    with pytest.raises(BudgetExceeded):
        Partition(text)


def test_symmetric_witness_is_valid():
    T = HilbertFunction("1,2,3,3,2,1")
    witness = symmetric_string_placement(Partition([6, 2, 2, 1, 1]), T)
    assert witness is not None
    assert witness.coverage() == T.values
    assert witness.is_symmetric(T.j)
    assert witness.partition() == Partition([6, 2, 2, 1, 1])


def test_symmetric_square_block_parity():
    # (2^k, 1, 1) admits a symmetric placement exactly when k is even
    for k in range(1, 9):
        T = HilbertFunction.from_dk(2, k)
        P = Partition([2] * k + [1, 1])
        assert is_symmetric_jdt(P, T) == (k % 2 == 0)


def test_symmetric_requires_matching_diagonals():
    from jtlab.errors import DiagonalMismatch

    with pytest.raises(DiagonalMismatch):
        is_symmetric_jdt(Partition([4, 2]), HilbertFunction("1,2,3,2,1"))


def _brute_force_symmetric(P, T):
    """Enumerate every placement of the parts as strings (no pruning beyond
    per-degree capacity) and test the mirror symmetry of each."""
    j = len(T.values) - 1
    parts = sorted(P.parts, reverse=True)

    def placements(idx, cap, chosen):
        if idx == len(parts):
            if all(c == 0 for c in cap):
                yield tuple(sorted(chosen))
            return
        s = parts[idx]
        # identical parts placed with non-decreasing starts to curb duplicates
        floor = chosen[-1][0] if chosen and chosen[-1][1] == s else 0
        for i in range(floor, j + 2 - s):
            if all(cap[m] > 0 for m in range(i, i + s)):
                for m in range(i, i + s):
                    cap[m] -= 1
                chosen.append((i, s))
                yield from placements(idx + 1, cap, chosen)
                chosen.pop()
                for m in range(i, i + s):
                    cap[m] += 1

    for placement in placements(0, list(T.values), []):
        counted = {}
        for i, s in placement:
            counted[(i, s)] = counted.get((i, s), 0) + 1
        if all(
            counted.get((j + 1 - s - i, s), 0) == m for (i, s), m in counted.items()
        ):
            return True
    return False


def test_symmetric_search_matches_brute_force():
    from jtlab.codes import enumerate_diagonal_partitions

    for d, k in itertools.product(range(2, 5), range(1, 4)):
        T = HilbertFunction.from_dk(d, k)
        if T.size > 14:
            continue
        for P in enumerate_diagonal_partitions(T):
            assert is_symmetric_jdt(P, T) == _brute_force_symmetric(P, T), P


def test_parity_lemma_both_directions():
    # a partition the parity test rejects has no symmetric placement, and
    # every CIJT partition passes it and is symmetric (the Gorenstein side)
    from jtlab.codes import enumerate_diagonal_partitions, is_cijt

    rejected = 0
    for d, k in itertools.product(range(2, 5), range(1, 4)):
        T = HilbertFunction.from_dk(d, k)
        for P in enumerate_diagonal_partitions(T):
            obstructed = _parity_rules_out(P.power_form, T.j)
            if obstructed:
                rejected += 1
                assert not _brute_force_symmetric(P, T), P
            if is_cijt(P):
                assert not obstructed and _brute_force_symmetric(P, T), P
    assert rejected == 80


TAMPERED_MIRROR = """
from jtlab.partitions import HilbertFunction, JordanDegreeType, Partition, symmetric_string_placement
JordanDegreeType.is_symmetric = lambda self, j: False
symmetric_string_placement(Partition([6, 2, 2, 1, 1]), HilbertFunction("1,2,3,3,2,1"))
"""


def test_tampered_witness_raises(monkeypatch):
    monkeypatch.setattr(JordanDegreeType, "is_symmetric", lambda self, j: False)
    with pytest.raises(InternalInconsistency):
        symmetric_string_placement(Partition([6, 2, 2, 1, 1]), HilbertFunction("1,2,3,3,2,1"))


def test_is_symmetric_jdt_agrees_with_the_witness():
    # is_symmetric_jdt answers from the search alone; the witness check it
    # no longer runs is run here, on every partition it would have guarded
    for d, k in itertools.product(range(1, 8), range(1, 5)):
        T = HilbertFunction.from_dk(d, k)
        for P in enumerate_diagonal_partitions(T):
            assert is_symmetric_jdt(P, T) == (symmetric_string_placement(P, T) is not None), P


def test_is_symmetric_jdt_builds_no_witness(monkeypatch):
    T = HilbertFunction.from_dk(5, 2)
    rows = enumerate_diagonal_partitions(T)
    want = [symmetric_string_placement(P, T) is not None for P in rows]
    assert 0 < sum(want) < len(want)

    def no_witness(strings):
        raise AssertionError("a witness was built")

    monkeypatch.setattr(partitions, "JordanDegreeType", no_witness)
    assert [is_symmetric_jdt(P, T) for P in rows] == want
    with pytest.raises(AssertionError, match="a witness was built"):
        symmetric_string_placement(rows[want.index(True)], T)


def test_tampered_witness_raises_under_optimize():
    src = str(Path(jtlab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", TAMPERED_MIRROR],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 1
    assert "InternalInconsistency" in proc.stderr


def test_every_cijt_partition_is_symmetric():
    # the converse fails: (2,2,1,1) is symmetric but not CIJT
    from jtlab.codes import enumerate_cijt

    for d, k in itertools.product(range(2, 6), range(1, 4)):
        T = HilbertFunction.from_dk(d, k)
        for P in enumerate_cijt(T):
            assert is_symmetric_jdt(P, T), P


def test_part_count_at_least_sperner():
    from jtlab.codes import enumerate_diagonal_partitions

    for d, k in itertools.product(range(2, 6), range(1, 4)):
        T = HilbertFunction.from_dk(d, k)
        for P in enumerate_diagonal_partitions(T):
            assert len(P) >= d


def test_value_objects_are_not_copied():
    P = Partition("5,3^2,1")
    T = HilbertFunction.from_dk(4, 2)
    assert Partition(P) is P
    assert HilbertFunction(T) is T


def test_hilbert_function_is_derived_once_and_validated():
    P = Partition("3,1")
    T = hilbert_function(P)
    assert T == HilbertFunction("1,2,1") == HilbertFunction(diagonal_lengths(P))
    assert hilbert_function(P) is T
    assert diagonal_lengths(P) is T.values
    Q = Partition("4,1")  # diagonal lengths 1,2,1,1
    for _ in range(2):
        with pytest.raises(NotCIShape):
            hilbert_function(Q)
    assert diagonal_lengths(Q) == (1, 2, 1, 1)
