"""Differential tests: the linear-time diagram scans, the parity-first
symmetric search, the one-label classification row and the branch-label
enumeration against the earlier bodies kept in reference_paths.py."""

import itertools

import pytest
from hypothesis import given, strategies as st

import reference_paths as ref
from jtlab.cli import classification_row
from jtlab.codes import (
    E,
    BranchLabel,
    HookCode,
    branch_label_to_partition,
    enumerate_branch_labels,
    enumerate_diagonal_partitions,
    hook_counts_by_degree,
    is_cijt,
    partition_to_branch_label,
)
from jtlab.errors import JtlabError
from jtlab.hessians import (
    active_hessian_indices,
    predicted_nonvanishing_set,
    predicted_rank_profile,
)
from jtlab.partitions import (
    HilbertFunction,
    Partition,
    diagonal_lengths,
    symmetric_string_placement,
)

ALL_DK = list(itertools.product(range(2, 8), range(1, 5)))

any_partition = st.lists(st.integers(1, 14), min_size=1, max_size=14).map(
    lambda parts: Partition(sorted(parts, reverse=True))
)


@pytest.mark.parametrize("d, k", itertools.product(range(1, 8), range(1, 4)))
def test_branch_labels_match_reference_in_order(d, k):
    T = HilbertFunction.from_dk(d, k)
    assert enumerate_branch_labels(T) == ref.enumerate_branch_labels(T)


@pytest.mark.parametrize("d, k", ALL_DK)
def test_every_partition_of_T_matches_reference(d, k):
    T = HilbertFunction.from_dk(d, k)
    for b in enumerate_branch_labels(T):
        P = branch_label_to_partition(b, T)
        assert P == ref.branch_label_to_partition(b, T)
        assert partition_to_branch_label(P) == b
        assert diagonal_lengths(P) == ref.diagonal_lengths(P) == T.values
        counts = hook_counts_by_degree(P)
        assert list(counts.items()) == list(ref.hook_counts_by_degree(P).items())
        witness = symmetric_string_placement(P, T)
        assert (witness is None) == (ref.symmetric_string_placement(P, T) is None), P
        if witness is not None:
            assert witness.coverage() == T.values
            assert witness.is_symmetric(T.j)
            assert witness.partition() == P


def _outcome(fn, *args):
    try:
        return fn(*args)
    except JtlabError as exc:
        return type(exc)


@pytest.mark.parametrize("d, k", list(itertools.product(range(2, 6), range(1, 4))))
def test_label_to_partition_matches_reference_on_every_arrangement(d, k):
    # every ordering of the label's entries, valid or not: same partition
    # or the same error class
    T = HilbertFunction.from_dk(d, k)
    entries = [E, *range(1, d + 1)] if k >= 2 else [E, E, *range(1, d)]
    for arrangement in set(itertools.permutations(entries)):
        b = BranchLabel(arrangement)
        assert _outcome(branch_label_to_partition, b, T) == _outcome(
            ref.branch_label_to_partition, b, T
        ), b


@given(any_partition)
def test_diagonal_lengths_match_reference(P):
    assert diagonal_lengths(P) == ref.diagonal_lengths(P)


@given(any_partition)
def test_hook_counts_match_reference(P):
    counts = hook_counts_by_degree(P)
    assert list(counts.items()) == list(ref.hook_counts_by_degree(P).items())


def _reference_row(P, T, labels):
    """A classification row from the reference functions: the label found
    by gluing every label, the hook code from the O(cells x rows) counts,
    symmetry from the search without the parity test."""
    label = labels[P]
    counts = ref.hook_counts_by_degree(P)
    s = max(0, T.k - 2)
    subscripts = tuple(
        None if entry is E else counts.get(T.d - 1 + entry + s, 0) for entry in label
    )
    traditional = tuple((deg, counts.get(deg, 0)) for deg in range(T.d, T.j + 1))
    hook = HookCode(traditional=traditional, label=label, subscripts=subscripts, d=T.d, k=T.k)
    cijt = is_cijt(P)
    row = {
        "partition": str(P),
        "hook_code": hook.traditional_str(support_only=True),
        "branch_label": str(label),
        "subscripted_hook_code": hook.subscripted_str(),
        "symmetric": ref.symmetric_string_placement(P, T) is not None,
        "cijt": cijt,
        "hessian_ranks": None,
        "nonvanishing": None,
    }
    if cijt:
        profile = predicted_rank_profile(P)
        row["nonvanishing"] = sorted(predicted_nonvanishing_set(P))
        row["hessian_ranks"] = [profile[(i, T.j - i)] for i in active_hessian_indices(T)]
    return row


@pytest.mark.parametrize("d, k", [(6, 2), (5, 3), (6, 1)])
def test_classification_row_matches_reference(d, k):
    T = HilbertFunction.from_dk(d, k)
    labels = {ref.branch_label_to_partition(b, T): b for b in enumerate_branch_labels(T)}
    partitions = enumerate_diagonal_partitions(T)
    assert set(partitions) == set(labels)
    for P in partitions:
        assert classification_row(P, T) == _reference_row(P, T, labels), P


@pytest.mark.parametrize("d, k", list(itertools.product(range(1, 7), range(1, 4))))
def test_classification_row_of_enumerated_partition_matches_fresh_one(d, k):
    # the enumeration hands every partition the T it was built from; a
    # partition built apart from the same parts derives its own
    T = HilbertFunction.from_dk(d, k)
    for P in enumerate_diagonal_partitions(T):
        fresh = Partition(P.parts)
        assert fresh is not P
        assert classification_row(P, T) == classification_row(fresh, T), P
