"""Differential tests: the linear-time diagram scans, the parity-first
symmetric search, the one-label classification row, the branch-label
enumeration and the complete-intersection count at generator degrees
against the earlier bodies kept in reference_paths.py."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

import reference_paths as ref
from jtlab.algebra import GradedIdeal, is_complete_intersection, quotient
from jtlab.cli import classification_row
from jtlab.codes import (
    E,
    BranchLabel,
    HookCode,
    branch_label_to_partition,
    enumerate_branch_labels,
    enumerate_cijt,
    enumerate_diagonal_partitions,
    hook_counts_by_degree,
    is_cijt,
    partition_to_branch_label,
)
from jtlab.constructor import construct_ci
from jtlab.errors import JtlabError, NotArtinian
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
from jtlab.polynomials import BivariatePoly

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


def _random_form(rng, deg):
    """A homogeneous form of degree deg with small, often zero, integer
    coefficients; it may be zero."""
    coeffs = (0, 0, 0, 1, -1, 2, -3)
    return BivariatePoly({(a, deg - a): rng.choice(coeffs) for a in range(deg + 1)})


def _random_artinian_ideal(rng):
    """2-3 random forms of degree 1-5, sometimes with a planted redundant
    generator (a combination of the others, of degree up to 2 past the
    largest) and sometimes with a generator of degree 9-12, which lies past
    socle + 1; shuffled, and retried until no generator is zero and the
    quotient is Artinian.  Returns the ideal, its quotient and whether a
    redundant generator was planted."""
    while True:
        gens = [_random_form(rng, rng.randint(1, 5)) for _ in range(rng.randint(2, 3))]
        planted = rng.random() < 0.4
        if planted:
            top = max(g.degree() for g in gens) + rng.randint(0, 2)
            terms = (_random_form(rng, top - g.degree()) * g for g in gens)
            gens.append(sum(terms, BivariatePoly()))
        if rng.random() < 0.3:
            gens.append(_random_form(rng, rng.randint(9, 12)))
        if any(g.is_zero() for g in gens):
            continue
        rng.shuffle(gens)
        I = GradedIdeal(gens)
        try:
            return I, quotient(I), planted
        except NotArtinian:
            continue


def test_ci_count_matches_reference_on_random_ideals():
    rng = random.Random(20261018)
    seen = {"ci": 0, "not ci": 0, "planted": 0, "past socle + 1": 0}
    for _ in range(400):
        I, A, planted = _random_artinian_ideal(rng)
        got = is_complete_intersection(I, algebra=A)
        assert got == ref.is_complete_intersection(I, algebra=A), I
        assert is_complete_intersection(I) == got, I
        seen["ci" if got[0] else "not ci"] += 1
        seen["planted"] += planted
        seen["past socle + 1"] += any(g.degree() > A.socle_degree + 1 for g in I.generators)
    assert min(seen.values()) >= 40, seen


def test_ci_count_matches_reference_on_realization_sweep():
    # the realizations of every CIJT with d <= 5, k <= 3, Lambda_2 drawn
    # from -5..5 by random.Random(0) in enumeration order
    rng = random.Random(0)
    count = 0
    for d, k in itertools.product(range(2, 6), range(1, 4)):
        for P in enumerate_cijt(HilbertFunction.from_dk(d, k)):
            lam = tuple(rng.randint(-5, 5) for _ in range(P.power_form[0][1]))
            I = construct_ci(P, lambda2=lam).ideal
            A = quotient(I)
            got = is_complete_intersection(I, algebra=A)
            assert got == ref.is_complete_intersection(I, algebra=A) == (True, (d, d + k - 1)), P
            count += 1
    assert count == 150
