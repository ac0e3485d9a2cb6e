"""Differential tests: the linear-time diagram scans, the parity-first
symmetric search, the one-label classification row, the branch-label
enumeration, the complete-intersection count at generator degrees, the
annihilator in its two generator degrees, the one-sweep rank table and the
quotient built one degree from the last against the earlier bodies kept in
reference_paths.py, and the rank table against the one read off the dual
generator alone."""

import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

import reference_paths as ref
from jtlab.algebra import (
    ArtinAlgebra,
    GradedIdeal,
    annihilator,
    is_complete_intersection,
    quotient,
)
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
from jtlab.polynomials import BivariatePoly, parse_poly
from test_algebra import RANK_TABLE_CASES
from tests_support import power_sum_duals, random_dual_form, random_dual_generator

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


def _realization_ideals(rng):
    """(d, k, ideal) for the realization of every CIJT with d <= 5, k <= 3,
    Lambda_2 drawn from -5..5 by rng in enumeration order."""
    for d, k in itertools.product(range(2, 6), range(1, 4)):
        for P in enumerate_cijt(HilbertFunction.from_dk(d, k)):
            lam = tuple(rng.randint(-5, 5) for _ in range(P.power_form[0][1]))
            yield d, k, construct_ci(P, lambda2=lam).ideal


def test_ci_count_matches_reference_on_realization_sweep():
    count = 0
    for d, k, I in _realization_ideals(random.Random(0)):
        A = quotient(I)
        got = is_complete_intersection(I, algebra=A)
        assert got == ref.is_complete_intersection(I, algebra=A) == (True, (d, d + k - 1)), I
        count += 1
    assert count == 150


# -- annihilator in its two generator degrees ----------------------------------

X, Y = parse_poly("X"), parse_poly("Y")


def _power_sum(rng, j, r):
    """A nonzero sum of r powers (a X + b Y)^j with a, b in -3..3."""
    while True:
        terms = (
            (rng.randint(-3, 3) * X + rng.randint(-3, 3) * Y) ** j for _ in range(r)
        )
        F = sum(terms, BivariatePoly())
        if not F.is_zero():
            return F


def _balanced(rng, j):
    """A random form of even degree j whose Ann(F) has both generators in
    degree j/2 + 1, the case in which the kernel of degree d has dimension 2."""
    while True:
        F = random_dual_generator(rng, jmin=j, jmax=j)
        if max(quotient(ref.annihilator(F)).hilbert) == j // 2 + 1:
            return F


ANNIHILATOR_FAMILIES = {
    "monomials": lambda rng: [
        BivariatePoly.monomial(a, j - a) for j in range(13) for a in range(j + 1)
    ],
    "(X+Y)^j": lambda rng: [(X + Y) ** j for j in range(13)],
    "power sums": lambda rng: [
        _power_sum(rng, j, r) for j in range(13) for r in range(1, 5)
    ],
    "balanced": lambda rng: [_balanced(rng, j) for j in range(0, 13, 2) for _ in range(2)],
    "benchmark-shaped": lambda rng: [random_dual_generator(rng) for _ in range(100)],
    # long-entry catalecticants: the reference's Bareiss pivot values on them
    # reach 125, 271 and 434 bits
    "dense": lambda rng: [
        random_dual_generator(random.Random(0), j, j) for j in (16, 24, 30)
    ],
}


@pytest.mark.parametrize("family", ANNIHILATOR_FAMILIES)
def test_annihilator_matches_reference(family):
    duals = ANNIHILATOR_FAMILIES[family](random.Random(family))
    for F in duals:
        got = annihilator(F)
        assert got.generators == ref.annihilator(F).generators, F
        j = F.homogeneous_degree()
        degrees = [g.degree() for g in got.generators]
        assert len(degrees) == 2 and sum(degrees) == j + 2, F
        if family == "(X+Y)^j":
            assert degrees == [1, j + 1], F
        if family == "balanced":
            assert degrees == [j // 2 + 1] * 2, F


# -- the rank table in one sweep -------------------------------------------------

DIRECTIONS = [(1, 0), (0, 1), (1, 1), (1, 2)]
# 2x and -x are x up to a scalar, and x - y has a negative coefficient
SCALED_DIRECTIONS = [(2, 0), (-1, 0), (1, -1)]


@pytest.fixture
def handed_maps(monkeypatch):
    """Every list of one-step maps that ArtinAlgebra._one_step_maps hands
    to the rank-table sweep during the test, each a list of columns.  Each
    is checked, as it is handed, against the maps that the dense reference
    builds by rows from the normal form of every monomial."""
    handed = []
    build = ArtinAlgebra._one_step_maps

    def recording(self, a, b):
        maps = build(self, a, b)
        assert [list(zip(*M)) for M in maps] == ref.one_step_maps(self, a, b), (self, a, b)
        handed.append(maps)
        return maps

    monkeypatch.setattr(ArtinAlgebra, "_one_step_maps", recording)
    return handed


def _assert_tables_match(A, directions, handed_maps):
    for a, b in directions:
        ell = BivariatePoly.linear(a, b)
        assert A._rank_table(ell) == ref.rank_table(A, ell), (A, ell)
    assert handed_maps
    for maps in handed_maps:
        for M in maps:
            # content 1, or 0 for a zero map, over every entry of every column
            assert math.gcd(*(v for column in M for v in column)) <= 1, (A, M)


@pytest.mark.parametrize(
    "I, directions",
    [case[1:] for case in RANK_TABLE_CASES],
    ids=[case[0] for case in RANK_TABLE_CASES],
)
def test_rank_table_matches_reference_on_rank_table_cases(I, directions, handed_maps):
    _assert_tables_match(quotient(I), directions + SCALED_DIRECTIONS, handed_maps)


NON_GORENSTEIN = [
    ("x^2", "x*y", "y^3"),
    ("x*y", "x^3", "y^4"),
    ("x^3", "x^2*y", "x*y^2", "y^3"),
]


@pytest.mark.parametrize("gens", NON_GORENSTEIN, ids=",".join)
def test_rank_table_matches_reference_on_non_gorenstein_quotients(gens, handed_maps):
    A = quotient(GradedIdeal([parse_poly(g) for g in gens]))
    # in codimension two, Gorenstein means complete intersection
    assert not is_complete_intersection(A.ideal, algebra=A)[0]
    _assert_tables_match(A, DIRECTIONS + SCALED_DIRECTIONS, handed_maps)


def test_rank_table_matches_reference_on_benchmark_realizations(handed_maps):
    # the 150 algebras of the seed-0 realize_sweep benchmark workload, which
    # draws Lambda_2 from random.Random("realize_sweep:0")
    count = 0
    for _, _, I in _realization_ideals(random.Random("realize_sweep:0")):
        _assert_tables_match(quotient(I), DIRECTIONS, handed_maps)
        handed_maps.clear()
        count += 1
    assert count == 150


def test_rank_table_matches_reference_on_a_degree_30_dual(handed_maps):
    # on echelon forms scaled by Bareiss pivot values, as the reference
    # quotient builds them, the raw one-step maps of this algebra are over
    # 700 bits long; divided by their content they stay under 64, on those
    # forms and on the least-common-denominator forms of quotient
    I = annihilator(parse_poly("X^15*Y^15 + X^30 + 3/2*Y^30"))
    bareiss = ArtinAlgebra(I, ref.quotient(I)._echelons)
    A = quotient(I)
    assert A.socle_degree == bareiss.socle_degree == 30
    for a, b in [(1, 2), (1, 1)]:
        raw = ref.one_step_columns(bareiss, a, b)
        assert max(abs(v).bit_length() for M in raw for row in M for v in row) > 700
    for algebra in (bareiss, A):
        _assert_tables_match(algebra, [(1, 2), (1, 1)], handed_maps)
    assert len(handed_maps) == 4
    entries = [v for maps in handed_maps for M in maps for column in M for v in column]
    assert max(abs(v).bit_length() for v in entries) < 64


# -- the quotient built one degree from the last ------------------------------------


def _dual_fuzz_forms():
    """The 104 dual generators of the seed-0 dual_fuzz benchmark workload,
    drawn from random.Random("dual_fuzz:0") with degrees cycling through
    4, 5, 6, 7, 7, 8, 9, 9, as the workload draws them."""
    rng = random.Random("dual_fuzz:0")
    degrees = (4, 5, 6, 7, 7, 8, 9, 9)
    return [random_dual_form(rng, degrees[n % len(degrees)]) for n in range(104)]


QUOTIENT_FAMILIES = {
    "rank table cases": lambda: [I for _, I, _ in RANK_TABLE_CASES],
    "non-Gorenstein": lambda: [
        GradedIdeal([parse_poly(g) for g in gens]) for gens in NON_GORENSTEIN
    ],
    "realize_sweep seed 0": lambda: [
        I for _, _, I in _realization_ideals(random.Random("realize_sweep:0"))
    ],
    "dual_fuzz seed 0": lambda: [annihilator(F) for F in _dual_fuzz_forms()],
    "dense j = 16, 20, 24": lambda: [
        annihilator(random_dual_generator(random.Random(0), j, j)) for j in (16, 20, 24)
    ],
}


@pytest.mark.parametrize("family", QUOTIENT_FAMILIES)
def test_quotient_matches_reference(family):
    for I in QUOTIENT_FAMILIES[family]():
        A, B = quotient(I), ref.quotient(I)
        assert A.hilbert == B.hilbert, I
        assert len(A._echelons) == len(B._echelons), I
        for (pivots, rows, lead), (ref_pivots, ref_rows, ref_lead) in zip(
            A._echelons, B._echelons
        ):
            assert pivots == ref_pivots, I
            # the same reduced echelon form over Q: rows / lead = ref_rows / ref_lead
            assert [[v * ref_lead for v in row] for row in rows] == [
                [v * lead for v in row] for row in ref_rows
            ], I
            # lead is its least common denominator
            content = math.gcd(lead, *(v for row in rows for v in row))
            assert lead > 0 and content == 1, I


@pytest.mark.parametrize(
    "gens", [("x^2", "x*y"), ("y^3",), ("x*y^2", "x^2*y")], ids=",".join
)
def test_quotient_refuses_a_non_artinian_ideal_as_the_reference_does(gens):
    I = GradedIdeal([parse_poly(g) for g in gens])
    with pytest.raises(NotArtinian) as got:
        quotient(I)
    with pytest.raises(NotArtinian) as want:
        ref.quotient(I)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("j, bits, direction", [(30, 512, (1, 2)), (49, 1024, (1, 0))])
def test_dense_dual_keeps_quotient_leads_short(j, bits, direction):
    # Each lead is the least common denominator of the reduced echelon form
    # of I_i over Q, which the ideal alone fixes: 374 bits at most for
    # j = 30 and 932 for j = 49, where the Bareiss pivot values of the
    # reference quotient reach 12 158 bits at j = 30.  Coefficient growth
    # past that fails here instead of making the suite slow.
    F = random_dual_generator(random.Random(0), j, j)
    A = quotient(annihilator(F))
    assert A.socle_degree == j
    for _, rows, lead in A._echelons:
        assert 0 < lead and lead.bit_length() < bits
        assert math.gcd(lead, *(v for row in rows for v in row)) == 1
    ell = BivariatePoly.linear(*direction)
    table = A._rank_table(ell)
    assert table == ref.dual_rank_table(F, ell)
    if j <= 30:
        # the carried-image reference takes about 13 s at j = 49, where the
        # Bareiss pivot values on its moved images have grown long
        assert table == ref.rank_table(A, ell)


def test_rank_table_matches_dual_reference_on_dual_fuzz_and_power_sums():
    # the quotient's table, built from the echelon forms of Ann(F) alone,
    # against the Hankel ranks of F alone: 104 benchmark forms and the
    # planted degenerate power sums, whose Hessians vanish on the axes
    forms = _dual_fuzz_forms() + power_sum_duals()
    assert len(forms) == 104 + 18
    for F in forms:
        A = quotient(annihilator(F))
        for a, b in DIRECTIONS:
            ell = BivariatePoly.linear(a, b)
            assert A._rank_table(ell) == ref.dual_rank_table(F, ell), (F, ell)
