"""Differential tests: the linear-time diagram scans, the parity-first
symmetric search, the one-label classification row, the branch-label
enumeration, the complete-intersection count read off the build, the
initial ideal on moved integer rows, the annihilator in its two generator
degrees, the rank table counted off moved standard monomials, the Jordan
degree type read one string per row off the same diagram, the quotient
built one degree from the last, and d, Ann(F) and every Hessian rank read
off one Berlekamp-Massey pass per direction against the earlier bodies kept
in reference_paths.py, the rank table against the one read off the
dual generator alone, and the generic Jordan types read off the
Hessian-subset bijection against their closed forms."""

import itertools
import json
import math
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import reference_paths as ref
from jtlab import linalg, polynomials
from jtlab.algebra import (
    GradedIdeal,
    _vec_poly,
    annihilator,
    initial_ideal,
    is_complete_intersection,
    jordan_degree_type,
    jordan_type,
    quotient,
    rank_mult_power,
)
from jtlab.cli import _parse_ideal_arg, classification_row
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
from jtlab.errors import JtlabError, NotArtinian, TopRequiresKGe2
from jtlab.hessians import (
    active_hessian_indices,
    generic_jordan_type,
    hessian_rank_at,
    predicted_nonvanishing_set,
    predicted_rank_profile,
)
from jtlab.partitions import (
    HilbertFunction,
    Partition,
    diagonal_lengths,
    symmetric_string_placement,
)
from jtlab.polynomials import BivariatePoly, divided_power_vector, parse_poly
from test_algebra import CI_CASES, RANK_TABLE_CASES
from tests_support import (
    dual_fuzz_forms,
    power_sum_duals,
    random_dual_form,
    random_dual_generator,
    rank_table,
)

ALL_DK = list(itertools.product(range(2, 8), range(1, 5)))

any_partition = st.lists(st.integers(1, 14), min_size=1, max_size=14).map(
    lambda parts: Partition(sorted(parts, reverse=True))
)


@pytest.mark.parametrize("d, k", [*itertools.product(range(1, 8), range(1, 4)), (8, 2)])
def test_branch_labels_match_reference_in_order(d, k):
    T = HilbertFunction.from_dk(d, k)
    assert enumerate_branch_labels(T) == ref.enumerate_branch_labels(T)


@pytest.mark.parametrize("d, k", ALL_DK)
def test_every_partition_of_T_matches_reference(d, k):
    T = HilbertFunction.from_dk(d, k)
    for b in enumerate_branch_labels(T):
        P = branch_label_to_partition(b, T)
        assert P == ref.branch_label_to_partition(b, T)
        # a label-free copy: its label is read off the diagram
        assert partition_to_branch_label(Partition(P.parts)) == b
        assert diagonal_lengths(P) == ref.diagonal_lengths(P) == T.values
        counts = hook_counts_by_degree(P)
        assert list(counts.items()) == list(ref.hook_counts_by_degree(P).items())
        witness = symmetric_string_placement(P, T)
        assert witness == ref.symmetric_string_placement(P, T), P
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
def test_partition_text_matches_reference(P):
    assert str(P) == ref.caret_text(P)
    assert Partition(str(P)) == P


@given(any_partition)
def test_hook_counts_match_reference(P):
    counts = hook_counts_by_degree(P)
    assert list(counts.items()) == list(ref.hook_counts_by_degree(P).items())


def _reference_row(P, T, labels):
    """A classification row from the reference functions: the partition's
    text from the reference caret writer, the label found by gluing every
    label, the hook code from the O(cells x rows) counts, symmetry from the
    search without the parity test."""
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
        "partition": ref.caret_text(P),
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


@pytest.mark.parametrize("d, k", [(6, 2), (5, 3), (6, 1), (8, 2)])
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
        got = is_complete_intersection(A)
        assert got == ref.is_complete_intersection(I, algebra=A), I
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
        got = is_complete_intersection(A)
        assert got == ref.is_complete_intersection(I, algebra=A) == (True, (d, d + k - 1)), I
        count += 1
    assert count == 150


def _padded(rng, I, A):
    """I with the same minimal generators, listed in a shuffled order with
    one generator twice, a multiple g*ell of one by a linear form, and a
    nonzero form of degree socle + 2 .. socle + 4, which lies in I."""
    gens = list(I.generators)
    g = rng.choice(gens)
    ell = BivariatePoly.linear(rng.randint(-3, 3), rng.choice((1, 2, -1)))
    top = A.socle_degree + rng.randint(2, 4)
    past = BivariatePoly({(a, top - a): rng.randint(-2, 2) for a in range(top + 1)})
    past = past if not past.is_zero() else BivariatePoly.monomial(top, 0)
    gens += [rng.choice(gens), g * ell, past]
    rng.shuffle(gens)
    return GradedIdeal(gens)


def test_ci_count_matches_reference_on_padded_ideals():
    rng = random.Random(17)
    ideals = [GradedIdeal([parse_poly(g) for g in gens]) for gens, _ in CI_CASES]
    ideals += [I for _, _, I in _realization_ideals(random.Random("realize_sweep:0"))]
    for I in ideals:
        A = quotient(I)
        J = _padded(rng, I, A)
        B = quotient(J)
        assert B.hilbert == A.hilbert, J
        want = is_complete_intersection(A)
        assert is_complete_intersection(B) == want, J
        assert ref.is_complete_intersection(J, algebra=B) == want, J
        assert ref.is_complete_intersection(J) == want, J
    assert len(ideals) == len(CI_CASES) + 150


# -- initial ideals on moved integer rows -----------------------------------------

# x, y, 2x, x + y, x + 2y, -x + y, 3x - 5y and x/2 + y
INITIAL_DIRECTIONS = [
    BivariatePoly.linear(a, b)
    for a, b in [(1, 0), (0, 1), (2, 0), (1, 1), (1, 2), (-1, 1), (3, -5), (Fraction(1, 2), 1)]
]


def _golden_ideals():
    """The five ideals of tests/golden/jordan.json, in file order."""
    cases = json.loads((Path(__file__).parent / "golden" / "jordan.json").read_text())
    sources = dict.fromkeys(tuple(case["argv"][1:3]) for case in cases)
    return [
        annihilator(parse_poly(text)) if flag == "--dual" else _parse_ideal_arg(flag)
        for flag, text in sources
    ]


INITIAL_FAMILIES = {
    "realize_sweep seed 0": lambda: [
        I for _, _, I in _realization_ideals(random.Random("realize_sweep:0"))
    ],
    "jordan golden": _golden_ideals,
    "non-CI": lambda: [
        GradedIdeal([parse_poly(g) for g in gens]) for gens, (ci, _) in CI_CASES if not ci
    ],
    "dense j = 10 .. 30": lambda: [
        annihilator(random_dual_generator(random.Random(0), j, j))
        for j in (10, 14, 18, 22, 26, 30)
    ],
}


@pytest.mark.parametrize("family", INITIAL_FAMILIES)
def test_initial_ideal_matches_reference(family):
    ideals = INITIAL_FAMILIES[family]()
    assert len(ideals) == {"realize_sweep seed 0": 150, "jordan golden": 5}.get(
        family, len(ideals)
    )
    for I in ideals:
        A = quotient(I)
        for ell in INITIAL_DIRECTIONS:
            want = ref.initial_ideal(I, ell)
            assert initial_ideal(A, ell) == want, (I, ell)


def test_initial_ideal_counts_are_ranks_of_powers():
    # with x' = ell, the standard monomials of degree i with y'-exponent at
    # most u are those divisible by x'^(i-u), and they number the rank of
    # ell^(i-u): A_u -> A_i; initial_ideal does not read it that way, so
    # this ties its fill to the ranks
    rng = random.Random(4)
    directions = [BivariatePoly.linear(a, b) for a, b in [(1, 0), (0, 1), (1, 1), (2, -3), (1, 5)]]
    checks = 0
    for _ in range(150):
        I, A, _ = _random_artinian_ideal(rng)
        for ell in directions:
            cell = initial_ideal(quotient(I), ell)
            for i, fill in enumerate(cell.fill):
                for u in range(i + 1):
                    count = sum(1 for _, yb in fill if yb <= u)
                    assert count == rank_mult_power(A, ell, u, i), (I, ell, u, i)
                    checks += 1
    assert checks == 11675


def test_initial_ideal_counts_are_ranks_of_the_reference():
    # the same 11 675 counts against the rank table that the reference
    # carries through one-step maps with Bareiss elimination: the ranks of
    # the test above are counted off the same moved standard monomials
    # that initial_ideal reads, so this pins the identity to a path that
    # shares no elimination with it
    rng = random.Random(4)
    directions = [BivariatePoly.linear(a, b) for a, b in [(1, 0), (0, 1), (1, 1), (2, -3), (1, 5)]]
    checks = 0
    for _ in range(150):
        I, A, _ = _random_artinian_ideal(rng)
        for ell in directions:
            table = ref.rank_table(A, ell)
            for i, fill in enumerate(initial_ideal(quotient(I), ell).fill):
                for u in range(i + 1):
                    count = sum(1 for _, yb in fill if yb <= u)
                    assert count == table[u][i - u], (I, ell, u, i)
                    checks += 1
    assert checks == 11675


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


# -- one Berlekamp-Massey pass against the dual-side references ----------------

# the forms on which the pass is checked against the ranks and the kernels
# it replaced: every monomial pairs a pass that stops early with one that
# runs to the end, and X^a*Y^(j-a) + X^j + 3/2*Y^j and the power sums
# make the moved vectors degenerate in the directions below
BERLEKAMP_MASSEY_FAMILIES = {
    "dual_fuzz": lambda rng: dual_fuzz_forms(),
    "random j = 1..39": lambda rng: [random_dual_form(rng, j) for j in range(1, 40)],
    "monomials": lambda rng: [
        BivariatePoly.monomial(a, j - a) for j in range(16) for a in range(j + 1)
    ],
    "X^a*Y^(j-a) + X^j + 3/2*Y^j": lambda rng: [
        BivariatePoly.monomial(a, j - a) + X**j + Fraction(3, 2) * Y**j
        for j in range(1, 16)
        for a in range(j + 1)
    ],
    "power sums": lambda rng: [_power_sum(rng, j, r) for j in range(13) for r in range(1, 5)]
    + power_sum_duals(),
}
BERLEKAMP_MASSEY_DIRECTIONS = [(1, 0), (0, 1), (1, 1), (1, 2), (2, -3), (3, 5), (1, -1)]


def _berlekamp_massey_forms(family):
    return BERLEKAMP_MASSEY_FAMILIES[family](random.Random(family))


@pytest.mark.parametrize("family", BERLEKAMP_MASSEY_FAMILIES)
def test_d_sequence_matches_the_per_power_ranks(family):
    # d_n of one pass per direction against the rank of the middle
    # catalecticant of ell^n o F for every n, and every Hessian rank
    # against the per-order weight loop it replaced
    checked = 0
    for F in _berlekamp_massey_forms(family):
        d = polynomials.dual_data(F)[1]
        for a, b in BERLEKAMP_MASSEY_DIRECTIONS:
            got = polynomials.d_sequence(F, a, b)
            assert got == ref.d_sequence(F, a, b), (F, a, b)
            for i in range(d):
                assert hessian_rank_at(F, i, (a, b)) == ref.hessian_rank_at(F, i, (a, b))
            checked += len(got)
    assert checked >= 7 * 100


@pytest.mark.parametrize("family", BERLEKAMP_MASSEY_FAMILIES)
def test_annihilator_matches_the_two_kernel_reference(family):
    # the generators read off the pass equal, row for row, those read off
    # the kernels of two catalecticants, with d = e among the forms
    balanced = 0
    for F in _berlekamp_massey_forms(family):
        got, want = annihilator(F), ref.two_kernel_annihilator(F)
        assert got._rows == want._rows and got.generators == want.generators, F
        balanced += got._rows[0][0] == got._rows[1][0]
    assert balanced > 0


@pytest.mark.parametrize("family", BERLEKAMP_MASSEY_FAMILIES)
def test_dual_data_d_is_the_middle_catalecticant_rank(family):
    for F in _berlekamp_massey_forms(family):
        assert polynomials.dual_data(F)[1] == ref.middle_catalecticant_rank(F), F


@pytest.mark.parametrize("family", [*BERLEKAMP_MASSEY_FAMILIES, "dense j = 16, 30, 49"])
def test_divided_power_vector_matches_the_fraction_product_reference(family):
    # F's denominators cleared once by their lcm give, int for int, the
    # primitive vector that a Fraction times two factorials per entry gave:
    # the vector is canonical, so even its pickle is the same bytes
    if family in BERLEKAMP_MASSEY_FAMILIES:
        forms = _berlekamp_massey_forms(family)
    else:
        forms = [random_dual_generator(random.Random(0), j, j) for j in (16, 30, 49)]
    for F in forms:
        got, want = divided_power_vector(F), ref.divided_power_vector(F)
        assert all(type(v) is int for v in got), F
        assert pickle.dumps(got) == pickle.dumps(want), F


# -- the rank table against carried images -------------------------------------

DIRECTIONS = [(1, 0), (0, 1), (1, 1), (1, 2)]
# 2x and -x are x up to a scalar, and x - y has a negative coefficient
SCALED_DIRECTIONS = [(2, 0), (-1, 0), (1, -1)]


def _assert_tables_match(A, directions):
    for a, b in directions:
        ell = BivariatePoly.linear(a, b)
        assert rank_table(A, ell) == ref.rank_table(A, ell), (A, ell)


@pytest.mark.parametrize(
    "I, directions",
    [case[1:] for case in RANK_TABLE_CASES],
    ids=[case[0] for case in RANK_TABLE_CASES],
)
def test_rank_table_matches_reference_on_rank_table_cases(I, directions):
    _assert_tables_match(quotient(I), directions + SCALED_DIRECTIONS)


NON_GORENSTEIN = [
    ("x^2", "x*y", "y^3"),
    ("x*y", "x^3", "y^4"),
    ("x^3", "x^2*y", "x*y^2", "y^3"),
]


@pytest.mark.parametrize("gens", NON_GORENSTEIN, ids=",".join)
def test_rank_table_matches_reference_on_non_gorenstein_quotients(gens):
    A = quotient(GradedIdeal([parse_poly(g) for g in gens]))
    # in codimension two, Gorenstein means complete intersection
    assert not is_complete_intersection(A)[0]
    _assert_tables_match(A, DIRECTIONS + SCALED_DIRECTIONS)


def test_rank_table_matches_reference_on_benchmark_realizations():
    # the 150 algebras of the seed-0 realize_sweep benchmark workload, which
    # draws Lambda_2 from random.Random("realize_sweep:0")
    count = 0
    for _, _, I in _realization_ideals(random.Random("realize_sweep:0")):
        _assert_tables_match(quotient(I), DIRECTIONS)
        count += 1
    assert count == 150


def test_rank_table_matches_reference_on_a_degree_30_dual():
    # on echelon forms scaled by Bareiss pivot values, as the reference
    # quotient builds them, the raw one-step maps of this algebra are over
    # 700 bits long; the reference carries images through them, while
    # jtlab counts standard monomials, on the Bareiss algebra and on quotient's
    I = annihilator(parse_poly("X^15*Y^15 + X^30 + 3/2*Y^30"))
    bareiss = ref.quotient(I)
    A = quotient(I)
    assert A.socle_degree == bareiss.socle_degree == 30
    for a, b in [(1, 2), (1, 1)]:
        raw = ref.one_step_columns(bareiss, a, b)
        assert max(abs(v).bit_length() for M in raw for row in M for v in row) > 700
    for algebra in (bareiss, A):
        _assert_tables_match(algebra, [(1, 2), (1, 1)])


# -- the quotient built one degree from the last ------------------------------------


# the dual generators F of the families of annihilators Ann(F) below
QUOTIENT_DUALS = {
    "dual_fuzz seed 0": dual_fuzz_forms,
    "dense j = 16, 20, 24": lambda: [
        random_dual_generator(random.Random(0), j, j) for j in (16, 20, 24)
    ],
}

QUOTIENT_FAMILIES = {
    "rank table cases": lambda: [I for _, I, _ in RANK_TABLE_CASES],
    "non-Gorenstein": lambda: [
        GradedIdeal([parse_poly(g) for g in gens]) for gens in NON_GORENSTEIN
    ],
    "realize_sweep seed 0": lambda: [
        I for _, _, I in _realization_ideals(random.Random("realize_sweep:0"))
    ],
    **{
        family: lambda duals=duals: [annihilator(F) for F in duals()]
        for family, duals in QUOTIENT_DUALS.items()
    },
}


@pytest.mark.parametrize("family", QUOTIENT_FAMILIES)
def test_quotient_matches_reference(family):
    for I in QUOTIENT_FAMILIES[family]():
        A, B, C = quotient(I), ref.quotient(I), ref.extend_quotient(I)
        # the standard monomials and the minimal generator degrees, both
        # against the Bareiss quotient
        assert A._std == B._std, I
        assert A._generator_degrees == ref.is_complete_intersection(I, algebra=B)[1], I
        # the normal form of every monomial of every degree, against the
        # remainder modulo the Bareiss form of that degree
        for i, (pivots, rows, lead) in enumerate(B.echelons[:-1]):
            for t in range(i + 1):
                rest = ref.reduced_remainder([int(c == t) for c in range(i + 1)], pivots, rows, lead)
                want = [Fraction(rest[c], lead) for c in B._std[i]]
                assert A.normal_form_vector(BivariatePoly.monomial(t, i - t)) == want, (I, i, t)
        # the reference forms that ref.extend grows, the ones jtlab kept
        # before it read only pivots, against the Bareiss forms
        assert C._std == B._std and C._generator_degrees == A._generator_degrees, I
        assert len(C.echelons) == len(B.echelons), I
        for (pivots, rows, lead), (ref_pivots, ref_rows, ref_lead) in zip(
            C.echelons, B.echelons
        ):
            assert pivots == ref_pivots, I
            # the same reduced echelon form over Q: rows / lead = ref_rows / ref_lead
            assert [[v * ref_lead for v in row] for row in rows] == [
                [v * lead for v in row] for row in ref_rows
            ], I
            # lead is its least common denominator
            content = math.gcd(lead, *(v for row in rows for v in row))
            assert lead > 0 and content == 1, I


@pytest.mark.parametrize("family", QUOTIENT_FAMILIES)
def test_rank_table_matches_both_references(family):
    # the count of moved standard monomials against the images that the
    # reference carries by Bareiss elimination, and for Ann(F) against the
    # Hankel ranks of F alone, in every direction of the tests above and
    # 2x - 3y
    ideals = QUOTIENT_FAMILIES[family]()
    duals = QUOTIENT_DUALS[family]() if family in QUOTIENT_DUALS else [None] * len(ideals)
    for I, F in zip(ideals, duals):
        A = quotient(I)
        for a, b in DIRECTIONS + SCALED_DIRECTIONS + [(2, -3)]:
            ell = BivariatePoly.linear(a, b)
            table = rank_table(A, ell)
            assert table == ref.rank_table(A, ell), (I, ell)
            if F is not None:
                assert table == ref.dual_rank_table(F, ell), (F, ell)


@pytest.mark.parametrize("family", QUOTIENT_FAMILIES)
def test_jordan_degree_type_is_one_string_per_row_of_the_moved_diagram(family):
    # the strings read one per row off the moved diagram against those that
    # second differences read off the Bareiss reference's rank table, on
    # every algebra of the families above (the rank table cases among them)
    # in every direction of the tests above and 2x - 3y; every string
    # occurs once, and the Jordan type is the initial partition
    for I in QUOTIENT_FAMILIES[family]():
        A = quotient(I)
        for a, b in DIRECTIONS + SCALED_DIRECTIONS + [(2, -3)]:
            ell = BivariatePoly.linear(a, b)
            jdt = jordan_degree_type(A, ell)
            assert jdt == ref.rank_table_jordan_degree_type(ref.rank_table(A, ell)), (I, ell)
            assert {m for _, m in jdt.strings} == {1}, (I, ell)
            assert initial_ideal(A, ell).partition == jordan_type(A, ell), (I, ell)


NON_ARTINIAN = [("x^2", "x*y"), ("y^3",), ("x*y^2", "x^2*y")]


@pytest.mark.parametrize("gens", NON_ARTINIAN, ids=",".join)
def test_quotient_refuses_a_non_artinian_ideal_as_the_reference_does(gens):
    I = GradedIdeal([parse_poly(g) for g in gens])
    with pytest.raises(NotArtinian) as got:
        quotient(I)
    with pytest.raises(NotArtinian) as want:
        ref.quotient(I)
    assert str(got.value) == str(want.value)


def test_quotient_builds_forward_only(monkeypatch):
    # quotient reads only pivots, so it builds with linalg.insert alone:
    # with remainder, rref, kernel_basis and rank refused it still gives the
    # Bareiss quotient's standard monomials and generator degrees, and its
    # NotArtinian message.  Ann(F), the padded ideals and the answers are
    # built before anything is refused.
    rng = random.Random(17)
    ideals = [
        annihilator(parse_poly("X^4*Y^3 + 2*X^7 - 3*Y^7 + X*Y^6")),
        GradedIdeal([parse_poly("x^2*y"), parse_poly("y^4+x^4")]),
        *(GradedIdeal([parse_poly(g) for g in gens]) for gens in NON_GORENSTEIN),
    ]
    padded = [GradedIdeal([parse_poly(g) for g in gens]) for gens, _ in CI_CASES]
    padded += [I for _, _, I in _realization_ideals(random.Random("realize_sweep:0"))]
    ideals += [_padded(rng, I, quotient(I)) for I in padded]
    want = []
    for I in ideals:
        B = ref.quotient(I)
        want.append((B._std, ref.is_complete_intersection(I, algebra=B)[1]))
    non_artinian = [GradedIdeal([parse_poly(g) for g in gens]) for gens in NON_ARTINIAN]
    messages = []
    for I in non_artinian:
        with pytest.raises(NotArtinian) as refused:
            ref.quotient(I)
        messages.append(str(refused.value))

    def refuse(*args):
        raise AssertionError("quotient ran an elimination other than linalg.insert")

    for name in ("remainder", "rref", "kernel_basis", "rank"):
        monkeypatch.setattr(linalg, name, refuse)
    for I, (std, degrees) in zip(ideals, want):
        A = quotient(I)
        assert (A._std, A._generator_degrees) == (std, degrees), I
    for I, message in zip(non_artinian, messages):
        with pytest.raises(NotArtinian) as got:
            quotient(I)
        assert str(got.value) == message
    assert len(ideals) == 2 + len(NON_GORENSTEIN) + len(CI_CASES) + 150


def test_annihilator_and_normal_forms_need_no_reduced_echelon_form(monkeypatch):
    # annihilator reduces its second generator against the shifts of the
    # first, and normal_form_vector a form against the forward-only basis
    # of its degree, both with linalg.remainder: with rref, kernel_basis and
    # rank refused, Ann(F) on one Berlekamp-Massey family, d = e among its
    # forms, is still the two-kernel reference's, and every normal form of
    # every monomial on the CI_CASES algebras the Bareiss remainder
    forms = _berlekamp_massey_forms("X^a*Y^(j-a) + X^j + 3/2*Y^j")
    rows = [ref.two_kernel_annihilator(F)._rows for F in forms]
    algebras = [quotient(GradedIdeal([parse_poly(g) for g in gens])) for gens, _ in CI_CASES]
    normal_forms = []
    for A in algebras:
        B = ref.quotient(A.ideal)
        for i, (pivots, reduced, lead) in enumerate(B.echelons[:-1]):
            for t in range(i + 1):
                rest = ref.reduced_remainder([int(c == t) for c in range(i + 1)], pivots, reduced, lead)
                normal_forms.append((A, i, t, [Fraction(rest[c], lead) for c in B._std[i]]))

    def refuse(*args):
        raise AssertionError("a reduced echelon form was built")

    for name in ("rref", "kernel_basis", "rank"):
        monkeypatch.setattr(linalg, name, refuse)
    assert [annihilator(F)._rows for F in forms] == rows
    assert any(d == e for (d, _), (e, _) in rows)
    for A, i, t, want in normal_forms:
        assert A.normal_form_vector(BivariatePoly.monomial(t, i - t)) == want, (A, i, t)
    assert len(normal_forms) == 77


# ideals whose normal forms are checked for exactness: a dense dual's
# annihilator, whose long rows make many entries true fractions, and a
# realization at an integral Lambda_2, whose generators have int
# coefficients only, so int rows with int scales, where int / int would
# give a float
EXACT_NORMAL_FORM_IDEALS = {
    "dense j = 16": lambda: annihilator(random_dual_generator(random.Random(0), 16, 16)),
    "realization of 11,9,7,2^4": lambda: construct_ci(Partition("11,9,7,2^4"), seed=2).ideal,
}


@pytest.mark.parametrize("case", EXACT_NORMAL_FORM_IDEALS)
def test_normal_forms_are_exact(case):
    # every entry of a normal form is an int, or a Fraction when it is not
    # integral, and never a float; the entries are the remainder modulo the
    # Bareiss form.  Each degree reduces its monomials, whose coefficients
    # are ints, and one form with true fractions among its coefficients
    I = EXACT_NORMAL_FORM_IDEALS[case]()
    A, B = quotient(I), ref.quotient(I)
    rng = random.Random(case)
    kinds = set()
    for i, (pivots, rows, lead) in enumerate(B.echelons[:-1]):
        forms = [[int(c == t) for c in range(i + 1)] for t in range(i + 1)]
        forms.append([Fraction(rng.randint(1, 9), rng.choice((1, 2, 3))) for _ in range(i + 1)])
        for vec in forms:
            rest = ref.reduced_remainder(vec, pivots, rows, lead)
            got = A.normal_form_vector(_vec_poly(vec, i))
            assert got == [Fraction(rest[c]) / lead for c in B._std[i]], (i, vec)
            for v in got:
                assert type(v) is int or (type(v) is Fraction and v.denominator != 1), (i, vec)
                kinds.add(type(v))
    assert kinds == {int, Fraction}


@pytest.mark.parametrize("j, bits, direction", [(30, 512, (1, 2)), (49, 1024, (1, 0))])
def test_dense_dual_keeps_quotient_leads_short(monkeypatch, j, bits, direction):
    # Each lead of the reference forms is the least common denominator of
    # the reduced echelon form of I_i over Q, which the ideal alone fixes:
    # 374 bits at most for j = 30 and 932 for j = 49, where the Bareiss
    # pivot values of the reference quotient reach 12 158 bits at j = 30.
    # The rows that quotient stores forward only reach 390 bits at j = 30
    # and 1823 at j = 49.  Coefficient growth past either bound fails here
    # instead of making the suite slow.
    F = random_dual_generator(random.Random(0), j, j)
    I = annihilator(F)
    insert, longest = linalg.insert, [0]

    def measuring(basis, vec):
        c = insert(basis, vec)
        if c is not None:
            longest[0] = max(longest[0], *(abs(v).bit_length() for v in basis[c]))
        return c

    monkeypatch.setattr(linalg, "insert", measuring)
    A = quotient(I)
    monkeypatch.undo()
    assert A.socle_degree == j
    assert 0 < longest[0] < {30: 512, 49: 2048}[j]
    B = ref.extend_quotient(I)
    assert B._std == A._std
    for _, rows, lead in B.echelons:
        assert 0 < lead and lead.bit_length() < bits
        assert math.gcd(lead, *(v for row in rows for v in row)) == 1
    ell = BivariatePoly.linear(*direction)
    table = rank_table(A, ell)
    assert table == ref.dual_rank_table(F, ell)
    if j <= 30:
        # the carried-image reference takes about 13 s at j = 49, where the
        # Bareiss pivot values on its moved images have grown long
        assert table == ref.rank_table(A, ell)


def test_rank_table_matches_dual_reference_on_dual_fuzz_and_power_sums():
    # the quotient's table, built from the echelon forms of Ann(F) alone,
    # against the Hankel ranks of F alone: 104 benchmark forms and the
    # planted degenerate power sums, whose Hessians vanish on the axes
    forms = dual_fuzz_forms() + power_sum_duals()
    assert len(forms) == 104 + 18
    for F in forms:
        A = quotient(annihilator(F))
        for a, b in DIRECTIONS:
            ell = BivariatePoly.linear(a, b)
            assert rank_table(A, ell) == ref.dual_rank_table(F, ell), (F, ell)


def test_generic_jordan_types_match_the_closed_forms():
    # every which on T(d, k), d <= 11 and k <= 6: the value of the
    # Hessian-subset bijection equals the closed form, and both refuse
    # "top" when k = 1
    agreed = refused = 0
    for d, k in itertools.product(range(1, 12), range(1, 7)):
        T = HilbertFunction.from_dk(d, k)
        for which in ("sl", "top", *range(d - 1)):
            if which == "top" and k < 2:
                for generic in (ref.generic_jordan_type, generic_jordan_type):
                    with pytest.raises(TopRequiresKGe2):
                        generic(T, which)
                refused += 1
                continue
            assert generic_jordan_type(T, which) == ref.generic_jordan_type(T, which), (T, which)
            agreed += 1
    assert (agreed, refused) == (451, 11)
