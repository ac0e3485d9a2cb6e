"""Acceptance suite.

Each criterion runs at its stated exact tolerance and time budget and prints
one PASS/FAIL line.  Run with `pytest -s tests/test_acceptance.py` to see the
lines as they complete.
"""

import functools
import itertools
import json
import random
import time

from jtlab.algebra import (
    GradedIdeal,
    annihilator,
    jordan_type,
    quotient,
    rank_mult_power,
)
from jtlab.cli import main as cli_main
from jtlab.codes import (
    cell_dimension,
    enumerate_cijt,
    enumerate_diagonal_partitions,
    hook_code_direct,
    hook_code_from_label,
    iota,
    partition_to_branch_label,
)
from jtlab.constructor import construct_ci, verify_realization
from jtlab.hessians import (
    active_hessian_indices,
    cijt_from_hessian_subset,
    generic_jordan_type,
    hessian_matrix,
    hessian_rank_at,
    nonvanishing_set,
    predicted_nonvanishing_set,
)
from jtlab.partitions import HilbertFunction, Partition, diagonal_lengths, dominance_leq
from jtlab.polynomials import BivariatePoly, parse_poly

from tests_support import random_dual_generator

ELL_X = BivariatePoly.linear(1, 0)
ELL_Y = BivariatePoly.linear(0, 1)


def criterion(number, summary, budget_seconds):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"[criterion {number}] FAIL: {summary}")
                raise
            elapsed = time.perf_counter() - start
            print(f"[criterion {number}] PASS ({elapsed:.2f}s): {summary}")
            assert elapsed < budget_seconds, (
                f"criterion {number} exceeded its {budget_seconds}s budget"
            )

        return wrapper

    return decorate


# -- 1. counting formulas ------------------------------------------------------


@criterion(1, "partition and CIJT counts for 2 <= d <= 6, 1 <= k <= 4", 5)
def test_criterion_1_counting():
    for d, k in itertools.product(range(2, 7), range(1, 5)):
        T = HilbertFunction.from_dk(d, k)
        diag = enumerate_diagonal_partitions(T)
        cijt = enumerate_cijt(T)
        assert len(diag) == (2 * 3 ** (d - 1) if k >= 2 else 3 ** (d - 1))
        assert len(cijt) == (2**d if k >= 2 else 2 ** (d - 1))


# -- 2. figure reproduction ----------------------------------------------------

FIG9_ROWS = [
    # partition, hook code, branch label, rk0, rk1, rk2, symmetric, cijt
    ("6,4,2", "1_3,2_4,2_5", "E,3,2,1", "1", "2", "3", "Y", "Y"),
    ("5^2,2", "1_3,2_4,1_5", "E,2,3,1", "0*", "2", "3", "Y", "Y"),
    ("6,3^2", "1_3,1_4,2_5", "E,3,1,2", "1", "1*", "3", "Y", "Y"),
    ("6,4,1^2", "0_3,2_4,2_5", "1,E,3,2", "1", "2", "2*", "Y", "Y"),
    ("4^3", "1_3,1_4,1_5", "E,1,2,3", "0*", "1*", "3", "Y", "Y"),
    ("5^2,1^2", "0_3,2_4,1_5", "1,E,2,3", "0*", "2", "2*", "Y", "Y"),
    ("6,2^3", "0_3,1_4,2_5", "1,2,E,3", "1", "1*", "2*", "Y", "Y"),
    ("6,3,1^3", "1_3,0_4,2_5", "2,E,3,1", "-", "-", "-", "N", "N"),
    ("5,3,1^4", "1_3,2_4,0_5", "3,E,2,1", "-", "-", "-", "N", "N"),
    ("6,2^2,1^2", "0_3,0_4,2_5", "2,1,E,3", "-", "-", "-", "Y", "N"),
    ("5,2^2,1^3", "0_3,2_4,0_5", "3,1,E,2", "-", "-", "-", "N", "N"),
    ("4^2,1^4", "1_3,1_4,0_5", "3,E,1,2", "-", "-", "-", "Y", "N"),
    ("4,2^4", "1_3,0_4,1_5", "2,3,E,1", "-", "-", "-", "Y", "N"),
    ("3^4", "0_3,1_4,1_5", "1,2,3,E", "0*", "0*", "2*", "Y", "Y"),
    ("4,2^3,1^2", "1_3,0_4,0_5", "3,2,E,1", "-", "-", "-", "Y", "N"),
    ("3^3,1^3", "0_3,1_4,0_5", "3,1,2,E", "-", "-", "-", "N", "N"),
    ("3^2,2^3", "0_3,0_4,1_5", "2,3,1,E", "-", "-", "-", "Y", "N"),
    ("3^2,2^2,1^2", "0_3,0_4,0_5", "3,2,1,E", "-", "-", "-", "Y", "N"),
]

FIG2A_1221_ROWS = [
    # partition, hook code, rk0, rk1, symmetric, cijt, subscripted label
    ("4,2", "1_2,2_3", "1", "2", "Y", "Y", "E,2_2,1_1"),
    ("4,1^2", "0_2,2_3", "1", "1*", "Y", "Y", "1_0,E,2_2"),
    ("3^2", "1_2,1_3", "0*", "2", "Y", "Y", "E,1_1,2_1"),
    ("2^3", "0_2,1_3", "0*", "1*", "Y", "Y", "1_0,2_1,E"),
    ("3,1^3", "1_2,0_3", "-", "-", "N", "N", "2_0,E,1_1"),
    ("2^2,1^2", "0_2,0_3", "-", "-", "Y", "N", "2_0,1_0,E"),
]


def fig3a_rows(k):
    """The six rows of the d = 2 table at a concrete k >= 2.

    The rank of the first Hessian on (2^(k+1)) is max(3-k, 0): at k = 2 the
    reference tables for the specific Hilbert function (1,2,2,1) print 1*
    (the general-k table's 0* applies only for k >= 3).
    """
    sym_square = "Y" if k % 2 == 0 else "N"
    rk1_rect = str(max(3 - k, 0)) + "*"
    return [
        (f"{k + 2},{k}", f"1_{k},2_{k + 1}", "1", "2", "Y", "Y", "E,2_2,1_1"),
        (f"{k + 2},1^{k}", f"0_{k},2_{k + 1}", "1", "1*", "Y", "Y", "1_0,E,2_2"),
        (f"{k + 1}^2", f"1_{k},1_{k + 1}", "0*", "2", "Y", "Y", "E,1_1,2_1"),
        (f"2^{k + 1}", f"0_{k},1_{k + 1}", "0*", rk1_rect, "Y", "Y", "1_0,2_1,E"),
        (f"{k + 1},1^{k + 1}", f"1_{k},0_{k + 1}", "-", "-", "N", "N", "2_0,E,1_1"),
        (f"2^{k},1^2", f"0_{k},0_{k + 1}", "-", "-", sym_square, "N", "2_0,1_0,E"),
    ]


def emitted_rows(figure):
    import io

    start = time.perf_counter()
    out = io.StringIO()
    code = cli_main(["table", figure, "--format", "json"], out=out, err=io.StringIO())
    assert code == 0
    assert time.perf_counter() - start < 1.0, f"table {figure} took over a second"
    rows = json.loads(out.getvalue())["rows"]
    emitted = []
    for row in rows:
        if row["hessian_ranks"] is None:
            ranks = ["-"] * 2 if figure != "9" else ["-"] * 3
        else:
            nonvan = set(row["nonvanishing"])
            active = range(len(row["hessian_ranks"]))
            ranks = [
                str(r) if i in nonvan else f"{r}*"
                for i, r in zip(active, row["hessian_ranks"])
            ]
        emitted.append((row, ranks))
    return emitted


@criterion(2, "tables 9, 2a-1221 and 3a:k (k = 2, 3, 4) match the references", 4)
def test_criterion_2_figures():
    got = {
        row["partition"]: (row["hook_code"], row["branch_label"], *ranks,
                           "Y" if row["symmetric"] else "N",
                           "Y" if row["cijt"] else "N")
        for row, ranks in emitted_rows("9")
    }
    want = {r[0]: tuple(r[1:]) for r in FIG9_ROWS}
    assert got == want

    got = {
        row["partition"]: (row["hook_code"], *ranks,
                           "Y" if row["symmetric"] else "N",
                           "Y" if row["cijt"] else "N",
                           row["subscripted_hook_code"])
        for row, ranks in emitted_rows("2a-1221")
    }
    want = {r[0]: tuple(r[1:]) for r in FIG2A_1221_ROWS}
    assert got == want

    for k in (2, 3, 4):
        got = {
            row["partition"]: (row["hook_code"], *ranks,
                               "Y" if row["symmetric"] else "N",
                               "Y" if row["cijt"] else "N",
                               row["subscripted_hook_code"])
            for row, ranks in emitted_rows(f"3a:{k}")
        }
        want = {r[0]: tuple(r[1:]) for r in fig3a_rows(k)}
        assert got == want, k


# -- 3. realization pipeline ---------------------------------------------------


@criterion(3, "six-check realization of every CIJT, d <= 5, k <= 3, 3 seeds", 60)
def test_criterion_3_realizations():
    rng = random.Random(0xC1)
    for d, k in itertools.product(range(2, 6), range(1, 4)):
        T = HilbertFunction.from_dk(d, k)
        for P in enumerate_cijt(T):
            a1 = P.power_form[0][1]
            for _ in range(3):
                lam = tuple(rng.randint(-5, 5) for _ in range(a1))
                report = verify_realization(construct_ci(P, lambda2=lam))
                assert report.all_passed, (P, lam, str(report))


# -- 4. worked examples ----------------------------------------------------------


@criterion(4, "worked examples: Jordan types, Hessians, dominance pairs", 10)
def test_criterion_4_worked_examples():
    ELL_XY = BivariatePoly.linear(1, 1)

    # the monomial complete intersection (x^2, y^3)
    A = quotient(GradedIdeal([parse_poly("x^2"), parse_poly("y^3")]))
    assert jordan_type(A, ELL_Y) == Partition([3, 3])
    assert nonvanishing_set(A, ELL_Y) == {1}  # only h^0 is zero
    assert jordan_type(A, ELL_X) == Partition([2, 2, 2])
    assert nonvanishing_set(A, ELL_X) == frozenset()  # both vanish
    assert jordan_type(A, ELL_XY) == Partition([4, 2])
    assert nonvanishing_set(A, ELL_XY) == {0, 1}

    # the non-monomial complete intersection (xy, x^3 + y^3)
    B = quotient(GradedIdeal([parse_poly("x*y"), parse_poly("x^3+y^3")]))
    assert jordan_type(B, ELL_X) == Partition([4, 1, 1])
    assert nonvanishing_set(B, ELL_X) == {0}  # only h^1 is zero

    # the same Jordan types occur in non-CI algebras of the same Hilbert function
    C = quotient(GradedIdeal([parse_poly(t) for t in ("x*y", "x^3", "y^4")]))
    assert jordan_type(C, ELL_X) == Partition([3, 1, 1, 1])
    D = quotient(GradedIdeal([parse_poly(t) for t in ("x^2", "x*y^2", "y^4")]))
    assert jordan_type(D, ELL_X) == Partition([2, 2, 1, 1])
    assert jordan_type(D, ELL_Y) == Partition([4, 2])

    # the dual generator X^2 Y^3
    F = parse_poly("X^2*Y^3")
    assert str(annihilator(F)) == "x^3, y^4"
    E = quotient(annihilator(F))
    assert hessian_matrix(F, 1) == [
        [parse_poly("2Y^3"), parse_poly("6XY^2")],
        [parse_poly("6XY^2"), parse_poly("6X^2Y")],
    ]
    zero = BivariatePoly.zero()
    assert hessian_matrix(F, 2) == [
        [zero, zero, parse_poly("12Y")],
        [zero, parse_poly("12Y"), parse_poly("12X")],
        [parse_poly("12Y"), parse_poly("12X"), zero],
    ]
    assert jordan_type(E, ELL_X) == Partition([3, 3, 3, 3])
    assert jordan_type(E, ELL_Y) == Partition([4, 4, 4])
    assert jordan_type(E, ELL_XY) == Partition([6, 4, 2])

    # the chain construction for (6, 2, 2, 2)
    G = quotient(GradedIdeal([parse_poly("x^2*y"), parse_poly("y^4+x^4")]))
    assert G.hilbert == (1, 2, 3, 3, 2, 1)
    assert jordan_type(G, ELL_X) == Partition([6, 2, 2, 2])

    # Hessian nonvanishing from partial sums
    assert predicted_nonvanishing_set(Partition("19^2,15^2,10^3,3^4")) == {1, 3, 6}

    # two dominance pairs: refining the nonvanishing set moves up in dominance
    pairs = [
        ("17^2,10^5,4,1^2", "17^2,13^2,8^3,4,1^2"),
        ("14^2,6^6", "14^2,10^2,4^4"),
    ]
    for q, p in pairs:
        Q, P = Partition(q), Partition(p)
        assert dominance_leq(Q, P) and not dominance_leq(P, Q)
        assert predicted_nonvanishing_set(Q) < predicted_nonvanishing_set(P)


# -- 5. bijection and lattice theorems --------------------------------------------


@criterion(5, "bijection, dominance lattice, iota, hook-code theorems", 30)
def test_criterion_5_property_suites():
    # hook code from label rule == direct count, all partitions, d <= 6, k <= 4;
    # on label-free copies, so the label is read off the diagram
    for d, k in itertools.product(range(2, 7), range(1, 5)):
        T = HilbertFunction.from_dk(d, k)
        for P in enumerate_diagonal_partitions(T):
            P = Partition(P.parts)
            b = partition_to_branch_label(P)
            assert hook_code_from_label(b, T) == hook_code_direct(P)

    # subset bijection round trip, d <= 6, k <= 4
    for d, k in itertools.product(range(2, 7), range(1, 5)):
        T = HilbertFunction.from_dk(d, k)
        active = active_hessian_indices(T)
        for P in enumerate_cijt(T):
            assert cijt_from_hessian_subset(T, predicted_nonvanishing_set(P)) == P
        for r in range(len(active) + 1):
            for S in itertools.combinations(active, r):
                assert predicted_nonvanishing_set(
                    cijt_from_hessian_subset(T, frozenset(S))
                ) == frozenset(S)

    for d, k in itertools.product(range(2, 7), range(1, 4)):
        T = HilbertFunction.from_dk(d, k)
        cijt = enumerate_cijt(T)
        sets = {P: predicted_nonvanishing_set(P) for P in cijt}
        active = active_hessian_indices(T)

        # dominance order coincides with inclusion of nonvanishing sets
        for Q in cijt:
            for P in cijt:
                assert dominance_leq(Q, P) == (sets[Q] <= sets[P])

        # codimension of the cell = number of vanishing active Hessians
        dim_gt = 1 + 2 * (d - 1) if k >= 2 else 2 * (d - 1)
        for P in cijt:
            assert dim_gt - cell_dimension(P) == len(active) - len(sets[P])

        # vanishing read off the hook code entry by entry
        s_off = max(0, k - 2)
        for P in cijt:
            counts = dict(hook_code_direct(P).traditional)
            if k >= 2:
                for i in range(1, d + 1):
                    cap = 1 if i == 1 else 2
                    below = counts[(d - 1) + i + s_off] < cap
                    assert below == ((d - i) not in sets[P])
            else:
                for i in range(1, d):
                    below = counts[(d - 1) + i] < 2
                    assert below == ((d - 1 - i) not in sets[P])

        # the rectangle flip: bijection onto d+k-1 parts, drops the top Hessian
        with_d = [P for P in cijt if len(P) == d]
        assert len(with_d) == 2 ** (d - 1)
        images = [iota(P) for P in with_d]
        if k == 1:
            assert images == with_d
        else:
            assert sorted(images) == sorted(P for P in cijt if len(P) == d + k - 1)
            for P in with_d:
                assert sets[iota(P)] == sets[P] - {d - 1}

        # smallest-part subcounts among the d-part CIJT partitions
        from collections import Counter

        counter = Counter(P.parts[-1] for P in with_d)
        for a in range(d - 1):
            assert counter[a + k] == 2 ** (d - 2 - a)
        assert counter[d + k - 1] == 1


# -- 6. generic dual generator formulas --------------------------------------------


@criterion(6, "generic-F Jordan type formulas on both reference examples", 5)
def test_criterion_6_generic_formulas():
    T1 = HilbertFunction("1,2,3,2,1")
    assert generic_jordan_type(T1, "sl") == Partition([5, 3, 1])
    assert generic_jordan_type(T1, 1) == Partition([5, 2, 2])
    assert generic_jordan_type(T1, 0) == Partition([4, 4, 1])

    T2 = HilbertFunction("1,2,3,3,2,1")
    assert generic_jordan_type(T2, "sl") == Partition([6, 4, 2])
    assert generic_jordan_type(T2, 1) == Partition([6, 3, 3])
    assert generic_jordan_type(T2, 0) == Partition([5, 5, 2])
    assert generic_jordan_type(T2, "top") == Partition([6, 4, 1, 1])

    # every output is CIJT with the expected singleton complement
    for d, k in itertools.product(range(2, 7), range(1, 4)):
        T = HilbertFunction.from_dk(d, k)
        active = frozenset(active_hessian_indices(T))
        assert predicted_nonvanishing_set(generic_jordan_type(T, "sl")) == active
        for i in range(d - 1):
            assert predicted_nonvanishing_set(generic_jordan_type(T, i)) == active - {i}
        if k >= 2:
            assert predicted_nonvanishing_set(
                generic_jordan_type(T, "top")
            ) == active - {d - 1}


# -- 7. fuzzed soundness -------------------------------------------------------------


@criterion(7, "200 random dual generators: diagonal lengths and Hessian ranks", 120)
def test_criterion_7_fuzz():
    rng = random.Random(20260811)
    directions = [(1, 0), (0, 1), (1, 1), (1, 2)]
    for _ in range(200):
        F = random_dual_generator(rng, jmin=4, jmax=9)
        A = quotient(annihilator(F))
        T = HilbertFunction(A.hilbert)
        for a, b in directions:
            ell = BivariatePoly.linear(a, b)
            assert diagonal_lengths(jordan_type(A, ell)) == A.hilbert
            for i in active_hessian_indices(T):
                assert hessian_rank_at(F, i, (a, b), algebra=A) == rank_mult_power(
                    A, ell, i, T.j - i
                )


# -- 9. realization pipeline over a wider range --------------------------------


@criterion(9, "six-check realization of all 7161 CIJTs, d <= 10, k <= 4, one seed", 60)
def test_criterion_9_wide_realizations():
    # one recorded seed: each Lambda_2 is drawn from this stream in order, so
    # a failing (P, Lambda_2) printed below is reproduced by this test alone
    rng = random.Random(0xC9)
    count = 0
    for d, k in itertools.product(range(1, 11), range(1, 5)):
        T = HilbertFunction.from_dk(d, k)
        for P in enumerate_cijt(T):
            lam = tuple(rng.randint(-5, 5) for _ in range(P.power_form[0][1]))
            report = verify_realization(construct_ci(P, lambda2=lam))
            assert report.all_passed, (P, lam, str(report))
            count += 1
    assert count == 7161
