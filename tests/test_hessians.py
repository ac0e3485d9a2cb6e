import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import jtlab
from jtlab import algebra, hessians, linalg, partitions, polynomials
from jtlab.algebra import GradedIdeal, annihilator, jordan_type, quotient, rank_mult_power
from jtlab.codes import enumerate_cijt, iota
from jtlab.constructor import construct_ci
from jtlab.errors import (
    BudgetExceeded,
    InternalInconsistency,
    InvalidSubset,
    NotCIJT,
    NotCIShape,
    OrderOutOfRange,
    ParseError,
    TopRequiresKGe2,
    ZeroForm,
    ZeroInput,
)
from jtlab.hessians import (
    active_hessian_indices,
    cijt_from_hessian_subset,
    generic_jordan_type,
    hessian_matrix,
    hessian_rank_at,
    nonvanishing_set,
    predicted_nonvanishing_set,
    predicted_rank_profile,
)
from jtlab.partitions import HilbertFunction, Partition, dominance_leq, sl_partition
from jtlab.polynomials import BivariatePoly, parse_poly

from reference_paths import evaluate, evaluate_matrix, hessian_determinant
from tests_support import copies, dual_fuzz_forms, power_sum_duals, random_dual_generator

T33 = HilbertFunction("1,2,3,3,2,1")
ELL_X = BivariatePoly.linear(1, 0)
ELL_Y = BivariatePoly.linear(0, 1)


def all_dk(dmax, kmax, dmin=2):
    return itertools.product(range(dmin, dmax + 1), range(1, kmax + 1))


# -- symbolic matrices ---------------------------------------------------------


def test_hessian_matrices_of_x2y3():
    F = parse_poly("X^2*Y^3")
    m1 = hessian_matrix(F, 1)
    assert m1 == [
        [parse_poly("2Y^3"), parse_poly("6XY^2")],
        [parse_poly("6XY^2"), parse_poly("6X^2Y")],
    ]
    m2 = hessian_matrix(F, 2)
    zero = BivariatePoly.zero()
    assert m2 == [
        [zero, zero, parse_poly("12Y")],
        [zero, parse_poly("12Y"), parse_poly("12X")],
        [parse_poly("12Y"), parse_poly("12X"), zero],
    ]
    assert hessian_matrix(F, 0) == [[F]]


def test_hessian_determinants_of_x2y3():
    F = parse_poly("X^2*Y^3")
    assert hessian_determinant(F, 0) == F
    assert hessian_determinant(F, 1) == parse_poly("-24*X^2*Y^4")
    assert hessian_determinant(F, 2) == parse_poly("-1728*Y^3")
    # common root (1, 0): the direction x is maximally degenerate
    for i in range(3):
        assert evaluate(hessian_determinant(F, i), 1, 0) == 0


def test_hessian_order_out_of_range():
    F = parse_poly("X^2*Y^3")
    with pytest.raises(OrderOutOfRange):
        hessian_matrix(F, 3)


# -- active orders and ground truth ---------------------------------------------


def test_active_hessian_indices():
    assert active_hessian_indices(T33) == (0, 1, 2)
    assert active_hessian_indices(HilbertFunction("1,2,3,2,1")) == (0, 1)
    assert active_hessian_indices(HilbertFunction("1,2,1")) == (0,)
    for d, k in all_dk(6, 4, dmin=1):
        T = HilbertFunction.from_dk(d, k)
        assert active_hessian_indices(T) == tuple(range(T.branches))


def test_nonvanishing_ground_truth():
    A = quotient(GradedIdeal([parse_poly("x^2"), parse_poly("y^3")]))
    assert nonvanishing_set(A, ELL_Y) == {1}
    assert nonvanishing_set(A, ELL_X) == frozenset()
    B = quotient(GradedIdeal([parse_poly("x*y"), parse_poly("x^3+y^3")]))
    assert nonvanishing_set(B, ELL_X) == {0}


def test_nonvanishing_set_validates_the_hilbert_function_once(monkeypatch):
    # the algebra's own HilbertFunction is read, so three calls on one
    # realization validate it at most once; an algebra whose Hilbert
    # function is not CI-shaped still raises NotCIShape
    validated = []

    def counting(T):
        validated.append(T)
        return validate(T)

    validate = partitions.validate_ci_hilbert
    P = Partition("6,4,2")
    A = quotient(construct_ci(P).ideal)
    monkeypatch.setattr(partitions, "validate_ci_hilbert", counting)
    assert nonvanishing_set(A, ELL_X) == predicted_nonvanishing_set(P)
    assert nonvanishing_set(A, ELL_Y) == {1}
    assert nonvanishing_set(A, ELL_X + ELL_Y) == {0, 1, 2}
    assert len(validated) <= 1
    C = quotient(GradedIdeal([parse_poly(t) for t in ("x^3", "x^2*y", "x*y^2", "y^3")]))
    with pytest.raises(NotCIShape, match=r"^\(1, 2, 3\) is not of the form"):
        nonvanishing_set(C, ELL_X)


def test_predicted_nonvanishing_examples():
    assert predicted_nonvanishing_set(Partition("19^2,15^2,10^3,3^4")) == {1, 3, 6}
    assert predicted_nonvanishing_set(Partition("17^2,10^5,4,1^2")) == {1, 6, 7}
    assert predicted_nonvanishing_set(Partition("3^4")) == frozenset()


def test_predicted_nonvanishing_rejects_non_cijt():
    with pytest.raises(NotCIJT):
        predicted_nonvanishing_set(Partition([2, 2, 1, 1]))


# -- the bijection ---------------------------------------------------------------


def test_cijt_from_hessian_subset_examples():
    assert cijt_from_hessian_subset(T33, {0, 1, 2}) == Partition([6, 4, 2])
    assert cijt_from_hessian_subset(T33, {0, 2}) == Partition([6, 3, 3])
    assert cijt_from_hessian_subset(T33, set()) == Partition([3, 3, 3, 3])
    with pytest.raises(InvalidSubset):
        cijt_from_hessian_subset(T33, {3})


def test_subset_bijection_round_trip():
    for d, k in all_dk(6, 3):
        T = HilbertFunction.from_dk(d, k)
        active = active_hessian_indices(T)
        for P in enumerate_cijt(T):
            assert cijt_from_hessian_subset(T, predicted_nonvanishing_set(P)) == P
        for r in range(len(active) + 1):
            for S in itertools.combinations(active, r):
                P = cijt_from_hessian_subset(T, frozenset(S))
                assert predicted_nonvanishing_set(P) == frozenset(S)


def test_dominance_equals_subset_inclusion():
    for d, k in all_dk(6, 3):
        T = HilbertFunction.from_dk(d, k)
        cijt = enumerate_cijt(T)
        sets = {P: predicted_nonvanishing_set(P) for P in cijt}
        for Q in cijt:
            for P in cijt:
                assert dominance_leq(Q, P) == (sets[Q] <= sets[P])


def test_weak_lefschetz_characterization():
    # P has d parts iff d-1 is nonvanishing, except k = 1 where all CIJT do
    for d, k in all_dk(6, 3):
        T = HilbertFunction.from_dk(d, k)
        for P in enumerate_cijt(T):
            if k == 1:
                assert len(P) == d
            else:
                assert (len(P) == d) == (d - 1 in predicted_nonvanishing_set(P))


def test_iota_removes_top_hessian():
    for d, k in all_dk(6, 3):
        if k == 1:
            continue
        T = HilbertFunction.from_dk(d, k)
        for P in enumerate_cijt(T):
            if len(P) != d:
                continue
            assert predicted_nonvanishing_set(iota(P)) == (
                predicted_nonvanishing_set(P) - {d - 1}
            )


# -- rank profiles ----------------------------------------------------------------


FIG9_PURE_RANKS = {
    "6,4,2": (1, 2, 3),
    "5^2,2": (0, 2, 3),
    "6,3^2": (1, 1, 3),
    "6,4,1^2": (1, 2, 2),
    "4^3": (0, 1, 3),
    "5^2,1^2": (0, 2, 2),
    "6,2^3": (1, 1, 2),
    "3^4": (0, 0, 2),
}


def test_predicted_pure_ranks_match_reference_table():
    for parts, ranks in FIG9_PURE_RANKS.items():
        profile = predicted_rank_profile(Partition(parts))
        assert tuple(profile[(i, T33.j - i)] for i in range(3)) == ranks


def test_predicted_nonvanishing_set_reads_off_the_rank_profile():
    # classification_row and verify_realization ask for the profile alone
    # and read the set off it: the active orders i with full rank i + 1 at
    # (i, j - i)
    count = 0
    for d, k in all_dk(8, 4):
        T = HilbertFunction.from_dk(d, k)
        for P in enumerate_cijt(T):
            profile = predicted_rank_profile(P)
            read = {i for i in active_hessian_indices(T) if profile[(i, T.j - i)] == i + 1}
            assert read == predicted_nonvanishing_set(P), P
            count += 1
    assert count == sum(2 ** HilbertFunction.from_dk(d, k).branches for d, k in all_dk(8, 4))


def test_predicted_profile_matches_constructed_algebras():
    rng = random.Random(11)
    for d, k in all_dk(4, 3):
        T = HilbertFunction.from_dk(d, k)
        for P in enumerate_cijt(T):
            lam = tuple(rng.randint(-5, 5) for _ in range(P.power_form[0][1]))
            A = quotient(construct_ci(P, lambda2=lam).ideal)
            assert nonvanishing_set(A, ELL_X) == predicted_nonvanishing_set(P)
            for (u, s), rank in predicted_rank_profile(P).items():
                assert rank_mult_power(A, ELL_X, u, s) == rank, (P, u, s)


def test_symbolic_hessian_rank_equals_multiplication_rank():
    rng = random.Random(31337)
    for _ in range(40):
        F = random_dual_generator(rng, jmin=3, jmax=8)
        A = quotient(annihilator(F))
        T = HilbertFunction(A.hilbert)
        for a, b in [(1, 0), (0, 1), (1, 1), (1, 2), (2, -1)]:
            ell = BivariatePoly.linear(a, b)
            for i in active_hessian_indices(T):
                assert hessian_rank_at(F, i, (a, b), algebra=A) == rank_mult_power(
                    A, ell, i, T.j - i
                )


def _symbolic_hessian_rank(F, i, point, algebra):
    """The slow path: rank of the symbolic i-th Hessian evaluated at point."""
    return linalg.rank(evaluate_matrix(hessian_matrix(F, i, algebra), *point))


HESSIAN_POINTS = [(1, 0), (0, 1), (1, 1), (2, -3), (-4, 1), (Fraction(1, 2), -3)]


def test_hessian_rank_matches_symbolic_reference_on_random_duals():
    rng = random.Random(20261018)
    for j in range(4, 10):
        for _ in range(3):
            F = random_dual_generator(rng, jmin=j, jmax=j)
            A = quotient(annihilator(F))
            for i in active_hessian_indices(HilbertFunction(A.hilbert)):
                for point in HESSIAN_POINTS:
                    want = _symbolic_hessian_rank(F, i, point, A)
                    assert hessian_rank_at(F, i, point, algebra=A) == want, (F, i, point)
                with pytest.raises(ZeroForm):
                    hessian_rank_at(F, i, (0, 0), algebra=A)
            assert hessian_rank_at(F, 1, (3, Fraction(-2, 3))) == _symbolic_hessian_rank(
                F, 1, (3, Fraction(-2, 3)), A
            )


def _rational_roots(D):
    """The points (p, q), coprime with q >= 0 and |p|, q <= 6, at which the
    binary form D vanishes."""
    candidates = [(1, 0)] + [
        (p, q) for q in range(1, 7) for p in range(-6, 7) if math.gcd(p, q) == 1
    ]
    return [(p, q) for p, q in candidates if evaluate(D, p, q) == 0]


def test_hessian_rank_matches_symbolic_reference_at_planted_roots():
    degenerate = 0
    for F in power_sum_duals():
        A = quotient(annihilator(F))
        T = HilbertFunction(A.hilbert)
        for i in range(T.d):
            points = {(1, 0), (0, 1), *_rational_roots(hessian_determinant(F, i, A))}
            for point in sorted(points):
                want = _symbolic_hessian_rank(F, i, point, A)
                assert hessian_rank_at(F, i, point, algebra=A) == want, (F, i, point)
                degenerate += want < i + 1
    # roots beyond the axes: (-1, 1) and (2, 1) for (X+Y)^j + (X-2Y)^j at
    # order 1, and (1, 2) at order 0 when j is odd
    F = power_sum_duals(5, 5)[1]
    assert {(-1, 1), (2, 1)} <= set(_rational_roots(hessian_determinant(F, 1)))
    assert (1, 2) in _rational_roots(hessian_determinant(F, 0))
    assert degenerate >= 40  # 48 rank drops among the planted points


def test_hessian_rank_at_reads_no_rank_table(monkeypatch):
    # the Hessian side of the Hessian-against-multiplication check must not
    # come from the multiplication ranks it is compared with, nor from the
    # moved diagram that they are counted off
    def refuse(*args):
        raise AssertionError("moved diagram read")

    F = parse_poly("X^5 + 3*X^2*Y^3 - Y^5")
    A = quotient(annihilator(F))
    monkeypatch.setattr(A, "_diagram", refuse)
    monkeypatch.setattr(hessians, "rank_mult_power", refuse)
    ranks = [hessian_rank_at(F, i, (1, 1), algebra=A) for i in range(3)]
    assert ranks == [_symbolic_hessian_rank(F, i, (1, 1), A) for i in range(3)]


def test_multiplication_and_hessian_ranks_share_no_path(monkeypatch):
    # the two sides that dual_fuzz compares: with the Berlekamp-Massey pass
    # refused, an algebra already built still answers every Jordan type and
    # multiplication rank; with the quotient builder refused, a fresh F
    # still answers every Hessian rank
    def refuse(name):
        def refused(*args):
            raise AssertionError(f"{name} run")

        return refused

    text = "X^5 + 3*X^2*Y^3 - Y^5"
    F = parse_poly(text)
    A = quotient(annihilator(F))
    directions = [(1, 0), (0, 1), (1, 1), (1, 2), (2, -3)]
    ells = [BivariatePoly.linear(a, b) for a, b in directions]
    hessian = [[hessian_rank_at(F, i, point) for i in range(3)] for point in directions]
    monkeypatch.setattr(polynomials, "_massey", refuse("Berlekamp-Massey pass"))
    types = [jordan_type(A, ell) for ell in ells]
    ranks = [[rank_mult_power(A, ell, i, 5 - i) for i in range(3)] for ell in ells]
    assert ranks == hessian and [str(T) for T in types] == ["6,3^2"] + ["6,4,2"] * 4
    with pytest.raises(AssertionError, match="Berlekamp-Massey pass run"):
        annihilator(parse_poly(text))
    monkeypatch.undo()
    monkeypatch.setattr(algebra, "_build", refuse("quotient builder"))
    G = parse_poly(text)
    assert [[hessian_rank_at(G, i, point) for i in range(3)] for point in directions] == hessian
    with pytest.raises(AssertionError, match="quotient builder run"):
        quotient(annihilator(G))


def test_one_berlekamp_massey_pass_per_direction(monkeypatch):
    # dual_data runs the pass over g, which is also the moved vector of x;
    # every other direction runs one pass, shared with its multiples
    passes = []
    massey = polynomials._massey

    def counting(s):
        passes.append(tuple(s))
        return massey(s)

    monkeypatch.setattr(polynomials, "_massey", counting)
    F = parse_poly("X^5 + 3*X^2*Y^3 - Y^5")
    g = polynomials.dual_data(F)[0]
    annihilator(F)
    assert passes == [g]
    for point in [(1, 0), (3, 0), (-1, 0), (1, 2), (2, 4), (-1, -2), (0, 1), (0, -3)]:
        for i in range(3):
            hessian_rank_at(F, i, point)
    assert passes == [g, passes[1], g[::-1]] and len(passes[1]) == len(g)
    assert polynomials.d_sequence(F, 2, 4) == polynomials.d_sequence(F, -1, -2)
    assert len(passes) == 3 and sorted(F._d_sequences) == [(0, 1), (1, 0), (1, 2)]
    with pytest.raises(ZeroForm):
        polynomials.d_sequence(F, 0, 0)


def test_dual_data_is_read_once_per_form_object(monkeypatch):
    # one dual-data computation covers annihilator(F) and every Hessian of F,
    # with or without an algebra, and no Hilbert function is validated for
    # them; another form object, equal or not, computes its own
    counted = {"dual": 0, "hilbert": 0}

    def counting(name, fn):
        def wrapper(*args):
            counted[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(polynomials, "divided_power_vector", counting("dual", polynomials.divided_power_vector))
    F = parse_poly("X^5 + 3*X^2*Y^3 - Y^5")
    A = quotient(annihilator(F))
    active = active_hessian_indices(HilbertFunction(A.hilbert))
    assert counted["dual"] == 1
    monkeypatch.setattr(partitions, "validate_ci_hilbert", counting("hilbert", partitions.validate_ci_hilbert))
    for point in [(1, 0), (0, 1), (1, 1), (1, 2)]:
        for i in active:
            assert hessian_rank_at(F, i, point, algebra=A) == hessian_rank_at(F, i, point)
    hessian_matrix(F, 1)
    hessian_matrix(F, 2, algebra=A)
    with pytest.raises(OrderOutOfRange):
        hessian_rank_at(F, 3, (1, 1))
    assert annihilator(F) == A.ideal
    assert counted == {"dual": 1, "hilbert": 0}
    # an equal form built apart, and a copy or pickled twin, which carry
    # no dual data, each read it again
    twins = [parse_poly("X^5 + 3*X^2*Y^3 - Y^5"), *copies(F)]
    for twin in twins:
        assert hessian_rank_at(twin, 1, (2, -3), algebra=A) == hessian_rank_at(F, 1, (2, -3))
    G = parse_poly("X^5 - Y^5")
    hessian_rank_at(G, 1, (1, 1))
    hessian_rank_at(G, 1, (1, 2), algebra=quotient(annihilator(G)))
    assert counted == {"dual": 2 + len(twins), "hilbert": 0}


def test_hessians_build_no_algebra(monkeypatch):
    # without an algebra the order range is read off F, so no quotient is
    # built: with the builder refusing, both still answer
    F = parse_poly("X^5 + 3*X^2*Y^3 - Y^5")
    A = quotient(annihilator(F))
    want = [hessian_rank_at(F, i, (1, 2), algebra=A) for i in range(3)]
    matrix = hessian_matrix(F, 2, algebra=A)

    def refuse(*args):
        raise AssertionError("algebra built")

    monkeypatch.setattr(algebra, "_build", refuse)
    G = parse_poly("X^5 + 3*X^2*Y^3 - Y^5")  # no dual data read yet
    assert [hessian_rank_at(G, i, (1, 2)) for i in range(3)] == want
    assert hessian_matrix(G, 2) == matrix
    with pytest.raises(OrderOutOfRange):
        hessian_matrix(G, 3)
    with pytest.raises(AssertionError, match="algebra built"):
        quotient(annihilator(G))


def test_hessian_ranks_agree_with_and_without_an_algebra():
    # the 104 seed-0 dual_fuzz forms in its four directions; the form asked
    # without an algebra is a pickled twin, so it reads its own dual data
    directions = ((1, 0), (0, 1), (1, 1), (1, 2))
    checked = 0
    for F in dual_fuzz_forms():
        A = quotient(annihilator(F))
        twin = copies(F)[2]
        for i in active_hessian_indices(HilbertFunction(A.hilbert)):
            for point in directions:
                assert hessian_rank_at(F, i, point, algebra=A) == hessian_rank_at(twin, i, point)
                checked += 1
    assert checked > 104 * 4 * 2


def test_every_spelling_of_a_point_gives_the_same_rank():
    # a tuple or list of two ints goes straight to linalg.primitive, any
    # other point through Fraction; both read the same primitive pair, and
    # the rank is that of multiplication by x + 2y, which the planted forms
    # drop at (1, 2)
    spellings = [(1, 2), (Fraction(1), 2), (2, 4), (-1, -2), [1, 2], (True, 2), (1.0, 2.0)]
    ell = BivariatePoly.linear(1, 2)
    checked = dropped = 0
    for F in dual_fuzz_forms() + power_sum_duals():
        A = quotient(annihilator(F))
        for i in active_hessian_indices(HilbertFunction(A.hilbert)):
            want = rank_mult_power(A, ell, i, A.socle_degree - i)
            dropped += want < i + 1
            for algebra in (None, A):
                for point in spellings:
                    assert hessian_rank_at(F, i, point, algebra=algebra) == want, (F, i, point)
                    checked += 1
    assert checked > 104 * 2 * 2 * len(spellings) and dropped == 3


def test_an_integer_point_needs_no_fraction(monkeypatch):
    F = parse_poly("X^5 + 3*X^2*Y^3 - Y^5")
    points = [(1, 2), [1, 2], (0, 1), (1, 0), (-3, 5), (6, -10)]
    want = [[hessian_rank_at(F, i, point) for i in range(3)] for point in points]

    def refuse(*args):
        raise AssertionError("Fraction built")

    monkeypatch.setattr(polynomials, "Fraction", refuse)
    assert [[hessian_rank_at(F, i, point) for i in range(3)] for point in points] == want
    # the patch is live: any other point still goes through Fraction
    for point in [(1.0, 2), (Fraction(1), 2), (True, 2), (1, 2, 0)]:
        with pytest.raises(AssertionError, match="Fraction built"):
            hessian_rank_at(F, 1, point)


@pytest.mark.parametrize(
    "F, error",
    [
        (BivariatePoly.zero(), ZeroInput),
        ("X^2*Y^3", ZeroInput),  # not a polynomial
        (parse_poly("X^2*Y^3+X*Y"), ParseError),
        (parse_poly("X^400"), BudgetExceeded),
    ],
    ids=["zero", "text", "not homogeneous", "over the cap"],
)
def test_hessians_without_an_algebra_refuse_a_bad_form(F, error):
    # the checks of annihilator, run by dual_data before any elimination
    with pytest.raises(error):
        hessian_rank_at(F, 1, (1, 1))
    with pytest.raises(error):
        hessian_matrix(F, 1)


@pytest.mark.parametrize("with_algebra", [False, True], ids=["no algebra", "algebra"])
def test_hessian_rank_at_order_out_of_range(with_algebra):
    F = parse_poly("X^2*Y^3")  # Ann(F) = (x^3, y^4): d = 3
    algebra = quotient(annihilator(F)) if with_algebra else None
    for i in (-1, 3):
        with pytest.raises(OrderOutOfRange):
            hessian_rank_at(F, i, (1, 1), algebra=algebra)


@pytest.mark.parametrize("order", ["1", 1.0, 1.5, None, Fraction(1)], ids=repr)
def test_a_hessian_order_that_is_no_integer_is_a_parse_error(order):
    # the order is read with operator.index, as generic_jordan_type refuses
    # a non-int order, never compared raw into a bare TypeError
    F = parse_poly("X^2*Y^3")
    for algebra in (None, quotient(annihilator(F))):
        with pytest.raises(ParseError, match="a Hessian order is an integer"):
            hessian_rank_at(F, order, (1, 1), algebra=algebra)
        with pytest.raises(ParseError, match="a Hessian order is an integer"):
            hessian_matrix(F, order, algebra=algebra)


def test_d_sequence_reads_its_point_as_hessian_rank_at_does():
    # one point reader, polynomials._direction: a float or Fraction point is
    # read exactly, and a point without rational coordinates is a
    # ParseError, in d_sequence as in hessian_rank_at
    F = parse_poly("X^5 + 3*X^2*Y^3 - Y^5")
    want = polynomials.d_sequence(F, 1, 2)
    assert polynomials.d_sequence(F, 0.5, 1) == polynomials.d_sequence(F, Fraction(1, 3), Fraction(2, 3)) == want
    assert [hessian_rank_at(F, i, (0.5, 1)) for i in range(3)] == [want[5 - 2 * i] for i in range(3)]
    for a, b in [("a", 1), (1, math.inf), (None, 1)]:
        with pytest.raises(ParseError, match="a point needs rational coordinates"):
            polynomials.d_sequence(F, a, b)
    with pytest.raises(ZeroForm):
        polynomials.d_sequence(F, 0.0, Fraction(0))


@pytest.mark.parametrize("with_algebra", [False, True], ids=["no algebra", "algebra"])
def test_hessian_rank_at_refuses_a_bad_point(with_algebra):
    # (0, 0) is no linear form, as rank_mult_power refuses the zero form;
    # a point has exactly two coordinates
    F = parse_poly("X^5 + 3*X^2*Y^3 - Y^5")
    algebra = quotient(annihilator(F)) if with_algebra else None
    for i in active_hessian_indices(T33):
        with pytest.raises(ZeroForm):
            hessian_rank_at(F, i, (0, 0), algebra=algebra)
        for point in [(1, 1, 0), (1,), ()]:
            with pytest.raises(ParseError):
                hessian_rank_at(F, i, point, algebra=algebra)


@pytest.mark.parametrize(
    "point",
    [("a", 1), (1, "a"), (math.nan, 1), (math.inf, 1), (1, -math.inf), (None, 1), (1j, 1), 5, None],
    ids=["letter", "second letter", "nan", "inf", "minus inf", "None", "complex", "int", "no point"],
)
def test_hessian_rank_at_refuses_a_point_without_rational_coordinates(monkeypatch, point):
    # a coordinate that Fraction cannot take is a ParseError, raised before
    # F is read, never a bare ValueError, OverflowError or TypeError
    def refuse(*args):
        raise AssertionError("F read")

    monkeypatch.setattr(hessians, "dual_data", refuse)
    with pytest.raises(ParseError, match="a point needs rational coordinates"):
        hessian_rank_at(parse_poly("X^5 + 3*X^2*Y^3 - Y^5"), 1, point)


TAMPERED_ALGEBRA = """
from jtlab.algebra import annihilator, quotient
from jtlab.hessians import hessian_matrix
from jtlab.polynomials import parse_poly
F = parse_poly("X^2*Y^3")
A = quotient(annihilator(F))
A.dim = lambda i: i  # dim A_1 = 1 below the generator degree
hessian_matrix(F, 1, algebra=A)
"""


def test_tampered_algebra_raises():
    F = parse_poly("X^2*Y^3")
    A = quotient(annihilator(F))
    A.dim = lambda i: i
    with pytest.raises(InternalInconsistency):
        hessian_matrix(F, 1, algebra=A)
    with pytest.raises(InternalInconsistency):
        hessian_rank_at(F, 1, (1, 1), algebra=A)


def test_tampered_algebra_raises_under_optimize():
    src = str(Path(jtlab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", TAMPERED_ALGEBRA],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 1
    assert "InternalInconsistency" in proc.stderr


def test_evaluate_matrix():
    F = parse_poly("X^2*Y^3")
    m = evaluate_matrix(hessian_matrix(F, 1), 1, 1)
    assert m == [[2, 6], [6, 6]]


# -- generic Jordan types ------------------------------------------------------------


def test_generic_jordan_types_d3_k1():
    T = HilbertFunction("1,2,3,2,1")
    assert generic_jordan_type(T, "sl") == Partition([5, 3, 1])
    assert generic_jordan_type(T, 1) == Partition([5, 2, 2])
    assert generic_jordan_type(T, 0) == Partition([4, 4, 1])
    with pytest.raises(TopRequiresKGe2):
        generic_jordan_type(T, "top")


def test_generic_jordan_types_d3_k2():
    assert generic_jordan_type(T33, "sl") == Partition([6, 4, 2])
    assert generic_jordan_type(T33, 1) == Partition([6, 3, 3])
    assert generic_jordan_type(T33, 0) == Partition([5, 5, 2])
    assert generic_jordan_type(T33, "top") == Partition([6, 4, 1, 1])


@pytest.mark.parametrize(
    "which, error",
    [(w, ParseError) for w in (1.7, True, False, "1", "x", None, 1.0)]
    + [(w, OrderOutOfRange) for w in (-1, 2, 3)],
)
def test_generic_jordan_type_refuses_a_bad_order(which, error):
    # a bool, a float or a numeric string is no order, though int() reads
    # one; an int order outside [0, d-2] is out of range
    with pytest.raises(error):
        generic_jordan_type(T33, which)


def test_generic_type_is_cijt_with_singleton_vanishing():
    for d, k in all_dk(6, 3):
        T = HilbertFunction.from_dk(d, k)
        active = frozenset(active_hessian_indices(T))
        for i in range(d - 1):
            P = generic_jordan_type(T, i)
            assert len(P) == d
            assert predicted_nonvanishing_set(P) == active - {i}
        if k >= 2:
            P = generic_jordan_type(T, "top")
            assert len(P) == d + k - 1
            assert predicted_nonvanishing_set(P) == active - {d - 1}
        assert generic_jordan_type(T, "sl") == sl_partition(T)
