import copy
import inspect
import itertools
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import jtlab
import reference_paths as ref
from jtlab import algebra, linalg, partitions, polynomials
from jtlab.algebra import (
    MAX_DEGREE,
    GradedIdeal,
    _vec_poly,
    annihilator,
    cell_generators,
    initial_ideal,
    is_complete_intersection,
    jordan_degree_type,
    jordan_type,
    quotient,
    rank_mult_power,
)
from jtlab.codes import enumerate_cijt
from jtlab.constructor import construct_ci
from jtlab.errors import (
    BudgetExceeded,
    DegreeOutOfRange,
    InternalInconsistency,
    NotArtinian,
    NotCIShape,
    ParseError,
    ZeroForm,
    ZeroInput,
)
from jtlab.hessians import active_hessian_indices, hessian_rank_at
from jtlab.partitions import (
    HilbertFunction,
    Partition,
    diagonal_lengths,
    hilbert_function,
)
from jtlab.polynomials import BivariatePoly, catalecticant, contract, divided_power_vector, parse_poly
from tests_support import (
    assert_same_as_constructed,
    copies,
    dual_fuzz_forms,
    monomials,
    power_sum_duals,
    random_dual_generator,
)

X = BivariatePoly.monomial(1, 0)
Y = BivariatePoly.monomial(0, 1)
ELL_X = BivariatePoly.linear(1, 0)
ELL_Y = BivariatePoly.linear(0, 1)
ELL_XY = BivariatePoly.linear(1, 1)


def ideal(*texts):
    return GradedIdeal([parse_poly(t) for t in texts])


# -- polynomials and contraction ----------------------------------------------


def test_poly_parse_and_print():
    f = parse_poly("y^4 + x^4")
    assert f.text() == "y^4 + x^4"
    g = parse_poly("3/2*x*y^3")
    assert g.coefficient(1, 3) == Fraction(3, 2)
    assert g.text() == "3/2*x*y^3"
    assert parse_poly("x^2y") == parse_poly("x^2*y")
    assert parse_poly("2Y^3").coefficient(0, 3) == 2
    assert parse_poly("x - y").text() == "-y + x"
    assert parse_poly("0").is_zero()


@pytest.mark.parametrize(
    "text, want",
    [
        ("-x", {(1, 0): -1}),
        ("+x", {(1, 0): 1}),
        ("- x", {(1, 0): -1}),
        ("--x", "empty term in '--x'"),
        ("x-", "empty term in 'x-'"),
        ("x+-y", "empty term in 'x+-y'"),
        ("x^-2", "bad term 'x^-2' in 'x^-2'"),
        ("+", "empty term in '+'"),
        ("-", "empty term in '-'"),
        ("   ", "empty polynomial"),
    ],
)
def test_parse_poly_signs(text, want):
    # a sign before the first term is read as that term's sign; a doubled,
    # trailing or lone sign leaves an empty term, and a sign inside an
    # exponent is no sign at all but part of a bad term
    if isinstance(want, dict):
        assert parse_poly(text).terms == want
    else:
        with pytest.raises(ParseError) as info:
            parse_poly(text)
        assert type(info.value) is ParseError and str(info.value) == want


def _kinds(f):
    """The coefficient types of f, term by term in sorted order."""
    return [type(c) for _, c in f.sorted_terms()]


def test_integral_coefficients_are_ints_however_spelt():
    # ints, integral Fractions and a mix of both spell one polynomial: it
    # keeps every coefficient as an int, and the spellings compare, hash,
    # pickle and print alike, as does one with a true fraction spelt two ways
    ints = {(3, 0): 2, (1, 2): -1, (0, 3): 1}
    spellings = [
        ints,
        {key: Fraction(c) for key, c in ints.items()},
        {(3, 0): Fraction(4, 2), (1, 2): -1, (0, 3): Fraction(1)},
    ]
    f = BivariatePoly(ints)
    for terms in spellings:
        g = BivariatePoly(terms)
        assert _kinds(g) == [int, int, int]
        assert g == f and hash(g) == hash(f) and g.text() == "y^3 - x*y^2 + 2*x^3"
        assert pickle.dumps(g) == pickle.dumps(f)
        for twin in copies(g):
            assert twin == f and hash(twin) == hash(f) and _kinds(twin) == [int, int, int]
    mixed = {(0, 2): 5, (1, 1): Fraction(3, 2), (2, 0): Fraction(2)}
    g, h = BivariatePoly(mixed), BivariatePoly({key: Fraction(c) for key, c in mixed.items()})
    assert g == h and hash(g) == hash(h) and pickle.dumps(g) == pickle.dumps(h)
    assert g.text() == h.text() == "5*y^2 + 3/2*x*y + 2*x^2"
    assert _kinds(g) == _kinds(parse_poly(g.text())) == [int, Fraction, int]


def test_coefficient_is_an_int_unless_a_true_fraction():
    f = parse_poly("3/2*x*y + 4/2*x^2 - y^2")
    assert type(f.coefficient(1, 1)) is Fraction and f.coefficient(1, 1) == Fraction(3, 2)
    assert type(f.coefficient(2, 0)) is int and f.coefficient(2, 0) == 2
    assert type(f.coefficient(0, 2)) is int and f.coefficient(0, 2) == -1
    assert type(f.coefficient(5, 5)) is int and f.coefficient(5, 5) == 0
    assert type(parse_poly("3/2*x*y").coefficient(1, 1)) is Fraction
    assert parse_poly("3/2*x*y").coefficient(1, 1) == Fraction(3, 2)
    assert _kinds(BivariatePoly.linear(Fraction(6, 3), -1)) == [int, int]
    assert _kinds(BivariatePoly.monomial(2, 1, Fraction(1, 3))) == [Fraction]


def test_arithmetic_normalizes_its_result():
    # a product, sum or contraction whose coefficient comes out integral
    # stores an int, and a true fraction stays a Fraction
    half_x = BivariatePoly.monomial(1, 0, Fraction(1, 2))
    for f in (half_x * 2, 2 * half_x, half_x + half_x, half_x * BivariatePoly.monomial(0, 0, 2)):
        assert f.terms == {(1, 0): 1} and _kinds(f) == [int], f
    assert (half_x - half_x).is_zero()
    assert _kinds(-half_x) == [Fraction] and -half_x == BivariatePoly.monomial(1, 0, Fraction(-1, 2))
    assert (3 * X) * Fraction(1, 3) == X and _kinds((3 * X) * Fraction(1, 3)) == [int]
    assert _kinds(half_x**2) == [Fraction] and (2 * half_x) ** 3 == X**3
    F = parse_poly("1/2*X^2*Y + 1/6*X^3")
    assert contract(parse_poly("x"), F) == parse_poly("X*Y + 1/2*X^2")
    assert _kinds(contract(parse_poly("x"), F)) == [int, Fraction]
    assert _kinds(contract(parse_poly("x^3"), F)) == [int]


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 6), st.integers(0, 6)),
        st.fractions(min_value=-9, max_value=9, max_denominator=4),
        max_size=6,
    )
)
def test_poly_text_round_trip(terms):
    f = BivariatePoly(terms)
    assert parse_poly(f.text()) == f


def test_poly_repr_is_a_call_that_rebuilds_it():
    # BivariatePoly reads terms, not text, so repr is parse_poly's call
    for f in (
        BivariatePoly(),
        BivariatePoly({(0, 0): 7}),
        parse_poly("-x^2 + 3*x*y"),
        parse_poly("3/2*x*y^3 - 1/5*y"),
    ):
        assert eval(repr(f)) == f, repr(f)
        assert repr(f) == f"parse_poly({f.text()!r})"
    assert repr(parse_poly("x^2")) == "parse_poly('x^2')"
    with pytest.raises(ParseError):
        BivariatePoly("x^2")


def test_ideal_repr_is_a_call_that_rebuilds_it():
    # each generator is written as BivariatePoly's repr writes it
    I = ideal("x*y", "x^2 + y^2")
    assert repr(I) == "GradedIdeal([parse_poly('x*y'), parse_poly('y^2 + x^2')])"
    for J in (I, ideal("3/2*x^2", "-y^3"), annihilator(parse_poly("X^5 + 3*X^2*Y^3 - Y^5"))):
        assert eval(repr(J)) == J, repr(J)


def test_the_zero_polynomial_has_no_homogeneous_degree():
    with pytest.raises(ZeroInput, match="no homogeneous degree"):
        BivariatePoly().homogeneous_degree()


def test_contract_examples():
    F = parse_poly("X^2*Y^3")
    assert contract(parse_poly("x"), F) == parse_poly("2*X*Y^3")
    assert contract(parse_poly("x^3"), F).is_zero()
    assert contract(parse_poly("x^2*y^2"), F) == parse_poly("12*Y")


def test_contract_is_bilinear_module_action():
    F = parse_poly("X^5 + 3*X^2*Y^3 - Y^5")
    f = parse_poly("x^2 - 2*x*y")
    g = parse_poly("y^2 + x")
    assert contract(f * g, F) == contract(f, contract(g, F))


def test_divided_power_vector_is_the_top_contractions():
    rng = random.Random(5150)
    duals = [random_dual_generator(rng) for _ in range(20)] + power_sum_duals()
    for F in duals + [parse_poly("X^2*Y^3"), parse_poly("3/2*X^4")]:
        j = F.homogeneous_degree()
        values = [contract(BivariatePoly.monomial(j - m, m), F) for m in range(j + 1)]
        want = linalg.primitive([v.coefficient(0, 0) for v in values])
        assert divided_power_vector(F) == want
    assert divided_power_vector(parse_poly("X^2*Y^3")) == [0, 0, 0, 1, 0, 0]


# -- annihilator ----------------------------------------------------------------


def _reference_annihilator(F):
    """Ann(F) by the contraction path: the catalecticant built entry by
    entry with contract, its kernel taken over Fraction, and the generators
    split off with the Bareiss reference echelon."""
    j = F.homogeneous_degree()
    generators = []
    prev_kernel = []
    for i in range(j + 2):
        target = monomials(j - i) if i <= j else []
        images = [contract(BivariatePoly.monomial(a, b), F) for a, b in monomials(i)]
        rows = [[image.coefficient(*key) for image in images] for key in target]
        kernel = [linalg.primitive(vec) for vec in _fraction_kernel(rows, i + 1)]
        grown = ref.echelon(ref._shifts(prev_kernel))
        for vec in kernel:
            rest = ref.reduced_remainder(vec, *grown)
            if any(rest):
                generators.append(_vec_poly(linalg.primitive(rest), i))
                grown = ref.echelon(grown[1] + [vec])
        prev_kernel = kernel
    return GradedIdeal(generators)


def test_annihilator_matches_contraction_reference():
    rng = random.Random(20261018)
    duals = [random_dual_generator(rng, jmin=j, jmax=j) for j in range(4, 10) for _ in range(4)]
    duals += power_sum_duals() + [parse_poly("X^2*Y^3"), parse_poly("X^7"), parse_poly("Y^4")]
    for F in duals:
        got, want = annihilator(F), _reference_annihilator(F)
        assert str(got) == str(want)
        assert got.generators == want.generators


def test_annihilator_monomial_duals():
    assert str(annihilator(parse_poly("X^2*Y^3"))) == "x^3, y^4"
    assert str(annihilator(parse_poly("X*Y^2"))) == "x^2, y^3"


def test_annihilator_hilbert_function_of_cubic_sum():
    F = parse_poly("X+Y") ** 4 + parse_poly("X-Y") ** 4 + parse_poly("X+2Y") ** 4
    assert quotient(annihilator(F)).hilbert == (1, 2, 3, 2, 1)


def test_annihilator_is_a_ci_in_degrees_d_and_j_plus_2_minus_d():
    # the codimension-two structure theorem, checked through the quotient
    # and the generator count, which never look at the catalecticant
    rng = random.Random(1721)
    duals = [random_dual_generator(rng, jmin=1, jmax=12) for _ in range(40)]
    duals += power_sum_duals() + [(X + Y) ** j for j in range(1, 11)]
    duals += [X**a * Y ** (7 - a) for a in range(8)]
    for F in duals:
        j = F.homogeneous_degree()
        I = annihilator(F)
        A = quotient(I)
        d = max(A.hilbert)
        assert is_complete_intersection(A) == (True, (d, j + 2 - d)), F


@pytest.mark.parametrize("text", ["1", "-3/2"])
def test_annihilator_of_a_constant_is_the_maximal_ideal(text):
    I = annihilator(parse_poly(text))
    assert sorted(g.text() for g in I.generators) == ["x", "y"]
    A = quotient(I)
    assert A.hilbert == (1,)
    assert is_complete_intersection(A) == (True, (1, 1))


def test_degree_cap():
    # Ann(X^j) = (y, x^(j+1)) is refused once j + 1 passes the cap, and so
    # is a quotient with a generator past it, before any elimination
    assert str(annihilator(X ** (MAX_DEGREE - 1))) == f"y, x^{MAX_DEGREE}"
    with pytest.raises(BudgetExceeded, match="cap"):
        annihilator(X**MAX_DEGREE)
    assert quotient(GradedIdeal([Y, X**MAX_DEGREE])).hilbert == (1,) * MAX_DEGREE
    with pytest.raises(BudgetExceeded, match="cap"):
        quotient(GradedIdeal([Y, X ** (MAX_DEGREE + 1)]))


def test_annihilator_rejects_zero():
    with pytest.raises(ZeroInput):
        annihilator(BivariatePoly.zero())


@pytest.mark.parametrize("gens", [("1", "x"), ("2",), ("x^0", "y"), ("x^2", "-3/2")])
def test_ideal_refuses_unit_generator(gens):
    # a unit generates the whole ring, so R/I = 0 has no Jordan type
    with pytest.raises(ParseError, match="unit"):
        ideal(*gens)


@pytest.mark.parametrize(
    "gens, error, words",
    [([5], ParseError, "not a polynomial"), ([BivariatePoly()], ZeroInput, "zero generator")],
    ids=["5", "zero"],
)
def test_ideal_refuses_a_generator_that_is_no_nonzero_polynomial(gens, error, words):
    with pytest.raises(error, match=words):
        GradedIdeal(gens)


def test_annihilator_is_gorenstein_symmetric():
    rng = random.Random(4711)
    for _ in range(30):
        j = rng.randint(3, 8)
        terms = {
            (a, j - a): Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3]))
            for a in range(j + 1)
        }
        F = BivariatePoly(terms)
        if F.is_zero():
            continue
        H = quotient(annihilator(F)).hilbert
        assert H == tuple(reversed(H))


# -- quotient --------------------------------------------------------------------


def test_quotient_hilbert_functions():
    assert quotient(ideal("x^2", "y^3")).hilbert == (1, 2, 2, 1)
    assert quotient(ideal("x^3", "y^4")).hilbert == (1, 2, 3, 3, 2, 1)
    assert quotient(ideal("x^2*y", "y^4+x^4")).hilbert == (1, 2, 3, 3, 2, 1)


def test_quotient_not_artinian():
    with pytest.raises(NotArtinian):
        quotient(ideal("x^2"))
    with pytest.raises(NotArtinian):
        quotient(ideal("x^2*y", "y^4"))


# -- jordan type ------------------------------------------------------------------


def test_jordan_type_monomial_ci():
    A = quotient(ideal("x^2", "y^3"))
    assert jordan_type(A, ELL_Y) == Partition([3, 3])
    assert jordan_type(A, ELL_X) == Partition([2, 2, 2])
    assert jordan_type(A, ELL_XY) == Partition([4, 2])


def test_jordan_type_non_sl_directions():
    A = quotient(ideal("x*y", "x^3+y^3"))
    assert jordan_type(A, ELL_X) == Partition([4, 1, 1])
    B = quotient(annihilator(parse_poly("X^2*Y^3")))
    assert jordan_type(B, ELL_X) == Partition([3, 3, 3, 3])
    assert jordan_type(B, ELL_Y) == Partition([4, 4, 4])
    assert jordan_type(B, ELL_XY) == Partition([6, 4, 2])


def test_jordan_type_zero_form():
    A = quotient(ideal("x^2", "y^3"))
    with pytest.raises(ZeroForm):
        jordan_type(A, BivariatePoly.zero())


def test_block_count_equals_nullity():
    A = quotient(ideal("x^2*y", "y^4+x^4"))
    for ell in (ELL_X, ELL_Y, ELL_XY):
        P = jordan_type(A, ell)
        rank_m = sum(
            rank_mult_power(A, ell, u, u + 1) for u in range(A.socle_degree)
        )
        assert len(P) == A.dimension - rank_m


# -- rank of powers ---------------------------------------------------------------


def test_rank_mult_power_values():
    B = quotient(annihilator(parse_poly("X^2*Y^3")))
    # x^3 lies in Ann(X^2 Y^3), so multiplication by x^3 vanishes: the
    # strings of P_x = (3^4) start in degrees 0,1,2,3 and none covers both
    # degrees 1 and 4
    assert rank_mult_power(B, ELL_X, 1, 4) == 0
    A = quotient(ideal("x^2", "y^3"))
    assert rank_mult_power(A, ELL_XY, 0, 3) == 1
    for u in range(A.socle_degree + 1):
        assert rank_mult_power(A, ELL_XY, u, u) == A.dim(u)


def test_rank_mult_power_monotone_and_bounded():
    A = quotient(ideal("x^2*y", "y^4+x^4"))
    for ell in (ELL_X, ELL_XY):
        for u in range(A.socle_degree + 1):
            prev = None
            for s in range(u, A.socle_degree + 1):
                r = rank_mult_power(A, ell, u, s)
                assert r <= min(A.dim(u), A.dim(s))
                if prev is not None:
                    assert r <= prev
                prev = r


def test_an_algebra_answers_nothing_outside_its_degrees():
    # A = k[x,y]/(x^2, y^3) lives in degrees 0..3: past them, and for the
    # zero form, which has no degree, there is nothing to answer
    A = quotient(ideal("x^2", "y^3"))
    for i in (-1, A.socle_degree + 1, 99):
        assert A.dim(i) == 0 and A.basis(i) == [], i
    assert A.normal_form_vector(BivariatePoly()) == []
    assert A.normal_form_vector(parse_poly("x^4 + y^4")) == []


def test_rank_mult_power_range_check():
    A = quotient(ideal("x^2", "y^3"))
    with pytest.raises(DegreeOutOfRange):
        rank_mult_power(A, ELL_X, 2, 1)
    with pytest.raises(DegreeOutOfRange):
        rank_mult_power(A, ELL_X, 0, 9)


@pytest.mark.parametrize(
    "ell, error",
    [
        ([1, 0], ZeroForm),  # unhashable, so checked before the diagram lookup
        ("x", ZeroForm),
        (None, ZeroForm),
        (BivariatePoly({}), ZeroForm),
        (parse_poly("x^2"), ParseError),
        (parse_poly("x+1"), ParseError),
    ],
    ids=["list", "str", "None", "zero", "x^2", "x+1"],
)
def test_rank_mult_power_validates_ell_beside_a_cached_table(ell, error):
    A = quotient(ideal("x^2", "y^3"))
    assert rank_mult_power(A, ELL_X, 0, 1) == 1
    assert ELL_X in A._diagrams
    with pytest.raises(error):
        rank_mult_power(A, ell, 0, 1)


# -- jordan degree type -------------------------------------------------------------


def test_jordan_degree_type_strings():
    A = quotient(ideal("x^2", "y^3"))
    jdt = jordan_degree_type(A, ELL_X)
    assert dict(jdt.strings) == {(0, 2): 1, (1, 2): 1, (2, 2): 1}
    B = quotient(annihilator(parse_poly("X^2*Y^3")))
    jdt = jordan_degree_type(B, ELL_XY)
    assert dict(jdt.strings) == {(0, 6): 1, (1, 4): 1, (2, 2): 1}


def test_jordan_degree_type_gorenstein_symmetry():
    rng = random.Random(99)
    for _ in range(15):
        j = rng.randint(3, 7)
        F = BivariatePoly(
            {(a, j - a): Fraction(rng.randint(-9, 9)) for a in range(j + 1)}
        )
        if F.is_zero():
            continue
        A = quotient(annihilator(F))
        for ell in (ELL_X, ELL_XY):
            jdt = jordan_degree_type(A, ell)
            assert jdt.is_symmetric(A.socle_degree)
            assert jdt.coverage() == A.hilbert
            assert jdt.partition() == jordan_type(A, ell)


# -- initial ideals --------------------------------------------------------------


def test_initial_ideal_example():
    cell = initial_ideal(quotient(ideal("x^2*y", "y^4+x^4")), ELL_X)
    assert cell.generators == ((6, 0), (2, 1), (0, 4))
    assert cell.partition == Partition([6, 2, 2, 2])


def test_initial_ideal_monomial_fixed_point():
    cell = initial_ideal(quotient(ideal("x^2", "y^3")), ELL_X)
    assert cell.generators == ((2, 0), (0, 3))
    assert cell.partition == Partition([2, 2, 2])


def test_initial_ideal_standard_monomial_count_is_hilbert():
    I = ideal("x^2*y", "y^4+x^4")
    A = quotient(I)
    for ell in (ELL_X, ELL_Y, ELL_XY):
        cell = initial_ideal(quotient(I), ell)
        assert tuple(len(deg) for deg in cell.fill) == A.hilbert
        assert diagonal_lengths(cell.partition) == A.hilbert


def test_initial_ideal_generic_direction_is_strong_lefschetz():
    rng = random.Random(7)
    for gens in (("x^3", "y^4"), ("x^2*y", "y^4+x^4"), ("x^2", "y^3")):
        I = ideal(*gens)
        T = HilbertFunction(quotient(I).hilbert)
        r = Fraction(rng.randint(1, 9), rng.choice([1, 2, 3]))
        ell = BivariatePoly.linear(1, r)
        from jtlab.partitions import sl_partition

        assert initial_ideal(quotient(I), ell).partition == sl_partition(T)


def test_initial_ideal_agrees_with_jordan_type():
    I = ideal("x^2*y", "y^4+x^4")
    A = quotient(I)
    for a, b in [(1, 0), (0, 1), (1, 1), (2, -3), (1, 5)]:
        ell = BivariatePoly.linear(a, b)
        assert initial_ideal(quotient(I), ell).partition == jordan_type(A, ell)
        # a given algebra and a fresh quotient count the same moved ideal
        assert initial_ideal(A, ell) == initial_ideal(quotient(I), ell)


# -- complete intersection test ------------------------------------------------------


CI_CASES = [
    (("x^2*y", "y^4+x^4"), (True, (3, 4))),
    (("x*y", "x^3", "y^4"), (False, (2, 3, 4))),
    (("x^3", "y^4"), (True, (3, 4))),
    (("x^2", "x*y", "y^3"), (False, (2, 2, 3))),
    (("x^3", "x^2*y", "x*y^2", "y^3"), (False, (3, 3, 3, 3))),
    (("x^2", "y^2", "x*y"), (False, (2, 2, 2))),
    (("x*y", "x^3", "y^4", "x^2*y"), (False, (2, 3, 4))),
]


def test_is_complete_intersection():
    for gens, want in CI_CASES:
        I = ideal(*gens)
        assert is_complete_intersection(quotient(I)) == want
        assert ref.is_complete_intersection(I, algebra=quotient(I)) == want


def test_is_complete_intersection_reads_the_count_off_the_algebra(monkeypatch):
    # quotient counts the new generators while it builds each degree, so
    # given the algebra no elimination runs: not at x^2*y, which lies in
    # degree 3 beside x^3, nor at x^9, which lies past socle + 1 = 3
    I = ideal("x^2", "y^2", "x^3", "x^2*y", "x^9")
    A = quotient(I)

    def refuse(*args):
        raise AssertionError("the complete-intersection count eliminated")

    for name in ("rank", "insert", "remainder", "rref", "kernel_basis"):
        monkeypatch.setattr(linalg, name, refuse)
    assert is_complete_intersection(A) == (True, (2, 2))


def test_questions_about_an_algebra_take_the_algebra_alone():
    # no ideal is passed beside its algebra, so no ideal can disagree with
    # it: given (x^2, xy, y^3) and the algebra of (x^2, y^2), these once
    # answered (True, (2, 2)) and 2^2, the algebra's answers
    for fn in (initial_ideal, is_complete_intersection):
        assert "algebra" not in inspect.signature(fn).parameters, fn
    I, J = ideal("x^2", "x*y", "y^3"), ideal("x^2", "y^2")
    assert initial_ideal(quotient(I), X).partition == Partition("2,1^2")
    assert is_complete_intersection(quotient(I)) == (False, (2, 2, 3))
    assert initial_ideal(quotient(J), X).partition == Partition("2^2")
    assert is_complete_intersection(quotient(J)) == (True, (2, 2))


# -- copying and pickling ----------------------------------------------------------


def test_polynomial_and_ideal_copy_and_pickle():
    f = parse_poly("x^2*y + 7/2*x^3")
    I = ideal("x^2*y + 7/2*x^3", "y^4 + x^4", "x^9")
    for twin in copies(f):
        assert type(twin) is BivariatePoly and twin == f and hash(twin) == hash(f)
    for twin in copies(I):
        assert type(twin) is GradedIdeal and twin == I and hash(twin) == hash(I)
        assert all(ref.degree_span(twin, i) == ref.degree_span(I, i) for i in range(12))
    assert I != ideal("y^4 + x^4", "x^2*y + 7/2*x^3", "x^9")  # order counts
    A = quotient(I)
    for twin in copies(A):
        assert twin.ideal == I and twin.hilbert == A.hilbert


def test_polynomial_hash_is_kept_and_a_pickled_twin_hashes_equal():
    f = parse_poly("x^2*y + 7/2*x^3")
    fresh = parse_poly("x^2*y + 7/2*x^3")
    h = hash(f)
    assert hash(f) == h == hash(frozenset(f.terms.items()))
    # the kept hash is not part of the pickle, so a twin computes it again
    assert pickle.dumps(f) == pickle.dumps(fresh)
    twin = pickle.loads(pickle.dumps(f))
    assert twin == f and hash(twin) == h
    assert {f: "kept"}[twin] == "kept"
    assert f != parse_poly("x^2*y") and hash(parse_poly("x^2*y")) != h
    with pytest.raises(AttributeError):
        f._hash = 0


# -- fuzzed soundness -------------------------------------------------------------


def _random_artinian_ideal(rng):
    """Two generators of random degrees with random small rational
    coefficients, retried until Artinian.  Height d of the quotient <= 5."""
    while True:
        d1 = rng.randint(2, 5)
        d2 = rng.randint(d1, 6)
        gens = []
        for deg in (d1, d2):
            terms = {
                (a, deg - a): Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3]))
                for a in range(deg + 1)
            }
            g = BivariatePoly(terms)
            if g.is_zero():
                break
            gens.append(g)
        if len(gens) < 2:
            continue
        try:
            return GradedIdeal(gens), quotient(GradedIdeal(gens))
        except NotArtinian:
            continue


def test_diagonal_lengths_of_jordan_type_equal_hilbert_function():
    rng = random.Random(20260811)
    for _ in range(25):
        I, A = _random_artinian_ideal(rng)
        for a, b in [(1, 0), (0, 1), (1, 1), (1, 2)]:
            P = jordan_type(A, BivariatePoly.linear(a, b))
            assert diagonal_lengths(P) == A.hilbert


def test_monomial_cells_realize_their_partition():
    # multiplication by x on R/(E_Q) has Jordan type exactly Q
    from tests_support import partitions_of

    checked = 0
    for n in range(1, 13):
        for parts in partitions_of(n):
            Q = Partition(parts)
            I = GradedIdeal(
                [BivariatePoly.monomial(a, b) for a, b in cell_generators(Q)]
            )
            assert jordan_type(quotient(I), ELL_X) == Q
            checked += 1
    rng = random.Random(5)
    for _ in range(20):
        parts = sorted(
            (rng.randint(1, 8) for _ in range(rng.randint(1, 6))), reverse=True
        )
        if sum(parts) > 30:
            continue
        Q = Partition(parts)
        I = GradedIdeal([BivariatePoly.monomial(a, b) for a, b in cell_generators(Q)])
        assert jordan_type(quotient(I), ELL_X) == Q
        checked += 1
    assert checked > 100


def _brute_force_jordan_type(A, ell):
    """Assemble the full matrix of multiplication by ell on A, scaled to
    integers, and read the block sizes off the ranks of its literal matrix
    powers."""
    basis = [(i, mono) for i in range(A.socle_degree + 1) for mono in A.basis(i)]
    index = {b: t for t, b in enumerate(basis)}
    n = len(basis)
    M = [[Fraction(0)] * n for _ in range(n)]
    for col, (i, (a, b)) in enumerate(basis):
        if i + 1 > A.socle_degree:
            continue
        image = A.normal_form_vector(ell * BivariatePoly.monomial(a, b))
        for coeff, mono in zip(image, A.basis(i + 1)):
            M[index[(i + 1, mono)]][col] = coeff
    scale = math.lcm(*(v.denominator for row in M for v in row))
    M = [[int(v * scale) for v in row] for row in M]  # same ranks of powers

    def matmul(P, Q):
        out = []
        for row in P:
            acc = [0] * n
            for t, v in enumerate(row):
                if v:
                    acc = [x + v * w for x, w in zip(acc, Q[t])]
            out.append(acc)
        return out

    ranks = [n]
    power = M
    while linalg.rank(power) > 0:
        ranks.append(linalg.rank(power))
        power = matmul(power, M)
    ranks.append(0)
    parts = []
    for s in range(1, len(ranks)):
        ge_s = ranks[s - 1] - ranks[s]
        ge_next = ranks[s] - ranks[s + 1] if s + 1 < len(ranks) else 0
        parts.extend([s] * (ge_s - ge_next))
    return Partition(sorted(parts, reverse=True))


# -- rank tables against the slow exact path --------------------------------------


def _fraction_rref(rows, ncols):
    """Gauss-Jordan elimination over Fraction: the reference for linalg.rref."""
    work = [[Fraction(v) for v in row] for row in rows if any(row)]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = 1 / work[r][c]
        work[r] = [v * inv for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [v - f * w for v, w in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return pivots, work[: len(pivots)]


def _fraction_kernel(rows, ncols):
    pivots, reduced = _fraction_rref(rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for prow, pc in zip(reduced, pivots):
            vec[pc] = -prow[fc]
        basis.append(vec)
    return basis


def _reference_ranks(I, ell, j):
    """{(u, s): rank of ell^(s-u): A_u -> A_s} for 0 <= u <= s <= j, one pair
    at a time: the Fraction RREF of each degree of I built from polynomial
    products, the normal form of ell^(s-u) * m for every standard monomial m
    of degree u, then linalg.rank of those columns."""

    def coords(f, n):
        return [f.coefficient(a, b) for a, b in monomials(n)]

    echelons = []
    for i in range(j + 1):
        span = [
            coords(BivariatePoly.monomial(a, b) * g, i)
            for g in I.generators
            if g.homogeneous_degree() <= i
            for a, b in monomials(i - g.homogeneous_degree())
        ]
        pivots, reduced = _fraction_rref(span, i + 1)
        std = [t for t in range(i + 1) if t not in pivots]
        echelons.append((pivots, reduced, std))

    ranks = {}
    for u in range(j + 1):
        for s in range(u, j + 1):
            pivots, reduced, std = echelons[s]
            power = ell ** (s - u)
            columns = []
            for key, mono in enumerate(monomials(u)):
                if key not in echelons[u][2]:
                    continue
                vec = coords(power * BivariatePoly.monomial(*mono), s)
                for prow, pc in zip(reduced, pivots):
                    if vec[pc]:
                        factor = vec[pc]
                        vec = [v - factor * w for v, w in zip(vec, prow)]
                columns.append([vec[t] for t in std])
            rows = [list(c) for c in zip(*columns)]
            ranks[(u, s)] = linalg.rank(rows) if columns else 0
    return ranks


DIRECTIONS = [(1, 0), (0, 1), (1, 1), (1, 2)]


def _rank_table_cases():
    rng = random.Random(20260811)
    cases = [("degenerate x on (x^2, y^3)", ideal("x^2", "y^3"), [(1, 0)])]
    for n in range(6):
        cases.append((f"random CI {n}", _random_artinian_ideal(rng)[0], DIRECTIONS))
    for n in range(6):
        F = random_dual_generator(rng, jmin=4, jmax=8)
        cases.append((f"random dual {n}", annihilator(F), DIRECTIONS))
    power_sum = parse_poly("X+Y") ** 5 + parse_poly("X-Y") ** 5 + parse_poly("X") ** 5
    cases.append(("power-sum dual", annihilator(power_sum), DIRECTIONS))
    cases.append(("monomial dual", annihilator(parse_poly("X^2*Y^3")), DIRECTIONS))
    return cases


RANK_TABLE_CASES = _rank_table_cases()


def test_jordan_type_matches_full_matrix_power_ranks():
    # fixed and random ideals, every rank-table case in its directions, and
    # the non-generic strata of x on the Lambda_2 = 0 realization of every
    # CIJT with d <= 5, k <= 3
    rng = random.Random(271828)
    fixtures = [
        ideal("x^2", "y^3"),
        ideal("x*y", "x^3+y^3"),
        ideal("x^2*y", "y^4+x^4"),
        ideal("x*y", "x^3", "y^4"),
    ]
    fixtures += [_random_artinian_ideal(rng)[0] for _ in range(6)]
    cases = [(quotient(I), [(1, 0), (0, 1), (1, 1), (1, -2)]) for I in fixtures]
    cases += [(quotient(I), directions) for _, I, directions in RANK_TABLE_CASES]
    for d, k in itertools.product(range(1, 6), range(1, 4)):
        for P in enumerate_cijt(HilbertFunction.from_dk(d, k)):
            A = quotient(construct_ci(P).ideal)
            assert jordan_type(A, ELL_X) == P
            cases.append((A, [(1, 0)]))
    assert len(cases) == 10 + len(RANK_TABLE_CASES) + 155
    for A, directions in cases:
        for a, b in directions:
            ell = BivariatePoly.linear(a, b)
            assert jordan_type(A, ell) == _brute_force_jordan_type(A, ell)
            assert jordan_degree_type(A, ell).coverage() == A.hilbert


@pytest.mark.parametrize(
    "I, directions",
    [case[1:] for case in RANK_TABLE_CASES],
    ids=[case[0] for case in RANK_TABLE_CASES],
)
def test_rank_table_matches_per_pair_reference(I, directions):
    A = quotient(I)
    j = A.socle_degree
    for a, b in directions:
        ell = BivariatePoly.linear(a, b)
        want = _reference_ranks(I, ell, j)
        got = {(u, s): rank_mult_power(A, ell, u, s) for u, s in want}
        assert got == want


# -- exact linear algebra ------------------------------------------------------------


@given(
    st.lists(
        st.lists(
            st.fractions(
                min_value=-9, max_value=9, max_denominator=3
            ),
            min_size=4,
            max_size=4,
        ),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=200)
def test_rank_matches_rref(rows):
    pivots, _ = linalg.rref(rows, 4)
    assert linalg.rank(rows) == len(pivots)


def test_kernel_basis_is_a_kernel():
    rows = [
        [Fraction(2), Fraction(1), Fraction(0), Fraction(-1)],
        [Fraction(4), Fraction(2), Fraction(1), Fraction(0)],
    ]
    for vec in linalg.kernel_basis(rows, 4):
        for row in rows:
            assert sum(r * v for r, v in zip(row, vec)) == 0


@given(
    st.integers(1, 6).flatmap(
        lambda ncols: st.lists(
            st.lists(
                st.fractions(min_value=-9, max_value=9, max_denominator=3)
                | st.just(Fraction(0)),
                min_size=ncols,
                max_size=ncols,
            ),
            max_size=7,
        ).map(lambda rows: (rows, ncols))
    ),
    st.lists(st.integers(-2, 2), max_size=7),
)
@settings(max_examples=300)
def test_rref_and_kernel_match_fraction_gauss_jordan(shaped, mix):
    rows, ncols = shaped
    # append combinations of earlier rows so rank deficiency is common
    for n, c in enumerate(mix):
        if len(rows) >= 2:
            rows.append([v + c * w for v, w in zip(rows[n % len(rows)], rows[-1])])
    assert linalg.rref(rows, ncols) == _fraction_rref(rows, ncols)
    assert linalg.kernel_basis(rows, ncols) == _fraction_kernel(rows, ncols)
    assert linalg.rank(rows) == len(_fraction_rref(rows, ncols)[0])


def _dependent_rows(rows, mix):
    """rows, then row m + c * row n for each (m, n, c) of mix: a repeat for
    c = 0, a zero row for m = n and c = -1, otherwise a combination of
    earlier rows."""
    for m, n, c in mix:
        if rows:
            first, second = rows[m % len(rows)], rows[n % len(rows)]
            rows.append([v + c * w for v, w in zip(first, second)])
    return rows


INTEGER_MATRICES = st.integers(1, 7).flatmap(
    lambda ncols: st.lists(
        st.lists(st.integers(-30, 30) | st.just(0), min_size=ncols, max_size=ncols),
        max_size=7,
    )
)
MIXES = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(-2, 2)), max_size=7
)


def _monic_row(ncols):
    """A row whose first nonzero entry is 1, as a monic generator's is."""
    return st.integers(0, ncols - 1).flatmap(
        lambda zeros: st.lists(
            st.integers(-30, 30), min_size=ncols - zeros - 1, max_size=ncols - zeros - 1
        ).map(lambda tail: [0] * zeros + [1] + tail)
    )


# rows whose new pivot entry p is often 1, so extend keeps untouched rows
MONIC_MATRICES = st.integers(1, 7).flatmap(
    lambda ncols: st.lists(_monic_row(ncols), max_size=7)
)


@given(st.one_of(INTEGER_MATRICES, MONIC_MATRICES), MIXES)
@settings(max_examples=300)
def test_extend_folded_over_rows_matches_echelon(rows, mix):
    rows = _dependent_rows(rows, mix)
    form = ([], [], 1)
    for row in rows:
        before = copy.deepcopy(form)
        grown = ref.extend(form, row)
        assert form == before  # the input lists are not changed
        assert (grown is form) == (len(grown[0]) == len(form[0]))
        form = grown
    assert ref.extend_echelon(rows) == form
    pivots, reduced, lead = form
    want_pivots, want, want_lead = ref.echelon(rows)
    assert pivots == want_pivots
    # the same reduced row echelon form over Q, with lead its least
    # common denominator
    assert [[Fraction(v, lead) for v in row] for row in reduced] == [
        [Fraction(v, want_lead) for v in row] for row in want
    ]
    assert lead > 0 and math.gcd(lead, *(v for row in reduced for v in row)) == 1


@given(st.one_of(INTEGER_MATRICES, MONIC_MATRICES), MIXES)
@settings(max_examples=300)
def test_extend_shares_untouched_rows_and_changes_no_earlier_form(rows, mix):
    rows = _dependent_rows(rows, mix)
    given_rows = copy.deepcopy(rows)
    forms, copies_of_forms = [([], [], 1)], [([], [], 1)]
    for row in rows:
        form = forms[-1]
        pivots, old_rows, lead = form
        grown = ref.extend(form, row)
        if grown is not form:
            rest = ref.reduced_remainder(row, *form)
            c = next(c for c, v in enumerate(rest) if v)
            p = abs(rest[c]) // math.gcd(*rest)
            new_pivots, new_rows, new_lead = grown
            if p == 1 and new_lead == lead:  # p = 1 and no content divided out
                for pc, old in zip(pivots, old_rows):
                    if not old[c]:
                        assert new_rows[new_pivots.index(pc)] is old
        forms.append(grown)
        copies_of_forms.append(copy.deepcopy(grown))
    # no later extend call changed a list of an earlier form, or a given row
    assert forms == copies_of_forms
    assert rows == given_rows


def test_extend_makes_lead_positive_on_a_bareiss_form():
    # Bareiss leaves a negative lead here; one extend makes it positive
    form = ref.echelon([[0, -3, 1], [2, 0, 0]])
    assert form[2] < 0
    pivots, rows, lead = ref.extend(form, [0, 0, 5])
    assert (pivots, rows, lead) == ([0, 1, 2], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1)


@given(INTEGER_MATRICES, MIXES)
@settings(max_examples=300)
def test_insert_matches_echelon(rows, mix):
    rows = _dependent_rows(rows, mix)
    basis = {}
    for r, row in enumerate(rows):
        before_row, before_basis = list(row), copy.deepcopy(basis)
        key = linalg.insert(basis, row)
        assert row == before_row  # vec is not changed
        # stored rows are not changed, and a key is added exactly when the
        # rank grows
        assert {c: basis[c] for c in before_basis} == before_basis
        pivots = ref.echelon(rows[: r + 1])[0]
        assert (key is not None) == (len(pivots) > len(before_basis))
        assert sorted(basis) == pivots
        if key is not None:
            assert set(basis) == set(before_basis) | {key}
    for c, stored in basis.items():
        # primitive, with its first nonzero entry, positive, at its key
        assert stored == linalg.primitive(stored)
        assert next(t for t, v in enumerate(stored) if v) == c
        assert stored[c] > 0
    assert linalg.rank(rows) == len(basis) == len(ref.echelon(rows)[0])

    def entry(r, t, v):
        den = (1 + r % 3) * (1 + t % 2)  # a row scale times a column scale
        return v if den == 1 else Fraction(v, den)

    # Fraction rows, some mixed with int entries, through rank: scaling rows
    # and columns changes no rank
    scaled = [[entry(r, t, v) for t, v in enumerate(row)] for r, row in enumerate(rows)]
    before = copy.deepcopy(scaled)
    assert linalg.rank(scaled) == len(basis)
    assert scaled == before


@given(st.one_of(INTEGER_MATRICES, MONIC_MATRICES), MIXES, st.data())
@settings(max_examples=300)
def test_remainder_reduces_against_a_forward_only_basis(rows, mix, data):
    # rest is zero at every key, and rest / scale is the remainder modulo
    # the reduced echelon form of the reference, for int vectors and for
    # Fraction vectors, some mixed with int entries; vec is not changed
    rows = _dependent_rows(rows, mix)
    ncols = len(rows[0]) if rows else data.draw(st.integers(1, 7))
    ints = data.draw(st.lists(st.integers(-30, 30), min_size=ncols, max_size=ncols))
    fractions = [v if t % 2 else Fraction(v, 1 + t % 3) for t, v in enumerate(ints)]
    basis = {}
    for row in rows:
        linalg.insert(basis, row)
    pivots, reduced, lead = ref.echelon(rows)
    for vec in (ints, fractions):
        before = copy.deepcopy(vec)
        rest, scale = linalg.remainder(basis, vec)
        assert vec == before
        assert scale > 0 and all(rest[c] == 0 for c in basis)
        want = ref.reduced_remainder(vec, pivots, reduced, lead)
        assert [Fraction(v) / scale for v in rest] == [Fraction(v) / lead for v in want]


@pytest.mark.parametrize("j, bits", [(30, 512), (49, 1024)])
def test_insert_keeps_dense_middle_catalecticant_rows_short(j, bits):
    # the forward-only rows divide minors of the input: 373 bits at most at
    # j = 30 and 867 at j = 49, under the Bareiss leads of 432 and 967
    # bits; coefficient growth past that fails here
    g = divided_power_vector(random_dual_generator(random.Random(0), j, j))
    i = j // 2
    rows = [[g[v + i - t] for t in range(i + 1)] for v in range(j - i + 1)]
    basis = {}
    for row in rows:
        linalg.insert(basis, linalg.primitive(row))
    pivots, _, lead = ref.echelon([linalg.primitive(row) for row in rows])
    assert sorted(basis) == pivots
    longest = max(abs(v).bit_length() for row in basis.values() for v in row)
    assert longest < bits
    assert longest <= abs(lead).bit_length()


def test_catalecticant_rows_are_new_lists_of_the_hankel_entries():
    # rows stay lists of their own, since extend may keep a given row
    for g in (tuple(range(1, 8)), list(range(-3, 7)), (5,), [0, 2]):
        for i in range(len(g)):
            rows = catalecticant(g, i)
            assert rows == [[g[v + i - t] for t in range(i + 1)] for v in range(len(g) - i)]
            assert all(type(row) is list and row is not g for row in rows)
            assert len({id(row) for row in rows}) == len(rows)


def _dual_forms():
    """The 104 seed-0 dual_fuzz forms and dense forms of degree 16, 30 and
    49."""
    return dual_fuzz_forms() + [random_dual_generator(random.Random(0), j, j) for j in (16, 30, 49)]


def test_rank_clears_only_rows_with_a_fraction():
    # every rank, of integer rows, scaled or not, and of rows of Fractions,
    # is the Bareiss rank of the reference; and insert stores the same
    # primitive rows from raw scaled rows as from cleared ones
    primitive = linalg.primitive
    rng = random.Random(20)
    checked = 0
    for F in _dual_forms():
        g = divided_power_vector(F)
        for i in range(len(g)):
            rows = catalecticant(g, i)
            want = len(ref.echelon(rows)[0])
            scaled = [[c * v for v in row] for row in rows for c in [rng.choice((-6, -1, 2, 35))]]
            assert linalg.rank(rows) == linalg.rank(scaled) == want, (F, i)
            fractions = [[Fraction(v, c) for v in row] for row in rows for c in [rng.choice((1, 3, -4))]]
            assert linalg.rank(fractions) == want, (F, i)
            raw, cleared = {}, {}
            for row, vec in zip(scaled, rows):
                linalg.insert(raw, row)
                linalg.insert(cleared, primitive(vec))
            assert raw == cleared
            checked += 1
    assert checked == sum(j + 1 for j in (4, 5, 6, 7, 7, 8, 9, 9)) * 13 + 17 + 31 + 50


def test_annihilator_ideal_equals_the_public_constructors():
    # annihilator hands its primitive rows to GradedIdeal._from_rows; the
    # result is the ideal that GradedIdeal builds from the generators
    for F in _dual_forms() + power_sum_duals():
        assert_same_as_constructed(annihilator(F))


def test_annihilator_reads_no_row_back(monkeypatch):
    # no generator of Ann(F) is read back through its Fraction coefficients
    def refuse(*args):
        raise AssertionError("a row read back")

    F = parse_poly("X^4*Y^3 + 2*X^7 - 3*Y^7 + X*Y^6")
    want = annihilator(parse_poly("X^4*Y^3 + 2*X^7 - 3*Y^7 + X*Y^6"))
    monkeypatch.setattr(algebra, "_poly_vec", refuse)
    assert annihilator(F) == want
    with pytest.raises(AssertionError, match="a row read back"):
        GradedIdeal(want.generators)


def test_rank_only_questions_build_no_reduced_form(monkeypatch):
    # the moved diagram, the initial ideal, the Hessian ranks and the
    # complete-intersection count read only ranks or pivots, so they run on
    # linalg.insert alone, in every direction
    F = parse_poly("X^4*Y^3 + 2*X^7 - 3*Y^7 + X*Y^6")
    J = annihilator(F)
    A = quotient(J)
    I = ideal("x^2*y", "y^4+x^4", "x*y^3")
    B = quotient(I)

    def refuse(*args):
        raise AssertionError("a rank-only question built a reduced form")

    for name in ("remainder", "rref", "kernel_basis"):
        monkeypatch.setattr(linalg, name, refuse)
    for a, b in [(1, 0), (0, 1), (1, 1), (1, -2)]:
        ell = BivariatePoly.linear(a, b)
        assert jordan_type(A, ell).size == A.dimension
        for K, C in ((J, A), (I, B)):
            assert diagonal_lengths(initial_ideal(C, ell).partition) == C.hilbert
        for i in active_hessian_indices(HilbertFunction(A.hilbert)):
            assert hessian_rank_at(F, i, (a, b), algebra=A) == rank_mult_power(
                A, ell, i, A.socle_degree - i
            )
    assert is_complete_intersection(B) == (False, (3, 4, 4))


def _rank_table_algebras():
    """(ideal, algebra) pairs: a complete intersection, Ann(F) and a
    non-Gorenstein quotient."""
    ideals = [
        ideal("x^2*y", "y^4+x^4"),
        annihilator(parse_poly("X^4*Y^3 + 2*X^7 - 3*Y^7 + X*Y^6")),
        ideal("x*y", "x^3", "y^4"),
    ]
    return [(I, quotient(I)) for I in ideals]


def test_rank_questions_in_x_run_no_elimination(monkeypatch):
    # for ell a multiple of x nothing moves: the diagram and the initial
    # ideal are read off the standard monomials that the quotient already holds
    algebras = _rank_table_algebras()

    def refuse(*args):
        raise AssertionError("a question in x eliminated")

    for name in ("rank", "insert", "remainder", "rref", "kernel_basis"):
        monkeypatch.setattr(linalg, name, refuse)
    for I, A in algebras:
        for ell in (ELL_X, BivariatePoly.linear(2, 0), BivariatePoly.linear(-1, 0)):
            assert jordan_degree_type(A, ell).coverage() == A.hilbert
            assert rank_mult_power(A, ell, 0, 1) == min(A.hilbert[:2])
            cell = initial_ideal(A, ell)
            assert diagonal_lengths(cell.partition) == A.hilbert


def test_one_moved_pass_per_form(monkeypatch):
    # jordan_degree_type, initial_ideal and a rank about one form share one
    # pass of the builder over the moved generators; x and 3x need none, and
    # each other form gets its own pass, multiples included.  The algebras
    # are built before the builder is counted, and each pass is named by the
    # primitive direction whose moved rows it was given.
    algebras = _rank_table_algebras()
    passes = []
    build = algebra._build

    def counting(rows, top):
        passes.append(rows)
        return build(rows, top)

    monkeypatch.setattr(algebra, "_build", counting)
    for I, A in algebras:
        passes.clear()
        for a, b in [(1, 0), (0, 1), (1, 1), (2, -3), (-2, 3), (0, -5), (3, 0)]:
            ell = BivariatePoly.linear(a, b)
            jordan_degree_type(A, ell)
            initial_ideal(A, ell)
            rank_mult_power(A, ell, 0, 1)
        moved = {
            (a, b): [(e, algebra._moved(vec, a, b)) for e, vec in I._rows]
            for a, b in [(0, 1), (1, 1), (2, -3)]
        }
        named = [ab for got in passes for ab, rows in moved.items() if rows == got]
        assert named == [(0, 1), (1, 1), (2, -3), (2, -3), (0, 1)], I


def test_a_second_question_about_a_form_runs_no_build(monkeypatch):
    # the diagram kept under a form answers every later question about it,
    # and an equal form built again finds it: one moved pass per form, and
    # the form is checked and its direction read only on the first
    # question, initial_ideal's too, which reads the diagram kept for it
    I = ideal("x^2*y", "y^4+x^4")
    A = quotient(I)
    counts = dict.fromkeys(("_build", "require_linear", "_direction"), 0)

    def counting(name):
        fn = getattr(algebra, name)

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    for name in counts:
        monkeypatch.setattr(algebra, name, counting(name))
    for ell in (ELL_X, ELL_XY, BivariatePoly.linear(2, -3)):
        P = jordan_type(A, ell)
        first = {"_build": int(ell != ELL_X), "require_linear": 1, "_direction": 1}
        assert counts == first, (ell, counts)
        ranks = [rank_mult_power(A, ell, 0, s) for s in range(A.socle_degree + 1)]
        assert jordan_type(A, ell) is P and jordan_degree_type(A, ell).coverage() == A.hilbert
        assert [rank_mult_power(A, ell, 0, s) for s in range(A.socle_degree + 1)] == ranks
        twin = parse_poly(str(ell))
        assert twin is not ell and jordan_type(A, twin) is P
        assert counts == first, (ell, counts)
        assert initial_ideal(A, ell).partition is P
        assert counts == first, (ell, counts)
        counts.update(dict.fromkeys(counts, 0))


def test_an_algebra_keeps_one_diagram_store():
    # the diagrams kept under forms are the algebra's one store of moved
    # standard monomials: no second store keyed by direction, and no
    # direction reader of algebra's own beside polynomials._direction
    A = quotient(ideal("x^2*y", "y^4+x^4"))
    jordan_type(A, ELL_XY)
    assert not hasattr(A, "_standard") and not hasattr(A, "_moved_std")
    assert list(A._diagrams) == [ELL_XY]
    assert algebra._direction is polynomials._direction


# -- the degree-by-degree build and the diagram's partition -------------------------


def _build_ideals():
    """The CI_CASES ideals, Ann(F) for the first 16 forms of the dual_fuzz
    workload, and the realization of 6,4,2 that `realize 6,4,2 --seed 3`
    builds."""
    ideals = [ideal(*gens) for gens, _ in CI_CASES]
    ideals += [annihilator(F) for F in dual_fuzz_forms()[:16]]
    return ideals + [construct_ci(Partition("6,4,2"), seed=3).ideal]


def _recorded_builds(monkeypatch, I):
    """Every call of algebra._build that quotient(I), jordan_type in each
    direction of DIRECTIONS and normal_form_vector of a dense form of each
    degree through the socle make, as (rows, a deep copy of rows taken
    before the call, top, the result)."""
    build, calls = algebra._build, []

    def recording(rows, top):
        before = copy.deepcopy(rows)
        out = build(rows, top)
        calls.append((rows, before, top, out))
        return out

    monkeypatch.setattr(algebra, "_build", recording)
    A = quotient(I)
    for a, b in DIRECTIONS:
        jordan_type(A, BivariatePoly.linear(a, b))
    for i in range(A.socle_degree + 1):
        A.normal_form_vector(_vec_poly(list(range(1, i + 2)), i))
    monkeypatch.undo()
    # quotient, the three directions that move and one normal form a degree
    assert len(calls) == 1 + 3 + A.socle_degree + 1
    return calls


def test_the_build_changes_no_row_it_is_given(monkeypatch):
    # _build shifts its kept rows in place and stores a free x-shift as it
    # stands, but every row it keeps is a list of its own: neither the
    # ideal's rows nor the moved rows it is given change
    for I in _build_ideals():
        rows = copy.deepcopy(I._rows)
        for given, before, _, _ in _recorded_builds(monkeypatch, I):
            assert given == before, I
        assert I._rows == rows


def test_the_build_equals_inserting_every_shift(monkeypatch):
    # storing an x-shift whose lead is free as it stands, and starting at
    # the lowest generator degree, give the same standard monomials,
    # generator degrees and basis, row for row, as inserting every shift;
    # each row is primitive, leads positive at its key and has the length
    # of the last degree built
    for I in _build_ideals():
        for _, before, top, out in _recorded_builds(monkeypatch, I):
            assert out == ref.insert_build(before, top), I
            std, _, basis = out
            for c, row in basis.items():
                assert row == linalg.primitive(row) and len(row) == len(std)
                assert next(t for t, v in enumerate(row) if v) == c and row[c] > 0


def test_a_monomial_quotient_inserts_only_its_generators(monkeypatch):
    # every x-shift of (x^4, y^5) leads at a free column through degree 8,
    # where I is everything, so only the two generators go through insert
    insert, inserted = linalg.insert, []

    def counting(basis, vec):
        inserted.append(list(vec))
        return insert(basis, vec)

    monkeypatch.setattr(linalg, "insert", counting)
    A = quotient(ideal("x^4", "y^5"))
    assert inserted == [[0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 0]]
    assert A.hilbert == (1, 2, 3, 4, 4, 3, 2, 1)


def test_insert_stores_a_reduced_row_without_a_second_gcd(monkeypatch):
    # a row that a step has reduced is primitive already: it is stored, or
    # negated, with no gcd of the whole row; the caller's row is copied
    basis = {0: [1, 2, 3], 1: [0, 2, 1]}
    gcds = []
    gcd = math.gcd

    def counting(*args):
        gcds.append(len(args))
        return gcd(*args)

    monkeypatch.setattr(linalg.math, "gcd", counting)
    assert linalg.insert(basis, [2, 4, 5]) == 2  # reduces to [0, 0, -1]
    monkeypatch.undo()
    assert basis[2] == [0, 0, 1]
    assert gcds == [2, 3]  # one step: the pair, then the content
    vec = [0, 0, 0, 6]
    basis = {}
    assert linalg.insert(basis, vec) == 3 and basis[3] == [0, 0, 0, 1]
    vec = [0, 1]
    assert linalg.insert(basis, vec) == 1 and basis[1] == vec and basis[1] is not vec


def test_a_direction_keeps_one_trusted_jordan_type(monkeypatch):
    # _diagram builds the Jordan type once per form: the same object on
    # every call, equal to a partition parsed from its text in ==, hash,
    # str, repr and pickle.  When the Hilbert function is CI-shaped it
    # carries the algebra's HilbertFunction, validated once per algebra;
    # otherwise it carries nothing, and hilbert_function still refuses it
    validate, validated = partitions.validate_ci_hilbert, []

    def counting(T):
        validated.append(T)
        return validate(T)

    carried = 0
    for I in _build_ideals():
        A = quotient(I)
        monkeypatch.setattr(partitions, "validate_ci_hilbert", counting)
        validated.clear()
        types = []
        for a, b in DIRECTIONS:
            ell = BivariatePoly.linear(a, b)
            P = jordan_type(A, ell)
            assert jordan_type(A, ell) is P and A._diagram(ell)[1] is P
            assert initial_ideal(A, ell).partition is P
            types.append(P)
        assert len(validated) == 1  # on the first direction, for the algebra
        monkeypatch.undo()
        for P in types:
            Q = Partition(str(P))
            assert (P == Q, hash(P), str(P), repr(P)) == (True, hash(Q), str(Q), repr(Q))
            assert pickle.dumps(P) == pickle.dumps(Q)
            assert diagonal_lengths(Partition(P.parts)) == A.hilbert
            try:
                T = HilbertFunction(A.hilbert)
            except NotCIShape:
                assert P._hilbert is None
                with pytest.raises(NotCIShape):
                    hilbert_function(P)
            else:
                assert P._hilbert == HilbertFunction(diagonal_lengths(Partition(P.parts))) == T
                assert P._hilbert is types[0]._hilbert
                carried += 1
    # (x^3, x^2*y, x*y^2, y^3) and (x^2, y^2, x*y) alone have Hilbert
    # functions that are not CI-shaped: (1, 2, 3) and (1, 2)
    assert carried == 4 * (len(_build_ideals()) - 2)


TAMPERED_MOVE = """
from jtlab import algebra
from jtlab.polynomials import parse_poly
A = algebra.quotient(algebra.GradedIdeal([parse_poly("x^2*y"), parse_poly("y^4+x^4")]))
algebra._moved = lambda vec, a, b: [0] * (len(vec) - 1) + [1]  # every generator to x^e
algebra.jordan_type(A, parse_poly("x+y"))
"""


def test_a_tampered_moved_hilbert_function_raises(monkeypatch):
    # a change of coordinates keeps the Hilbert function, so a moved pass
    # that does not is refused, for the Jordan type and the initial ideal
    I = ideal("x^2*y", "y^4+x^4")
    A = quotient(I)
    monkeypatch.setattr(algebra, "_moved", lambda vec, a, b: [0] * (len(vec) - 1) + [1])
    with pytest.raises(InternalInconsistency, match="Hilbert function"):
        jordan_type(A, ELL_XY)
    with pytest.raises(InternalInconsistency, match="Hilbert function"):
        initial_ideal(quotient(I), ELL_Y)
    assert jordan_type(A, ELL_X) == initial_ideal(A, ELL_X).partition


def test_a_moved_ideal_short_of_everything_past_the_socle_raises(monkeypatch):
    # the moved pass runs through degree j + 1, where the moved ideal must
    # be everything; a pass that keeps the Hilbert function through j but
    # leaves a standard monomial in degree j + 1 is refused as a differing
    # Hilbert function is, never with NotArtinian
    A = quotient(ideal("x^2*y", "y^4+x^4"))
    build = algebra._build

    def leaving_one(rows, top):
        std, degrees, basis = build(rows, top)
        return [*std[:-1], [0]], degrees, basis

    monkeypatch.setattr(algebra, "_build", leaving_one)
    with pytest.raises(InternalInconsistency, match="Hilbert function"):
        jordan_type(A, ELL_XY)


def test_a_tampered_moved_hilbert_function_raises_under_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", TAMPERED_MOVE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(jtlab.__file__).resolve().parents[1])},
        timeout=60,
    )
    assert proc.returncode == 1
    assert "InternalInconsistency" in proc.stderr and "Hilbert function" in proc.stderr


# standard monomials per degree, as x-exponents, with the Hilbert function
# (1, 2, 3, 3, 2, 1) of (x^2*y, y^4+x^4) but no Ferrers diagram: x^5 in the
# socle past a row y^0 of length 3, and rows of lengths 3, 4, 4, 1
NO_FERRERS_DIAGRAM = {
    "socle past a short row": [[0], [0, 1], [0, 1, 2], [0, 1, 2], [0, 1], [5], []],
    "rows that grow": [[0], [0, 1], [0, 1, 2], [0, 1, 2], [2, 3], [3], []],
}

TAMPERED_DIAGRAM = """
from jtlab import algebra
from jtlab.errors import InternalInconsistency
from jtlab.polynomials import parse_poly
I = algebra.GradedIdeal([parse_poly("x^2*y"), parse_poly("y^4+x^4")])
ell = parse_poly("x+y")
for std in {stds!r}:
    A = algebra.quotient(I)
    algebra._build = lambda rows, top, std=std: (std, (), {{}})
    for ask in (
        lambda: algebra.jordan_type(A, ell),
        lambda: algebra.rank_mult_power(A, ell, 0, 1),
        lambda: algebra.initial_ideal(A, ell),
    ):
        try:
            ask()
        except InternalInconsistency as exc:
            print(type(exc).__name__, exc)
""".format(stds=list(NO_FERRERS_DIAGRAM.values()))


@pytest.mark.parametrize("std", NO_FERRERS_DIAGRAM.values(), ids=NO_FERRERS_DIAGRAM)
def test_a_moved_set_that_is_no_ferrers_diagram_raises(monkeypatch, std):
    # the tampered moved pass keeps the Hilbert function, so _diagram takes
    # it, but it fills no Ferrers diagram: the Jordan type, a rank and the
    # initial ideal each refuse it, and nothing is kept, so asking again
    # raises again
    I = ideal("x^2*y", "y^4+x^4")
    A = quotient(I)
    monkeypatch.setattr(algebra, "_build", lambda rows, top: (std, (), {}))
    for ask in (
        lambda: jordan_type(A, ELL_XY),
        lambda: rank_mult_power(A, ELL_XY, 0, 1),
        lambda: initial_ideal(A, ELL_XY),
    ):
        with pytest.raises(InternalInconsistency, match="Ferrers diagram"):
            ask()
    assert ELL_XY not in A._diagrams
    with pytest.raises(InternalInconsistency, match="Ferrers diagram"):
        jordan_type(A, ELL_XY)
    assert jordan_type(A, ELL_X) == Partition([6, 2, 2, 2])


def test_a_moved_set_that_is_no_ferrers_diagram_raises_under_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", TAMPERED_DIAGRAM],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(jtlab.__file__).resolve().parents[1])},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3 * len(NO_FERRERS_DIAGRAM), proc.stdout
    assert all(line.startswith("InternalInconsistency") and "Ferrers" in line for line in lines)


# tampers of the Berlekamp-Massey pass that dual_data runs, as the source of
# a function of its result (lengths, C, B, m), each with a dual generator
# and the words its InternalInconsistency names; X^5 + 3*X^2*Y^3 - Y^5 has
# d = 3 < e = 4, and X^2*Y^2 has d = e = 3
TAMPERED_PASSES = {
    "C off by one": (
        "X^5 + 3*X^2*Y^3 - Y^5",
        "lambda lengths, C, B, m: (lengths, C[:-1] + [C[-1] + 1], B, m)",
        "zero or does not annihilate",
    ),
    "shift off by one": (
        "X^5 + 3*X^2*Y^3 - Y^5",
        "lambda lengths, C, B, m: (lengths, C, B, m + 1)",
        "degrees 3 and 5 off the Berlekamp-Massey pass, not 3 and 4",
    ),
    "second in the ideal of the first": (
        "X^5 + 3*X^2*Y^3 - Y^5",
        "lambda lengths, C, B, m: (lengths, C, C, len(lengths) + 3 - 2 * len(C))",
        "no generator in degree 4",
    ),
    "two equal generators of equal degree": (
        "X^2*Y^2",
        "lambda lengths, C, B, m: (lengths, C, C, 0)",
        "zero or does not annihilate",
    ),
}

TAMPERED_PASS = """
from jtlab import algebra, polynomials
from jtlab.errors import InternalInconsistency
from jtlab.polynomials import parse_poly
massey = polynomials._massey
for text, tamper, _ in {tampers!r}:
    polynomials._massey = lambda s, tamper=eval(tamper): tamper(*massey(s))
    try:
        algebra.annihilator(parse_poly(text))
    except InternalInconsistency as exc:
        print(type(exc).__name__, exc)
""".format(tampers=list(TAMPERED_PASSES.values()))


@pytest.mark.parametrize("case", TAMPERED_PASSES.values(), ids=TAMPERED_PASSES)
def test_a_tampered_berlekamp_massey_pass_raises(monkeypatch, case):
    # each generator read off the pass must fit its degree, be nonzero and
    # annihilate F, and the second must be nonzero modulo the shifts of the
    # first; the untampered pass gives the reference's generators
    text, tamper, words = case
    massey = polynomials._massey
    want = ref.two_kernel_annihilator(parse_poly(text)).generators
    assert annihilator(parse_poly(text)).generators == want
    monkeypatch.setattr(polynomials, "_massey", lambda s: eval(tamper)(*massey(s)))
    with pytest.raises(InternalInconsistency, match=words):
        annihilator(parse_poly(text))


def test_a_tampered_berlekamp_massey_pass_raises_under_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", TAMPERED_PASS],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(jtlab.__file__).resolve().parents[1])},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(TAMPERED_PASSES), proc.stdout
    for line, (_, _, words) in zip(lines, TAMPERED_PASSES.values()):
        assert line.startswith("InternalInconsistency") and words in line, line


INEXACT_DIVISION = "import reference_paths; reference_paths._divide_exact([6, 7], 2)"


def test_inexact_division_raises():
    with pytest.raises(InternalInconsistency):
        ref._divide_exact([6, 7], 2)
    assert ref._divide_exact([6, -8], 2) == [3, -4]


def test_inexact_division_raises_under_optimize():
    # reference_paths beside this file imports jtlab from src
    pythonpath = os.pathsep.join(
        [str(Path(jtlab.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", INEXACT_DIVISION],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
        timeout=60,
    )
    assert proc.returncode == 1
    assert "InternalInconsistency" in proc.stderr
