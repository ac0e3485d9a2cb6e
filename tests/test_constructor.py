import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import jtlab
import reference_paths as ref
from jtlab import constructor
from jtlab.algebra import GradedIdeal, cell_generators, jordan_degree_type, jordan_type, quotient
from jtlab.codes import enumerate_cijt
from jtlab.constructor import Realization, construct_ci, realize_all, verify_realization
from jtlab.errors import InternalInconsistency, NotCIJT, ParseError
from jtlab.partitions import HilbertFunction, Partition
from jtlab.polynomials import BivariatePoly, parse_poly
from tests_support import assert_same_as_constructed, copies

ELL_X = BivariatePoly.linear(1, 0)


def test_chain_of_6222_with_zero_parameter():
    r = construct_ci(Partition("6,2^3"), lambda2=(0,))
    assert [f.text() for f in r.chain] == ["x^6", "x^2*y", "y^4 + x^4"]
    assert str(r) == "x^2*y, y^4 + x^4"


def test_chain_of_6222_with_free_parameter():
    alpha = Fraction(7, 2)
    r = construct_ci(Partition("6,2^3"), lambda2=(alpha,))
    f2, f3 = r.ideal.generators
    assert f2 == parse_poly("x^2*y + 7/2*x^3")
    assert f3 == parse_poly("y^4 + 7/2*x*y^3 + x^4")


def test_lambdas_stay_fractions_and_an_integral_chain_takes_ints(monkeypatch):
    # Lambda_2 is a tuple of Fractions however it is given; an integral one
    # runs the chain on int vectors, whose polynomials have int coefficients
    # only, and a true fraction in it stays a Fraction in the chain
    entries = set()
    vec_poly = constructor._vec_poly

    def recording(vec, n):
        entries.update(map(type, vec))
        return vec_poly(vec, n)

    monkeypatch.setattr(constructor, "_vec_poly", recording)
    P = Partition("11,9,7,2^4")
    for kwargs in ({}, {"seed": 2}, {"lambda2": (3,)}, {"lambda2": (Fraction(6, 2),)}, {"lambda2": ("3",)}):
        entries.clear()
        r = construct_ci(P, **kwargs)
        assert entries == {int}, kwargs
        assert type(r.lambdas) is tuple and [type(v) for v in r.lambdas] == [Fraction], kwargs
        assert all(type(c) is int for f in r.chain for c in f.terms.values()), kwargs
    assert construct_ci(P, lambda2=(3,)) == construct_ci(P, lambda2=(Fraction(3),))
    r = construct_ci(P, lambda2=(Fraction(1, 2),))
    assert r.lambdas == (Fraction(1, 2),) and type(r.lambdas[0]) is Fraction
    assert Fraction in {type(c) for f in r.chain for c in f.terms.values()}
    assert verify_realization(r).all_passed


def test_construct_rejects_wrong_lambda2_length_as_parse_error():
    # a_1 = 1 for 6,2^3; a ParseError is still a ValueError
    for lam in [(), (1, 2)]:
        with pytest.raises(ParseError, match="Lambda_2 must have length a_1 = 1"):
            construct_ci(Partition("6,2^3"), lambda2=lam)
    assert issubclass(ParseError, ValueError)


def test_realization_copy_and_pickle():
    r = construct_ci(Partition("8,5^2,1^2"), seed=4)
    for twin in copies(r):
        assert type(twin) is Realization and twin == r
        assert ref.degree_span(twin.ideal, 6) == ref.degree_span(r.ideal, 6)
        assert str(verify_realization(twin)) == str(verify_realization(r))


def test_rectangle_gives_monomial_ci():
    r = construct_ci(Partition("3^4"), seed=123)
    assert str(r) == "x^3, y^4"
    assert r.lambdas == ()


def test_construct_rejects_non_cijt():
    with pytest.raises(NotCIJT):
        construct_ci(Partition([2, 2, 1, 1]))


def test_construct_rejects_non_ci_shape_as_not_cijt():
    # diagonal lengths (1,2,3,3) are not those of a CI, so 3,3,2,1 is no CIJT
    with pytest.raises(NotCIJT, match="not of the form"):
        construct_ci(Partition("3,3,2,1"))


def test_verify_reference_example_passes():
    report = verify_realization(construct_ci(Partition("6,2^3"), lambda2=(0,)))
    assert report.all_passed
    names = [c.name for c in report.checks]
    assert names == [
        "complete_intersection",
        "hilbert_function",
        "jordan_type",
        "initial_ideal",
        "hessian_vanishing",
        "hessian_ranks",
    ]


def test_verify_strong_lefschetz_realization():
    r = construct_ci(Partition([6, 4, 2]), seed=5)
    report = verify_realization(r)
    assert report.all_passed
    A = quotient(r.ideal)
    assert jordan_type(A, ELL_X) == Partition([6, 4, 2])


def test_verify_tampered_ideal_fails_early():
    bad = Realization(
        partition=Partition("6,2^3"),
        hilbert=HilbertFunction("1,2,3,3,2,1"),
        ideal=GradedIdeal([parse_poly("x^2*y"), parse_poly("y^4")]),
    )
    report = verify_realization(bad)
    assert not report.all_passed
    assert report.first_failure().name == "complete_intersection"
    assert "not Artinian" in report.first_failure().observed


def test_realize_all_counts_and_passes():
    for hilbert, count in [("1,2,3,3,2,1", 8), ("1,2,2,1", 4), ("1,2,1", 2)]:
        results = realize_all(HilbertFunction(hilbert), seed=42)
        assert len(results) == count
        assert all(report.all_passed for _, _, report in results)


def test_realize_all_without_seed_has_zero_lambda():
    T = HilbertFunction("1,2,3,3,2,1")
    results = realize_all(T, seed=None)
    assert [P for P, _, _ in results] == enumerate_cijt(T)
    for P, realization, report in results:
        alpha_zero = construct_ci(P)
        assert str(realization) == str(alpha_zero)
        assert realization.lambdas == alpha_zero.lambdas
        assert not any(realization.lambdas)
        assert report.all_passed


def test_parameter_independence():
    # the Jordan type does not depend on the free parameters
    for parts in ("6,2^3", "5^2,1^2", "6,4,2"):
        P = Partition(parts)
        for seed in range(10):
            r = construct_ci(P, seed=seed)
            assert jordan_type(quotient(r.ideal), ELL_X) == P


def test_realizations_of_distinct_partitions_have_distinct_types():
    T = HilbertFunction("1,2,3,3,2,1")
    types = [
        jordan_type(quotient(construct_ci(P, seed=1).ideal), ELL_X)
        for P in enumerate_cijt(T)
    ]
    assert len(set(types)) == len(types)


def test_string_starts_of_realized_types():
    # the i-th string, of length p_i, begins in degree i-1
    for d, k in itertools.product(range(2, 5), range(1, 4)):
        T = HilbertFunction.from_dk(d, k)
        for P in enumerate_cijt(T):
            A = quotient(construct_ci(P, seed=3).ideal)
            jdt = jordan_degree_type(A, ELL_X)
            expected = {}
            for i, p in enumerate(P.parts):
                expected[(i, p)] = expected.get((i, p), 0) + 1
            assert dict(jdt.strings) == expected, (P,)


def test_generator_degrees_match_chain_bookkeeping():
    for parts in ("6,2^3", "6,4,2", "5^2,2", "17^2,13^2,8^3,4,1^2"):
        P = Partition(parts)
        r = construct_ci(P, seed=9)
        T = r.hilbert
        degs = sorted(g.homogeneous_degree() for g in r.ideal.generators)
        assert degs == [T.d, T.d + T.k - 1]


# every CIJT partition with 2 <= d <= 8 and 1 <= k <= 4
CIJT_UP_TO_8_4 = [
    P
    for d, k in itertools.product(range(2, 9), range(1, 5))
    for P in enumerate_cijt(HilbertFunction.from_dk(d, k))
]


def _assert_same_realization(P, lambda2):
    new, old = construct_ci(P, lambda2=lambda2), ref.construct_ci(P, lambda2=lambda2)
    assert [f.text() for f in new.chain] == [f.text() for f in old.chain], (P, lambda2)
    assert new.ideal.generators == old.ideal.generators, (P, lambda2)
    assert repr(new.lambdas) == repr(old.lambdas), (P, lambda2)
    assert new == old


def test_construct_matches_polynomial_product_reference():
    # the chain built and checked on coordinate vectors equals the one
    # built on Fraction tuples and checked by polynomial products, on all
    # 1778 partitions at a seeded integer Lambda_2 and at Lambda_2 = 0, and
    # on a sample with halves and thirds in Lambda_2
    assert len(CIJT_UP_TO_8_4) == 1778
    rng = random.Random(14)
    for P in CIJT_UP_TO_8_4:
        a1 = P.power_form[0][1]
        _assert_same_realization(P, tuple(rng.randint(-5, 5) for _ in range(a1)))
        _assert_same_realization(P, None)
    for P in rng.sample(CIJT_UP_TO_8_4, 300):
        a1 = P.power_form[0][1]
        lambda2 = tuple(Fraction(rng.randint(-9, 9), rng.choice((2, 3))) for _ in range(a1))
        _assert_same_realization(P, lambda2)


def test_construct_ci_ideal_equals_the_public_constructors():
    # the checked vectors' primitive rows go to GradedIdeal._from_rows; the
    # result is the ideal that GradedIdeal builds from f_t and f_(t+1), at
    # seed 1 and with halves and thirds in Lambda_2
    rng = random.Random(20)
    for P in CIJT_UP_TO_8_4:
        a1 = P.power_form[0][1]
        rational = tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(a1))
        for realization in (construct_ci(P, seed=1), construct_ci(P, lambda2=rational)):
            assert_same_as_constructed(realization.ideal)


def test_construct_ci_reads_no_row_back(monkeypatch):
    # no generator is read back through its Fraction coefficients; a
    # rectangle's monomial ideal still goes through GradedIdeal
    P = Partition("6,2^3")
    want = construct_ci(P, lambda2=(Fraction(7, 2),))

    def refuse(*args):
        raise AssertionError("a row read back")

    monkeypatch.setattr(jtlab.algebra, "_poly_vec", refuse)
    assert construct_ci(P, lambda2=(Fraction(7, 2),)) == want
    with pytest.raises(AssertionError, match="a row read back"):
        construct_ci(Partition("3^4"))


def test_fmt_monomials_matches_monomial_text():
    cells = {cell_generators(P) for P in CIJT_UP_TO_8_4}
    cells |= {((0, 0),), ((1, 0), (0, 1), (1, 1), (2, 3))}
    for gens in cells:
        expected = ", ".join(BivariatePoly.monomial(a, b).text() for a, b in gens)
        assert constructor._fmt_monomials(gens) == expected


def test_corrupted_recurrence_breaks_the_chain_relation(monkeypatch):
    # one wrong entry of one Lambda_(i+1), at every step and every
    # position, fails the relation that first uses f_(i+1): the one at
    # f_(i-1)
    P = Partition("17^2,13^2,8^3,4,1^2")
    t = len(P.power_form)
    original = constructor._next_lambda
    for step in range(t - 1):  # the step that makes Lambda_(step + 3)
        for pos in range(sum(n for _, n in P.power_form[: step + 2])):
            calls = []

            def corrupted(*args):
                out = original(*args)
                if len(calls) == step:
                    out[pos] += 1
                calls.append(args)
                return out

            monkeypatch.setattr(constructor, "_next_lambda", corrupted)
            with pytest.raises(
                InternalInconsistency, match=f"chain recurrence violated at f_{step + 1} of"
            ):
                construct_ci(P, seed=2)
    monkeypatch.setattr(constructor, "_next_lambda", original)
    assert verify_realization(construct_ci(P, seed=2)).all_passed


CORRUPTED_RECURRENCE = """
from jtlab import constructor
original = constructor._next_lambda

def corrupted(*args):
    out = original(*args)
    out[0] += 1
    return out

constructor._next_lambda = corrupted
constructor.construct_ci("6,4,2", seed=1)
"""


def test_corrupted_recurrence_raises_under_optimize():
    # the relation check guards the returned ideal, so python -O must not
    # strip it
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CORRUPTED_RECURRENCE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(jtlab.__file__).resolve().parents[1])},
        timeout=60,
    )
    assert proc.returncode == 1
    assert "InternalInconsistency: chain recurrence violated at f_1 of" in proc.stderr
