"""Explicit realization of a CIJT partition P: a complete intersection
ideal I = (f_t, f_(t+1)) with Hilbert function the diagonal lengths of P,
Jordan type P_x = P, and initial ideal the monomial cell of P.

The chain f_1, ..., f_(t+1) is built by the coefficient recurrence
Lambda_(i+1) = (Lambda_i, 0^(n_i)) + (0^(n_(i-1)+n_i-1), 1, Lambda_(i-1)),
starting from f_1 = x^(p_1) and a free parameter vector Lambda_2 of length
a_1; each f_i has leading term x^(p_i) y^(a_(i-1)) and the relation
f_(i-1) = x^(p_i - p_(i+1)) f_(i+1) - f_i y^(n_i) holds by construction,
which makes (f_t, f_(t+1)) generate the whole chain.

Each f_i is held as its coordinate vector, as in the algebra module, so
multiplying by a monomial is a shift; the relation is checked on these
vectors on every call, and the returned polynomials are built from the
vectors that passed the check.  The ideal takes those vectors' primitive
rows as they are, through GradedIdeal._from_rows.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import (
    GradedIdeal,
    _vec_poly,
    cell_generators,
    initial_ideal,
    is_complete_intersection,
    jordan_type,
    quotient,
    rank_mult_power,
)
from .codes import enumerate_cijt, is_cijt
from .errors import InternalInconsistency, NotArtinian, NotCIJT, NotCIShape, _rationals, _Value
from .hessians import _hessian_columns, nonvanishing_set, predicted_rank_profile
from .linalg import primitive
from .partitions import HilbertFunction, Partition, format_caret_list, hilbert_function
from .polynomials import BivariatePoly, _monomial_text

__all__ = [
    "Realization",
    "RealizationReport",
    "Check",
    "construct_ci",
    "verify_realization",
    "realize_all",
]

_ELL_X = BivariatePoly.linear(1, 0)

# The names of verify_realization's six checks, (a)-(f), in report order.
_CHECKS = (
    "complete_intersection",
    "hilbert_function",
    "jordan_type",
    "initial_ideal",
    "hessian_vanishing",
    "hessian_ranks",
)


class Realization(_Value):
    """A constructed complete intersection realizing a Jordan type."""

    __slots__ = ("partition", "hilbert", "ideal", "chain", "lambdas")

    def __init__(
        self,
        partition: Partition,
        hilbert: HilbertFunction,
        ideal: GradedIdeal,
        chain: tuple = (),
        lambdas: tuple = (),
    ):
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "hilbert", hilbert)
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "chain", chain)
        object.__setattr__(self, "lambdas", lambdas)  # Lambda_2, the free parameters

    def __str__(self):
        return str(self.ideal)


def _next_lambda(lam, lam_prev, n_prev, n):
    """Lambda_(i+1) = (Lambda_i, 0^(n_i)) + (0^(n_(i-1)+n_i-1), 1, Lambda_(i-1))
    for lam = Lambda_i and lam_prev = Lambda_(i-1), adding only where the
    second summand is not padding."""
    out = list(lam) + [0] * n
    start = n_prev + n - 1
    out[start] += 1
    for m, v in enumerate(lam_prev, start + 1):
        out[m] += v
    return out


def _draw_lambda2(rng, a1):
    """a1 integers drawn uniformly from -5..5 off rng, in order: a random
    Lambda_2 of length a1."""
    return tuple(rng.randint(-5, 5) for _ in range(a1))


def construct_ci(P, lambda2=None, seed=None):
    """Build the chain and the ideal (f_t, f_(t+1)) for a CIJT partition.

    Free parameters: lambda2 explicitly, or drawn uniformly from the
    integers -5..5 with the given seed; default is the all-zero vector.
    An explicit lambda2 is read by errors._rationals: a str, a
    non-iterable, a length other than a_1, or an entry that is a bool or
    that Fraction cannot read exactly (text that is no number, NaN, an
    infinity) raises ParseError.
    A single-rectangle partition (t = 1) has no relation step and gives the
    monomial ideal (x^(p_1), y^(n_1)) directly.  Raises NotCIJT when P is
    not a CIJT, also when its diagonal lengths are not CI-shaped.

    Each f_i is held as its coordinate vector [0]*p_i + [1, *Lambda_i],
    entry m the coefficient of x^m y^(deg f_i - m).  An integral entry of
    Lambda_2 enters the chain as an int, so with an integral Lambda_2 the
    chain, its check and the generators take no Fraction arithmetic; the
    returned lambdas are Lambda_2 as Fractions either way.  After the degree
    check, the relation f_(i-1) = x^(p_i - p_(i+1)) f_(i+1) - f_i y^(n_i)
    is checked on these vectors, where multiplying by x^m prepends m zeros
    and by y^n appends n; a failure raises InternalInconsistency.  The
    returned chain and ideal are built from the checked vectors: the
    ideal's rows are primitive(vec) of the last two, handed to
    GradedIdeal._from_rows with f_t and f_(t+1).
    """
    P = Partition(P)
    try:
        T = hilbert_function(P)
    except NotCIShape as exc:
        raise NotCIJT(f"{P} is not a CIJT partition: {exc}") from exc
    if not is_cijt(P):
        raise NotCIJT(f"{P} fails the equality criterion")
    pf = P.power_form
    t = len(pf)
    prefix = [0]
    for _, n_i in pf:
        prefix.append(prefix[-1] + n_i)  # prefix[i] = a_i

    if t == 1:
        f1 = BivariatePoly.monomial(pf[0][0], 0)
        f2 = BivariatePoly.monomial(0, pf[0][1])
        return Realization(
            partition=P,
            hilbert=T,
            ideal=GradedIdeal([f1, f2]),
            chain=(f1, f2),
            lambdas=(),
        )

    a1 = prefix[1]
    if lambda2 is None:
        lambda2 = (0,) * a1 if seed is None else _draw_lambda2(random.Random(seed), a1)
    length = f"Lambda_2 must have length a_1 = {a1}"
    lambda2 = _rationals(lambda2, a1, "Lambda_2 must be a sequence of rationals", length)

    lam = {1: (), 2: lambda2}
    for i in range(2, t + 1):
        n_i = pf[i - 1][1]
        n_prev = pf[i - 2][1]
        if not len(lam[i]) + n_i == n_prev + n_i + len(lam[i - 1]) == prefix[i]:
            raise InternalInconsistency(f"Lambda_{i + 1} summands of {P} are not of length a_{i}")
        lam[i + 1] = _next_lambda(lam[i], lam[i - 1], n_prev, n_i)

    p = [None] + [pi for pi, _ in pf] + [0]  # p[1..t+1], 1-based
    vecs = [None] + [[0] * p[i] + [1, *lam[i]] for i in range(1, t + 2)]
    for i in range(2, t + 1):
        # degree bookkeeping and the two-term relation of the chain
        if p[i - 1] + prefix[i - 2] != p[i] + prefix[i]:
            raise InternalInconsistency(f"f_{i - 1} and f_{i + 1} of {P} differ in degree")
        shifted = [0] * (p[i] - p[i + 1]) + vecs[i + 1]  # x^(p_i - p_(i+1)) f_(i+1)
        padded = vecs[i] + [0] * pf[i - 1][1]  # f_i y^(n_i)
        difference = [u - v for u, v in zip(shifted, padded)]
        if len(shifted) != len(padded) or difference != vecs[i - 1]:
            raise InternalInconsistency(f"chain recurrence violated at f_{i - 1} of {P}")

    chain = tuple(_vec_poly(vec, len(vec) - 1) for vec in vecs[1:])
    # Lambda_2 may be rational, so the ideal's rows are the vectors cleared
    rows = [(len(vec) - 1, primitive(vec)) for vec in vecs[t : t + 2]]
    return Realization(
        partition=P,
        hilbert=T,
        ideal=GradedIdeal._from_rows(rows, chain[t - 1 : t + 1]),
        chain=chain,
        lambdas=tuple(map(Fraction, lambda2)),
    )


class Check(_Value):
    """One named check of a realization: whether it passed, and what was
    expected and observed, as text."""

    __slots__ = ("name", "passed", "expected", "observed")

    def __init__(self, name: str, passed: bool, expected: str, observed: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "observed", observed)


class RealizationReport(_Value):
    """The checks that verify_realization ran on a realization, in order."""

    __slots__ = ("checks",)

    def __init__(self, checks: tuple):
        object.__setattr__(self, "checks", checks)

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def first_failure(self):
        return next((c for c in self.checks if not c.passed), None)

    def as_dict(self):
        return {
            c.name: {"passed": c.passed, "expected": c.expected, "observed": c.observed}
            for c in self.checks
        }

    def __str__(self):
        lines = []
        for c in self.checks:
            mark = "ok" if c.passed else "FAIL"
            lines.append(f"[{mark:4}] {c.name}: expected {c.expected}, observed {c.observed}")
        return "\n".join(lines)


def verify_realization(realization):
    """Run the six exact checks tying the ideal to its Jordan type.

    (a) complete intersection with generator degrees (d, d+k-1);
    (b) Hilbert function equals the diagonal lengths of P;
    (c) Jordan type of multiplication by x equals P;
    (d) initial ideal in the x direction has the monomial cell generators;
    (e) Hessian nonvanishing set equals the partial-sum prediction;
    (f) multiplication ranks match the predicted rank profile.
    Failures are recorded in the report, never raised.

    Checks (a)-(e) each go through one rule: a wanted and an observed
    value pass when they are equal, and one show function prints both;
    (d)'s writes each monomial with polynomials._monomial_text, the writer
    behind BivariatePoly.text.
    Two generators of the wanted degrees make a complete intersection, so
    (a) compares the degrees alone.  Check (f) is the one with its own
    text: the count of predicted ranks, and every mismatch.  A quotient
    that is not Artinian fails all six with its reason, and a Hilbert
    function other than T skips (e) and (f).

    The predicted set of (e) is predicted_nonvanishing_set(P) read off the
    rank profile of (f) by hessians._hessian_columns, the rule that
    nonvanishing_set applies to the quotient's ranks, so the prediction is
    asked once and both sides of (e) are read by one rule.

    Checks (c) and (d) read one diagram, the Ferrers diagram of the
    quotient's standard monomials (x needs no move), as do the ranks of (e)
    and (f).  test_jordan_degree_type_is_one_string_per_row_of_the_moved_diagram
    in tests/test_reference_paths.py cross-checks it against the Bareiss
    reference's rank table, on every benchmark realization among others.
    """
    P = realization.partition
    T = realization.hilbert
    want_degs = (T.d, T.d + T.k - 1)

    try:
        A = quotient(realization.ideal)
    except NotArtinian as exc:
        expected = (f"degrees {want_degs}", str(T), str(P), "", "", "")
        return RealizationReport(
            tuple(
                Check(name, False, exp, f"not Artinian ({exc})")
                for name, exp in zip(_CHECKS, expected)
            )
        )

    def check(name, want, got, show=str):
        return Check(name, want == got, show(want), show(got))

    checks = [
        check(
            "complete_intersection",
            want_degs,
            is_complete_intersection(A)[1],
            lambda degs: f"{len(degs)} generators of degrees {degs}",
        ),
        check("hilbert_function", T.values, A.hilbert, format_caret_list),
        check("jordan_type", P, jordan_type(A, _ELL_X)),
        check(
            "initial_ideal",
            cell_generators(P),
            initial_ideal(A, _ELL_X).generators,
            lambda gens: ", ".join(_monomial_text(a, b) for a, b in gens),
        ),
    ]
    if A.hilbert != T.values:
        reason = "skipped: wrong Hilbert function"
        checks += [Check(name, False, "CI Hilbert function", reason) for name in _CHECKS[4:]]
        return RealizationReport(tuple(checks))

    profile = predicted_rank_profile(P)
    checks.append(
        check(
            "hessian_vanishing",
            frozenset(_hessian_columns(hilbert_function(P), lambda u, s: profile[u, s])[1]),
            nonvanishing_set(A, _ELL_X),
            lambda S: f"nonvanishing {sorted(S)}",
        )
    )
    mismatches = {
        us: (rk, got)
        for us, rk in sorted(profile.items())
        if (got := rank_mult_power(A, _ELL_X, *us)) != rk
    }
    checks.append(
        Check(
            "hessian_ranks",
            not mismatches,
            f"{len(profile)} predicted ranks",
            f"mismatches at {mismatches}" if mismatches else "all match",
        )
    )
    return RealizationReport(tuple(checks))


def realize_all(T, seed=0):
    """One realization and report per CIJT partition of T.  Each Lambda_2 is
    drawn from one random.Random(seed) stream shared by all partitions; with
    seed=None every Lambda_2 is zero, as in construct_ci."""
    T = HilbertFunction(T)
    rng = None if seed is None else random.Random(seed)
    out = []
    for P in enumerate_cijt(T):
        lambda2 = None if rng is None else _draw_lambda2(rng, P.power_form[0][1])
        realization = construct_ci(P, lambda2=lambda2)
        out.append((P, realization, verify_realization(realization)))
    return out
