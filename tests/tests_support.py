"""Shared helpers for the test suite."""

import copy
import pickle
import random
from fractions import Fraction

from jtlab.algebra import GradedIdeal, rank_mult_power
from jtlab.polynomials import BivariatePoly, parse_poly


def copies(value):
    """A shallow copy, a deep copy and a pickle round trip of value."""
    return [copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))]


def partitions_of(n, maxp=None):
    """All partitions of n, parts bounded by maxp, as tuples."""
    maxp = n if maxp is None else maxp
    if n == 0:
        yield ()
        return
    for p in range(min(n, maxp), 0, -1):
        for rest in partitions_of(n - p, p):
            yield (p,) + rest


def rank_table(A, ell):
    """table[u][s - u] = rank_mult_power(A, ell, u, s) for 0 <= u <= s <= j:
    jtlab's ranks of every power of ell, in the shape of the tables that
    reference_paths.rank_table and dual_rank_table return."""
    j = A.socle_degree
    return [[rank_mult_power(A, ell, u, s) for s in range(u, j + 1)] for u in range(j + 1)]


def random_dual_generator(rng, jmin=4, jmax=9):
    """Nonzero homogeneous form in X, Y of a random degree in jmin..jmax,
    with numerators in -9..9 and denominators in {1, 2, 3}."""
    return random_dual_form(rng, rng.randint(jmin, jmax))


def random_dual_form(rng, j):
    """Nonzero homogeneous form in X, Y of degree j with numerators in
    -9..9 and denominators in {1, 2, 3}, drawn as the benchmark's dual_fuzz
    workload draws its forms."""
    while True:
        terms = {}
        for a in range(j + 1):
            num = rng.randint(-9, 9)
            if num:
                terms[(a, j - a)] = Fraction(num, rng.choice([1, 2, 3]))
        if terms:
            return BivariatePoly(terms)


def dual_fuzz_forms():
    """The 104 dual generators of the seed-0 dual_fuzz benchmark workload,
    drawn from random.Random("dual_fuzz:0") with degrees cycling through
    4, 5, 6, 7, 7, 8, 9, 9, as the workload draws them."""
    rng = random.Random("dual_fuzz:0")
    degrees = (4, 5, 6, 7, 7, 8, 9, 9)
    return [random_dual_form(rng, degrees[n % len(degrees)]) for n in range(104)]


def seeded_rng(seed):
    return random.Random(seed)


def power_sum_duals(jmin=4, jmax=9):
    """Planted degenerate dual generators: X^j + Y^j, (X+Y)^j + (X-2Y)^j and
    X^j + (X+Y)^j + (X-Y)^j.  Their Hessians vanish at rational points, the
    coordinate axes among them."""
    X, Y = parse_poly("X"), parse_poly("Y")
    duals = []
    for j in range(jmin, jmax + 1):
        duals.append(X**j + Y**j)
        duals.append((X + Y) ** j + (X - 2 * Y) ** j)
        duals.append(X**j + (X + Y) ** j + (X - Y) ** j)
    return duals


def assert_same_as_constructed(ideal):
    """An ideal that GradedIdeal._from_rows built equals the one that the
    public constructor builds from its generators, in ==, hash and _rows."""
    built = GradedIdeal(ideal.generators)
    assert ideal == built and hash(ideal) == hash(built), ideal
    assert ideal._rows == built._rows, ideal
    assert [(type(e), type(row)) for e, row in ideal._rows] == [(int, list)] * len(built._rows)
