"""The benchmark's seeded workloads.

A workload turns a random generator into inputs (``inputs``), turns those
inputs into items inside the timed phase (``items``), runs one item at a
time (``run``) and checks the pass as a whole (``check_pass``).  ``run``
returns whether the item's own checks held and its canonical output, which
goes into the pass digest.

jtlab is reached only through its public module functions, looked up on
the module at call time, so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction

from jtlab import algebra, cli, codes, constructor, hessians, partitions, polynomials

SIZES = {
    "full": {
        "realize_sweep": {"dmax": 5, "kmax": 3},
        "dual_fuzz": {"forms": 104},
        "classify_table": {"d": 8, "k": 2},
    },
    "small": {
        "realize_sweep": {"dmax": 3, "kmax": 2},
        "dual_fuzz": {"forms": 8},
        "classify_table": {"d": 4, "k": 2},
    },
}


class Workload:
    def items(self, inputs):
        return inputs

    def check_pass(self, inputs, outputs):
        return True


class RealizeSweep(Workload):
    """construct_ci then verify_realization for every CIJT partition with
    2 <= d <= dmax and 1 <= k <= kmax, Lambda_2 drawn from -5..5."""

    def inputs(self, rng, size):
        items = []
        for d, k in itertools.product(range(2, size["dmax"] + 1), range(1, size["kmax"] + 1)):
            for P in codes.enumerate_cijt(partitions.HilbertFunction.from_dk(d, k)):
                lam = tuple(rng.randint(-5, 5) for _ in range(P.power_form[0][1]))
                items.append((P, lam))
        rng.shuffle(items)
        return items

    def run(self, item):
        P, lam = item
        realization = constructor.construct_ci(P, lambda2=lam)
        report = constructor.verify_realization(realization)
        output = {
            "partition": str(P),
            "generators": [g.text() for g in realization.ideal.generators],
            "report": report.as_dict(),
        }
        return report.all_passed, output


class DualFuzz(Workload):
    """quotient(annihilator(F)) for random dual generators F, then in four
    directions the Jordan type and, for each active order, the Hessian rank
    beside the multiplication rank."""

    DIRECTIONS = ((1, 0), (0, 1), (1, 1), (1, 2))
    DEGREES = (4, 5, 6, 7, 7, 8, 9, 9)

    def inputs(self, rng, size):
        # Socle degrees cycle through 4..9 so every seed carries the same mix
        # of small and large algebras.  Item cost grows with the degree, and
        # in this cycle as many items lie below the j = 7 band as above it:
        # the median item lies in the middle of that band and the 90th
        # percentile inside the j = 9 band, not at a band's edge where they
        # would swing with the seed.
        return [_dual_form(rng, self.DEGREES[n % len(self.DEGREES)]) for n in range(size["forms"])]

    def run(self, F):
        A = algebra.quotient(algebra.annihilator(F))
        T = partitions.HilbertFunction(A.hilbert)
        active = hessians.active_hessian_indices(T)
        ok = True
        types, ranks = [], []
        for a, b in self.DIRECTIONS:
            ell = polynomials.BivariatePoly.linear(a, b)
            jt = algebra.jordan_type(A, ell)
            ok &= partitions.diagonal_lengths(jt) == A.hilbert
            # the "only if" half of the classification: every Jordan type
            # of a linear form on a CI in k[x,y] is CIJT
            ok &= codes.is_cijt(jt)
            for i in active:
                h = hessians.hessian_rank_at(F, i, (a, b), algebra=A)
                ok &= h == algebra.rank_mult_power(A, ell, i, T.j - i)
                ranks.append(h)
            types.append(str(jt))
        return ok, {"hilbert": list(A.hilbert), "jordan_types": types, "hessian_ranks": ranks}


def _dual_form(rng, j):
    """Nonzero form of degree j in X, Y with numerators in -9..9 and
    denominators in {1, 2, 3}."""
    while True:
        terms = {}
        for a in range(j + 1):
            num = rng.randint(-9, 9)
            if num:
                terms[(a, j - a)] = Fraction(num, rng.choice([1, 2, 3]))
        if terms:
            return polynomials.BivariatePoly(terms)


class ClassifyTable(Workload):
    """enumerate_diagonal_partitions(T) then classification_row for every
    partition, in a seeded order; the enumeration is timed with the pass."""

    def inputs(self, rng, size):
        return partitions.HilbertFunction.from_dk(size["d"], size["k"]), rng.random()

    def items(self, inputs):
        T, order = inputs
        parts = codes.enumerate_diagonal_partitions(T)
        random.Random(order).shuffle(parts)
        return [(P, T) for P in parts]

    def run(self, item):
        P, T = item
        row = cli.classification_row(P, T)
        # the enumerated partition has diagonal lengths T, counted here
        # without jtlab: row r of the Ferrers diagram, of length p, has one
        # cell on each diagonal r .. r + p - 1
        steps = [0] * (len(P.parts) + P.parts[0])
        for r, p in enumerate(P.parts):
            steps[r] += 1
            steps[r + p] -= 1
        lengths = list(itertools.accumulate(steps))
        return lengths == [*T.values, *[0] * (len(lengths) - len(T.values))], row

    def check_pass(self, inputs, outputs):
        # for k >= 2 there are 2 * 3^(d-1) partitions of diagonal lengths
        # T(d, k), of which 2^d are CIJT
        T, _ = inputs
        assert T.k >= 2, "the counts below hold for k >= 2 only"
        rows, cijt = 2 * 3 ** (T.d - 1), 2**T.d
        return len(outputs) == rows and sum(bool(o and o["cijt"]) for o in outputs) == cijt


WORKLOADS = {
    "realize_sweep": RealizeSweep(),
    "dual_fuzz": DualFuzz(),
    "classify_table": ClassifyTable(),
}


def make_inputs(workload, seed, size):
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload].inputs(rng, SIZES[size][workload])


def digest(outputs):
    """sha256 of the pass's canonical outputs, in item order."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
