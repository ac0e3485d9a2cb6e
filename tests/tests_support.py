"""Shared helpers for the test suite."""

import copy
import pickle
import random
from fractions import Fraction

from jtlab.algebra import GradedIdeal, rank_mult_power
from jtlab.codes import E, BranchLabel, enumerate_diagonal_partitions
from jtlab.errors import ParseError
from jtlab.partitions import HilbertFunction, format_caret_list
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


def monomials(n):
    """Monomials of degree n as (x-exp, y-exp), largest first: y^n, ..., x^n.
    The position of a monomial in this list is its x-exponent."""
    return [(n - b, b) for b in range(n, -1, -1)]


def parse_traditional_hook_code(text):
    """Inverse of HookCode.traditional_str: "1_3,2_4" -> ((3, 1), (4, 2))."""
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        count, _, degree = piece.partition("_")
        if not degree:
            raise ParseError(f"bad hook code entry {piece!r}")
        out.append((int(degree), int(count)))
    return tuple(out)


def parse_subscripted_hook_code(text):
    """Inverse of HookCode.subscripted_str: "E,2_2,1_1" -> (label, subscripts)."""
    entries = []
    subscripts = []
    for piece in text.split(","):
        piece = piece.strip()
        if piece == "E":
            entries.append(E)
            subscripts.append(None)
            continue
        value, _, sub = piece.partition("_")
        if not sub:
            raise ParseError(f"bad subscripted entry {piece!r}")
        entries.append(int(value))
        subscripts.append(int(sub))
    return BranchLabel(entries), tuple(subscripts)


# -- a grammar-following fuzz of the command line ---------------------------------

FIGURES = ["2a-121", "2a-1221", "2a-12321", "3a:2", "3a:3", "9", "10.5:2", "11:2", "12:2", "11:1"]
BAD_FIGURES = ["3a:0", "3a:x", "3a:", "99", "10.5", "12:-1", "2a-131", "3a:600", ""]
BAD_CARETS = ["6,,2", "2^0", "a,b", "3^", "-1", "2,3", "0", "", "2.5,1", "1^1^1", "E"]
LINEAR_FORMS = ["x", "y", "x+y", "2*x-3*y", "-x+y", "3/2*x+y", "0", "x^2", "1", "x+y^2", "2x"]


def _hilbert_text(rng, d, k):
    """T(d, k) in caret text or as a plain comma list, sometimes perturbed:
    one entry moved by one, one dropped, or junk appended."""
    values = list(HilbertFunction.from_dk(d, k).values)
    roll = rng.random()
    if roll < 0.15:
        values[rng.randrange(len(values))] += rng.choice((-1, 1))
    elif roll < 0.2:
        del values[rng.randrange(len(values))]
    text = format_caret_list(values) if rng.random() < 0.5 else ",".join(map(str, values))
    return text + rng.choice((",x", ",", "^2")) if 0.2 <= roll < 0.25 else text


def _partition_text(rng, d, k):
    """A partition of T(d, k) in caret text, one of some other diagonal
    lengths, or a malformed caret list."""
    roll = rng.random()
    if roll < 0.15:
        return rng.choice(BAD_CARETS)
    if roll < 0.25:
        parts = sorted((rng.randint(1, 6) for _ in range(rng.randint(1, 6))), reverse=True)
        return ",".join(map(str, parts))
    return str(rng.choice(enumerate_diagonal_partitions(HilbertFunction.from_dk(d, k))))


def _form_text(rng, variables, degree, homogeneous=True):
    """A form of the given degree in the two variables, with small integer
    or fractional coefficients; one more term of degree + 1 when it is not
    to be homogeneous."""
    vx, vy = variables
    terms = []
    for a in range(degree, -1, -1):
        if rng.random() < 0.6 or a == 0 and not terms:
            num = rng.randint(-5, 5) or 1
            coeff = f"{num}/{rng.choice((2, 3))}" if rng.random() < 0.2 else str(num)
            terms.append(f"{coeff}*{vx}^{a}*{vy}^{degree - a}")
    if not homogeneous:
        terms.append(f"{vx}^{degree + 1}")
    return "+".join(terms).replace("+-", "-")


def _ideal_text(rng):
    """Two or three generators in x and y, often a complete intersection."""
    if rng.random() < 0.5:
        return f"x^{rng.randint(1, 5)},y^{rng.randint(1, 5)}"
    count = rng.randint(2, 3)
    return ",".join(_form_text(rng, "xy", rng.randint(1, 4), rng.random() < 0.85) for _ in range(count))


def cli_fuzz_argv(rng):
    """One argv for jtlab.cli.main whose tokens follow its subcommand's
    grammar: Hilbert functions T(d, k) with d <= 6 and k <= 3, sometimes
    perturbed; caret partitions, some malformed; homogeneous and
    non-homogeneous forms in x, y and X, Y; linear forms, 0 and x^2 among
    them; figure ids, bad ones among them; and --format, --seed,
    --alpha-zero and --cijt-only.  A few argv break the grammar (an
    unknown --format, a seed that is no integer), so argparse's exit 2 is
    reached too."""
    d, k = rng.randint(1, 6), rng.randint(1, 3)
    command = rng.choice(["enumerate", "classify", "realize", "jordan", "table"])
    argv = [command]
    if command == "enumerate":
        argv.append(_hilbert_text(rng, d, k))
        if rng.random() < 0.4:
            argv.append("--cijt-only")
    elif command == "classify":
        argv.append(_partition_text(rng, d, k))
        if rng.random() < 0.5:
            argv.append(_hilbert_text(rng, d, k))
    elif command == "realize":
        if rng.random() < 0.3:
            argv += ["--all", _hilbert_text(rng, min(d, 5), k)]
        else:
            argv.append(_partition_text(rng, d, k))
        if rng.random() < 0.4:
            argv += ["--seed", rng.choice(["0", "7", "-3", str(rng.randint(0, 99)), "x"])]
        if rng.random() < 0.3:
            argv.append("--alpha-zero")
    elif command == "jordan":
        if rng.random() < 0.5:
            argv.append(_ideal_text(rng))
        else:
            argv += ["--dual", _form_text(rng, "XY", rng.randint(0, 8), rng.random() < 0.85)]
        argv += ["--ell", rng.choice(LINEAR_FORMS)]
    else:
        argv.append(rng.choice(FIGURES if rng.random() < 0.7 else BAD_FIGURES))
    if rng.random() < 0.4:
        formats = ("plain", "json", "csv") if command in ("enumerate", "table") else ("plain", "json")
        argv += ["--format", "xml" if rng.random() < 0.05 else rng.choice(formats)]
    return argv
