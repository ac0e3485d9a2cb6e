"""Fixed reference computations that measure the host's current speed.

The host is shared, and its speed drifts by up to half within seconds.  A
pass therefore runs ``chunk`` between items, about every ``EVERY_S`` of
workload time, and each item's time is scaled by ``NOMINAL_S`` ÷ the mean
time of the chunks around it (``local_slowdowns``): it reads as if the host had run
at the speed it had when ``NOMINAL_S`` was recorded.

A chunk does the kind of work jtlab does, in plain Python and without
jtlab: eliminating a small matrix of small ``Fraction`` entries held in
lists, multiplying polynomials held as dicts of monomials, and sorting and
comparing tuples.  It runs with the garbage collector off, so the size of
the workload's heap does not change its cost.

Set-up time is mostly importing, which a fresh process does at a speed
that follows the host less closely than warm arithmetic does.  It is
scaled by ``setup_chunk`` instead, run just before and just after set-up:
it loads a fixed module's code object and runs its body, as an import
does, without reading a file.

Neither ever changes, so a change to jtlab moves the workload's scaled
times and not the reference's.
"""

from __future__ import annotations

import gc
import marshal
import random
import time
from fractions import Fraction

EVERY_S = 0.02  # workload time between two chunks
# about the lowest mean times seen on a 2-vCPU host, Python 3.11
NOMINAL_S = 0.0018
NOMINAL_SETUP_S = 0.0055

_rng = random.Random(20240501)
_MATRICES = [
    [[Fraction(_rng.randint(-5, 5), _rng.choice((1, 1, 2, 3))) for _ in range(8)] for _ in range(6)]
    for _ in range(2)
]
_POLY = {(a, 4 - a): Fraction(a - 2, a + 1) for a in range(5)}
_PARTS = [tuple(sorted((_rng.randint(1, 9) for _ in range(7)), reverse=True)) for _ in range(80)]


def _rref(rows):
    rows = [list(row) for row in rows]
    pivot = 0
    for col in range(len(rows[0])):
        p = next((i for i in range(pivot, len(rows)) if rows[i][col]), None)
        if p is None:
            continue
        rows[pivot], rows[p] = rows[p], rows[pivot]
        inv = 1 / rows[pivot][col]
        rows[pivot] = [v * inv for v in rows[pivot]]
        for i, row in enumerate(rows):
            if i != pivot and row[col]:
                f = row[col]
                rows[i] = [a - f * b for a, b in zip(row, rows[pivot])]
        pivot += 1
    return pivot


def _polymul(f, g):
    h = {}
    for (a, b), u in f.items():
        for (c, d), v in g.items():
            key = (a + c, b + d)
            h[key] = h.get(key, 0) + u * v
    return {k: v for k, v in h.items() if v}


def _conjugate(part):
    return tuple(sum(1 for p in part if p > i) for i in range(part[0])) if part else ()


def _work():
    rank = sum(_rref(rows) for rows in _MATRICES)
    g = _polymul(_POLY, _polymul(_POLY, _POLY))
    symmetric = sum(_conjugate(p) == p for p in sorted(_PARTS))
    return rank, len(g), symmetric


def slowdown(chunk_s, nominal_s=NOMINAL_S):
    """How many times slower than nominal the host ran, from the wall times
    of the chunks run."""
    return sum(chunk_s) / len(chunk_s) / nominal_s


def local_slowdowns(marks, chunk_s, window=2):
    """The slowdown around each timed stretch of a pass, over the ``window``
    chunks run before it and the ``window`` run after it; ``marks[i]`` is
    the number of chunks run before stretch ``i`` began."""
    return [slowdown(chunk_s[max(0, k - window) : k + window]) for k in marks]


def _timed(work):
    """Wall time of ``work()`` in seconds, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def chunk():
    """Run one reference chunk; return its wall time in seconds."""
    return _timed(_work)


def _module_source():
    functions = (
        f"def f{i}(a, b=({i}, {i + 1}), *c, **d):\n"
        f"    x = [a * k for k in range({i % 7 + 2})]\n"
        f"    return sum(x) + len(b) + len(c) + len(d)\n"
        for i in range(60)
    )
    classes = (
        f"class C{i}:\n"
        f"    K = {{'a': {i}, 'b': ({i}, {2 * i})}}\n"
        f"    def __init__(self, v):\n        self.v = v\n"
        f"    def __repr__(self):\n        return f'C{i}({{self.v!r}})'\n"
        f"    @property\n    def p(self):\n        return self.v * {i}\n"
        for i in range(15)
    )
    tables = (
        "TABLE = {(a, b): a * b for a in range(60) for b in range(60)}\n"
        "ITEMS = [tuple(range(k % 9)) for k in range(3000)]\n"
    )
    return "".join(functions) + "".join(classes) + tables


_MODULE = marshal.dumps(compile(_module_source(), "<reference module>", "exec"))


def _load_module():
    for _ in range(4):
        exec(marshal.loads(_MODULE), {"__name__": "reference_module"})


def setup_chunk():
    """Load and run the reference module four times; return the wall time
    in seconds."""
    return _timed(_load_module)
