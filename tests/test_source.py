"""Checks on the package source itself."""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import jtlab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jtlab"


def test_no_assert_in_package():
    # python -O strips assert statements, so a check that guards an output
    # must raise instead
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no sources under {PACKAGE}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"


def test_every_traced_layer_is_defined():
    # perfbench/tracer.py wraps each LAYERS name found as vars(owner)[name];
    # a rename in the package would break the traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for name in tracer.LAYERS:
        module_name, *path = name.split(".")
        importlib.import_module(f"jtlab.{module_name}")
        owner = getattr(jtlab, module_name)
        for attr in path[:-1]:
            owner = getattr(owner, attr)
        assert callable(vars(owner).get(path[-1])), name


def _echelon_ranks(tree):
    """Line numbers of len(echelon(...)[0]) or len(<module>.echelon(...)[0])
    in a parsed module: a rank read off a full Gauss-Jordan form."""
    found = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "len"
            and len(node.args) == 1
            and isinstance(node.args[0], ast.Subscript)
        ):
            continue
        sub = node.args[0]
        call = sub.value
        if (
            isinstance(call, ast.Call)
            and getattr(call.func, "id", getattr(call.func, "attr", None)) == "echelon"
            and isinstance(sub.slice, ast.Constant)
            and sub.slice.value == 0
        ):
            found.append(node.lineno)
    return found


def test_echelon_rank_guard_sees_both_spellings():
    tree = ast.parse("a = len(echelon(rows)[0])\nb = len(linalg.echelon(rows)[0])\n")
    assert _echelon_ranks(tree) == [1, 2]
    assert _echelon_ranks(ast.parse("c = len(echelon(rows)[1])\nd = rank(rows)\n")) == []


def test_no_rank_is_read_off_echelon_outside_linalg():
    # a rank needs only leading columns, which linalg.rank reads off the
    # forward-only kernel linalg.insert; the pivot list of echelon would pay
    # for a full Gauss-Jordan form
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "linalg.py"
        for line in _echelon_ranks(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, f"ranks read off echelon: {found}"


def _slot_writes(tree, slot):
    """(enclosing function, line) of every write to the attribute named
    slot in a parsed module, spelt object.__setattr__(P, slot, v),
    setattr(P, slot, v) or P.<slot> = v; a write of the constant None,
    which clears the attribute, is not counted."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            elif isinstance(child, ast.Call):
                name = getattr(child.func, "attr", getattr(child.func, "id", None))
                args = child.args
                if (
                    name in ("__setattr__", "setattr")
                    and len(args) == 3
                    and isinstance(args[1], ast.Constant)
                    and args[1].value == slot
                    and not (isinstance(args[2], ast.Constant) and args[2].value is None)
                ):
                    found.append((where, child.lineno))
            elif (
                isinstance(child, ast.Attribute)
                and child.attr == slot
                and not isinstance(child.ctx, ast.Load)
            ):
                found.append((where, child.lineno))
            visit(child, inner)

    visit(tree, None)
    return found


def test_label_guard_sees_every_spelling():
    tree = ast.parse(
        "def f(P, b):\n"
        "    object.__setattr__(P, '_label', b)\n"
        "    setattr(P, '_label', b)\n"
        "    P._label = b\n"
        "    object.__setattr__(P, '_label', None)\n"
        "    object.__setattr__(P, '_hilbert', b)\n"
        "    return P._label\n"
        "object.__setattr__(P, '_label', b)\n"
    )
    assert _slot_writes(tree, "_label") == [("f", 2), ("f", 3), ("f", 4), (None, 8)]


def test_only_the_gluing_gives_a_partition_its_label():
    # partition_to_branch_label returns a held label without checking it,
    # so the one place that sets it is the one that checked it: the gluing,
    # after the diagram is left justified, its rows weakly decreasing and
    # its diagonal lengths T
    found = [
        f"{path.name}:{where}"
        for path in sorted(PACKAGE.glob("*.py"))
        for where, _ in _slot_writes(ast.parse(path.read_text(), filename=str(path)), "_label")
    ]
    assert found == ["codes.py:_glue"], found


def test_only_the_dual_reader_writes_a_forms_dual_data():
    # dual_data returns a kept (g, d) without checking F again, so the one
    # place that sets it is the one that checked F: dual_data itself
    found = [
        f"{path.name}:{where}"
        for path in sorted(PACKAGE.glob("*.py"))
        for where, _ in _slot_writes(ast.parse(path.read_text(), filename=str(path)), "_dual")
    ]
    assert found == ["polynomials.py:dual_data"], found


def test_only_the_graded_ideal_writes_its_rows():
    # quotient and initial_ideal build from _rows without checking them, so
    # only GradedIdeal writes them: its constructor, which reads them off
    # the generators, and _from_rows, for callers that built the generators
    # from those rows
    found = [
        f"{path.name}:{where}"
        for path in sorted(PACKAGE.glob("*.py"))
        for where, _ in _slot_writes(ast.parse(path.read_text(), filename=str(path)), "_rows")
    ]
    assert sorted(found) == ["algebra.py:__init__", "algebra.py:_from_rows"], found


def _imports_of(tree, module):
    """Line numbers of every import of the named top-level module in a
    parsed module: import m, import m as n, from m import x, and the same
    for a submodule path starting with m."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        if any(name == module or name.startswith(module + ".") for name in names):
            found.append(node.lineno)
    return found


def _substitute_calls(tree):
    """Line numbers of every call spelt <expression>.substitute(...) in a
    parsed module."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "substitute"
    ]


def test_fraction_and_substitute_guards_see_every_spelling():
    tree = ast.parse(
        "import fractions\n"
        "import fractions as f\n"
        "from fractions import Fraction\n"
        "import math, fractions\n"
        "from .fractions import x\n"
        "import fractionsx\n"
    )
    assert _imports_of(tree, "fractions") == [1, 2, 3, 4]
    tree = ast.parse(
        "g.substitute(px, py)\n"
        "gens[0].substitute(px, py)\n"
        "BivariatePoly.substitute(g, px, py)\n"
        "substitute(g)\n"
        "h = g.substitute\n"
    )
    assert _substitute_calls(tree) == [1, 2, 3]


def test_algebra_does_no_fraction_arithmetic():
    # generators come in as integer rows and initial ideals move those rows,
    # so algebra.py has no use for Fraction
    path = PACKAGE / "algebra.py"
    assert _imports_of(ast.parse(path.read_text(), filename=str(path)), "fractions") == []


def test_no_module_substitutes_polynomials():
    # a change of coordinates moves integer rows (algebra._moved); the
    # BivariatePoly products behind substitute are left to the tests
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _substitute_calls(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, f"substitute called in the package: {found}"


def test_dataclasses_guard_sees_both_spellings():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "import dataclasses\n"
        "from .dataclasses import x\n"
        "import dataclassesx\n"
    )
    assert _imports_of(tree, "dataclasses") == [1, 2]


def test_no_module_imports_dataclasses():
    # the value classes are plain slotted classes (errors._Value): importing
    # dataclasses would pull in inspect, ast, dis and tokenize at start-up,
    # which the one-question-per-process CLI pays on every call
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _imports_of(ast.parse(path.read_text(), filename=str(path)), "dataclasses")
    ]
    assert not found, f"dataclasses imported in the package: {found}"


STARTUP = """
import sys
sys.path.insert(0, sys.argv[1])
heavy = ("dataclasses", "inspect")
import jtlab
print(*[name for name in heavy if name in sys.modules])
import jtlab.cli
print(*[name for name in heavy if name in sys.modules])
"""


def test_startup_imports_neither_dataclasses_nor_inspect():
    # a fresh interpreter without site (-S), so only the package's own
    # imports count: neither import jtlab nor import jtlab.cli loads them
    proc = subprocess.run(
        [sys.executable, "-S", "-c", STARTUP, str(PACKAGE.parent)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n\n", proc.stdout
