"""Checks on the package source itself."""

import ast
import importlib
import importlib.util
import io
import re
import shlex
import subprocess
import sys
import tokenize
from pathlib import Path

import jtlab
from jtlab import cli, linalg

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


def test_linalg_keeps_one_elimination():
    # insert is the only elimination; remainder reduces against its bases,
    # and rref and kernel_basis back-substitute on them.  The reduced-form
    # routines that once ran beside it live in tests/reference_paths.py
    names = ["primitive", "insert", "remainder", "rank", "rref", "kernel_basis"]
    assert linalg.__all__ == names
    public = {
        name
        for name, value in vars(linalg).items()
        if callable(value) and not name.startswith("_") and value.__module__ == linalg.__name__
    }
    assert public == set(names)


# routines that only tests call, kept under tests/: the cofactor
# determinant and point evaluation in reference_paths.py, the hook-code
# text readers and the monomial list in tests_support.py
TEST_ONLY = {
    "jtlab": ["hessian_determinant"],
    "jtlab.hessians": ["hessian_determinant", "_det", "evaluate_matrix"],
    "jtlab.codes": ["parse_traditional_hook_code", "parse_subscripted_hook_code"],
    "jtlab.algebra": ["monomials"],
}


def test_test_only_routines_stay_out_of_the_package():
    for module_name, names in TEST_ONLY.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert not hasattr(module, name), f"{module_name}.{name}"
            assert name not in module.__all__, f"{module_name}.__all__ lists {name}"
    assert not hasattr(importlib.import_module("jtlab.polynomials").BivariatePoly, "evaluate")


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
    # dual_data returns what it keeps without checking F again, and
    # _d_sequence reads and fills the per-direction store that dual_data
    # creates, so the one place that sets either slot is the one that
    # checked F: dual_data itself
    for slot in ("_dual", "_d_sequences"):
        found = [
            f"{path.name}:{where}"
            for path in sorted(PACKAGE.glob("*.py"))
            for where, _ in _slot_writes(ast.parse(path.read_text(), filename=str(path)), slot)
        ]
        assert found == ["polynomials.py:dual_data"], (slot, found)


def test_only_the_graded_ideal_writes_its_rows():
    # quotient and ArtinAlgebra._diagram build from _rows unchecked, so
    # only GradedIdeal writes them: its constructor, which reads them off
    # the generators, and _from_rows, for callers that built the generators
    # from those rows
    found = [
        f"{path.name}:{where}"
        for path in sorted(PACKAGE.glob("*.py"))
        for where, _ in _slot_writes(ast.parse(path.read_text(), filename=str(path)), "_rows")
    ]
    assert sorted(found) == ["algebra.py:__init__", "algebra.py:_from_rows"], found


def _protocol_owners(tree):
    """{method: class names} for every class in a parsed module that
    defines one of the value protocol's methods, by def or by assignment."""
    protocol = ("__setattr__", "__delattr__", "__reduce__", "__eq__", "__hash__")
    owners = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [item.name]
            elif isinstance(item, ast.Assign):
                names = [t.id for t in item.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name in protocol:
                    owners.setdefault(name, set()).add(node.name)
    return owners


def test_protocol_guard_sees_defs_and_assignments():
    tree = ast.parse(
        "class A:\n"
        "    def __eq__(self, other): ...\n"
        "    __hash__ = None\n"
        "    def __lt__(self, other): ...\n"
        "class B(A):\n"
        "    class C:\n"
        "        def __reduce__(self): ...\n"
        "def __setattr__(self, name, value): ...\n"
    )
    assert _protocol_owners(tree) == {"__eq__": {"A"}, "__hash__": {"A"}, "__reduce__": {"C"}}


def test_only_the_value_base_defines_the_protocol():
    # assignment refusal, equality, hashing and pickling are written once,
    # in errors._Value.  BivariatePoly keeps a memoized hash, since its
    # field is a dict; HilbertFunction pickles its values alone, since d, k
    # and j are derived; and _Gap pickles as the module's singleton E
    owners = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name, classes in _protocol_owners(ast.parse(path.read_text(), filename=str(path))).items():
            owners.setdefault(name, set()).update(classes)
    assert owners == {
        "__setattr__": {"_Value"},
        "__delattr__": {"_Value"},
        "__eq__": {"_Value"},
        "__hash__": {"_Value", "BivariatePoly"},
        "__reduce__": {"_Value", "HilbertFunction", "_Gap"},
    }


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


def _environment_reads(tree):
    """Line numbers of every read of the process environment in a parsed
    module: an attribute environ or getenv of any name (os.environ[...],
    os.environ.get, os.getenv, o.environ after import os as o), and from
    os import environ or getenv."""
    names = ("environ", "environb", "getenv", "getenvb")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in names:
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in names for alias in node.names):
                found.append(node.lineno)
    return sorted(found)


def test_environment_guard_sees_every_spelling():
    tree = ast.parse(
        "import os\n"
        "a = os.environ.get('X')\n"
        "b = os.environ['X']\n"
        "c = os.getenv('X')\n"
        "from os import environ\n"
        "from os import getenv as g\n"
        "import os as o; d = o.environ\n"
        "e = os.path.isfile('X')\n"
    )
    assert _environment_reads(tree) == [2, 3, 4, 5, 6, 7]


def test_no_module_reads_the_environment():
    # a command's answer depends on its arguments alone: --seed is the one
    # seed setting, and no exported variable may replace what was typed
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _environment_reads(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, f"environment read in the package: {found}"


# a caret followed by a value: the end of a literal piece that a value
# follows (f"{v}^{e}", "^" + str(e)), or a placeholder ("%s^%d", "{}^{}")
_POWER = re.compile(r"\^(?:$|%|\{)")


def _power_writers(tree):
    """(enclosing function, line) of every string that writes a power
    v^e of a value in a parsed module: a literal, or a literal piece of an
    f-string, matching _POWER.  Docstrings and a caret before text, such
    as d^k in a message, are not counted."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            if (
                isinstance(child, ast.Constant)
                and isinstance(child.value, str)
                and not isinstance(node, ast.Expr)  # a docstring
                and _POWER.search(child.value)
            ):
                found.append((where, child.lineno))
            visit(child, inner)

    visit(tree, None)
    return found


def test_power_guard_sees_every_spelling():
    tree = ast.parse(
        "def f(v, e):\n"
        '    """x^a y^b, and a^"""\n'
        '    a = f"{v}^{e}"\n'
        '    b = str(v) + "^" + str(e)\n'
        '    c = "%s^%d" % (v, e)\n'
        '    d = "{}^{}".format(v, e)\n'
        '    m = f"{v} is not of the form d^k"\n'
        '    n = "(a+k)^(a+1)"\n'
        'g = f"{1}^{2}"\n'
    )
    assert _power_writers(tree) == [("f", 3), ("f", 4), ("f", 5), ("f", 6), (None, 9)]


def test_one_writer_each_of_caret_and_monomial_text():
    # a caret list is written by partitions.format_caret_list alone, and a
    # monomial by polynomials._monomial_text alone, which BivariatePoly.text
    # and verify_realization's initial-ideal check both call
    found = [
        f"{path.name}:{where}"
        for path in sorted(PACKAGE.glob("*.py"))
        for where, _ in _power_writers(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == [
        "partitions.py:format_caret_list",
        "polynomials.py:_monomial_text",
        "polynomials.py:_monomial_text",
    ], found


def _where(tree, match):
    """(enclosing function, line) of every node of a parsed module for which
    match(node) holds: a method is named Class.method, and a node outside
    every function has None."""
    found = []

    def visit(node, where, prefix):
        for child in ast.iter_child_nodes(node):
            inner, inner_prefix = where, prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = prefix + child.name
                inner_prefix = inner + "."
            elif isinstance(child, ast.ClassDef):
                inner_prefix = prefix + child.name + "."
            if match(child):
                found.append((where, child.lineno))
            visit(child, inner, inner_prefix)

    visit(tree, None, "")
    return found


def _is_thickening(node):
    """max(0, e - 2) or max(e - 2, 0): the thickening max(0, k - 2) of
    T(d, k), which puts the least hand degree of a hook at d + max(0, k - 2)."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "max" and len(node.args) == 2):
        return False
    zero = any(isinstance(a, ast.Constant) and a.value == 0 for a in node.args)
    less_two = any(
        isinstance(a, ast.BinOp) and isinstance(a.op, ast.Sub) and getattr(a.right, "value", None) == 2
        for a in node.args
    )
    return zero and less_two


def _is_full_rank_test(node):
    """r == i + 1, or i + 1 == r, or with 1 + i: a rank compared with the
    full rank i + 1 of the i-th Hessian, for an order i that is a name.  A
    length, len(...), compared so is no rank."""

    def plus_one(e):
        return (
            isinstance(e, ast.BinOp)
            and isinstance(e.op, ast.Add)
            and {type(e.left), type(e.right)} == {ast.Name, ast.Constant}
            and 1 in (getattr(e.left, "value", None), getattr(e.right, "value", None))
        )

    def is_len(e):
        return isinstance(e, ast.Call) and getattr(e.func, "id", None) == "len"

    if not (isinstance(node, ast.Compare) and [type(op) for op in node.ops] == [ast.Eq]):
        return False
    left, right = node.left, node.comparators[0]
    return plus_one(right) and not is_len(left) or plus_one(left) and not is_len(right)


def _calls(name):
    """A match for _where: a call of name, bare or as an attribute."""
    return lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None),
        getattr(node.func, "attr", None),
    )


def _private_imports(tree):
    """(line, module.name) for every private name that a parsed module
    imports from a module of the package: from .m import _x, or from
    jtlab.m import _x."""
    return [
        (node.lineno, f"{(node.module or '').rsplit('.', 1)[-1]}.{alias.name}")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("jtlab"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]


def test_row_rule_guards_see_every_spelling():
    tree = ast.parse(
        "from .codes import _label_hooks, E\n"
        "from jtlab.hessians import _hessian_columns as cols\n"
        "from . import codes\n"
        "from .errors import __doc__\n"
        "class C:\n"
        "    def f(self, k, T, r, i, rank):\n"
        "        a = max(0, k - 2) + max(T.k - 2, 0)\n"
        "        b = max(0, k - 1), min(0, k - 2), max(1, k - 2)\n"
        "        c = [n for n, q in enumerate(r) if q == n + 1]\n"
        "        d = i + 1 == rank(i, 5) or r[i, 5] == 1 + i\n"
        "        e = r != i + 1, r == (i + 1) * 2, r == i - 1, len(r) == i + 1, i == r[0] + 1\n"
        "        r[i] = i + 1\n"
        "        return require_linear(k), algebra.require_linear(k)\n"
        "def g(ell):\n"
        "    def h():\n"
        "        return require_linear(ell)\n"
        "    return max(0, ell.k - 2)\n"
    )
    assert _private_imports(tree) == [(1, "codes._label_hooks"), (2, "hessians._hessian_columns")]
    assert _where(tree, _is_thickening) == [("C.f", 7), ("C.f", 7), ("g", 17)]
    assert _where(tree, _is_full_rank_test) == [("C.f", 9), ("C.f", 10), ("C.f", 10)]
    assert _where(tree, _calls("require_linear")) == [("C.f", 13), ("C.f", 13), ("g.h", 16)]


def _found(match):
    """"module.py:function" for every node of src/jtlab that match finds."""
    return [
        f"{path.name}:{where}"
        for path in sorted(PACKAGE.glob("*.py"))
        for where, _ in _where(ast.parse(path.read_text(), filename=str(path)), match)
    ]


def test_codes_alone_writes_the_hook_code_columns():
    # a classification row gets both hook-code columns from
    # codes._hook_code_columns, so no other module imports the label walk or
    # the two text writers behind it, or spells the support window's
    # thickening max(0, k - 2)
    writers = {"codes._label_hooks", "codes._traditional_text", "codes._subscripted_text"}
    imports = [
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in _private_imports(ast.parse(path.read_text(), filename=str(path)))
        if name in writers
    ]
    assert not imports, imports
    outside = [where for where in _found(_is_thickening) if not where.startswith("codes.py:")]
    assert not outside, outside


def test_one_function_tells_a_full_rank():
    # the rule "order i is nonvanishing when the rank at (i, j - i) is
    # i + 1" is hessians._hessian_columns', which every Hessian column and
    # check (e) of verify_realization read
    assert _found(_is_full_rank_test) == ["hessians.py:_hessian_columns"]
    assert _found(_calls("_hessian_columns")) == [
        "cli.py:classification_row",
        "cli.py:cmd_jordan",
        "constructor.py:verify_realization",
        "hessians.py:nonvanishing_set",
    ]


def test_classification_row_is_the_one_row_function():
    # classify reads its row from classification_row, as every table does,
    # and initial_ideal leaves the check of its form to ArtinAlgebra._diagram
    assert not hasattr(cli, "_row_and_profile")
    assert _found(_calls("_hook_code_columns")) == ["cli.py:classification_row"]
    assert _found(_calls("require_linear")) == ["algebra.py:ArtinAlgebra._diagram", "cli.py:cmd_jordan"]


def _unused_imports(tree):
    """(line, name) for every name that an import in a parsed module binds
    and the module never loads: import a.b binds a, and from m import x as
    y binds y.  A name listed in the module's __all__ is a re-export, so it
    counts as used; from __future__ imports bind nothing."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_unused_import_guard_sees_every_spelling():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from .partitions import HilbertFunction, sl_partition\n"
        "from .hessians import nonvanishing_set as nv\n"
        "from .codes import is_cijt\n"
        "__all__ = ['is_cijt']\n"
        "def f(T):\n"
        "    j = HilbertFunction(T)\n"
        "    return os.sep\n"
    )
    assert _unused_imports(tree) == [(3, "j"), (4, "sl_partition"), (5, "nv")]


def test_no_unused_imports_in_package():
    # every import is used, so a deleted caller takes its import with it;
    # __init__.py's re-exports are used through its __all__
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, f"unused imports in the package: {found}"


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


def _tour():
    """The python block under the README's "Library quick tour" heading."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _tour_claims(source):
    """(line, repr) for every expression statement whose comment starts with
    a Python expression: the comment up to its first ': ' or double space,
    which is the repr of the statement's value; other comments are prose."""
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    claims = {}
    for stmt in ast.parse(source).body:
        text = comments.get(stmt.lineno)
        if not isinstance(stmt, ast.Expr) or text is None:
            continue
        text = re.split(r": |  ", text, maxsplit=1)[0]
        try:
            ast.parse(text, mode="eval")
        except SyntaxError:
            continue
        claims[stmt.lineno] = text
    return claims


def test_readme_tour_runs_as_written():
    # every statement of the tour runs in order in one namespace, and the
    # value of each expression whose comment is a repr has that repr
    source = _tour()
    claims = _tour_claims(source)
    assert len(claims) == 8, claims
    namespace = {}
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            if stmt.lineno in claims:
                assert repr(value) == claims[stmt.lineno], (stmt.lineno, value)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)


def _command_lines():
    """The lines of the sh block under the README's "Command line" heading,
    each split as a shell would, comments dropped."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines()]


def test_readme_command_lines_run_as_written():
    # every line of the block is a jtlab command that exits 0, writes data
    # to stdout and no diagnostic to stderr
    lines = _command_lines()
    assert len(lines) == 8 and all(argv[0] == "jtlab" for argv in lines), lines
    for argv in lines:
        out, err = io.StringIO(), io.StringIO()
        assert cli.main(argv[1:], out=out, err=err) == 0, (argv, err.getvalue())
        assert out.getvalue() and not err.getvalue(), argv
