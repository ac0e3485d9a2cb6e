"""Checks on the package source itself."""

import ast
import importlib
import importlib.util
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
