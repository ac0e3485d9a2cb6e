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
