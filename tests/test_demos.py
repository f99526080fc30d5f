"""The demo scripts import only names the package still provides."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    tree = ast.parse(demo.read_text(encoding="utf-8"), filename=str(demo))
    checked = 0
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nudgesim"):
            continue
        module = importlib.import_module(node.module)
        for alias in node.names:
            if not hasattr(module, alias.name):
                importlib.import_module(f"{node.module}.{alias.name}")  # a submodule
            checked += 1
    assert checked, f"{demo.name} imports nothing from nudgesim"
