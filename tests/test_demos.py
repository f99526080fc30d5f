"""The demo scripts import only names the package still provides, and each
runs to completion; no package module imports a private name from another,
no writer formats a value with repr, the simulator writes its trust-cost
formula and no-direction rule once each, and the tokenizer rule is written
once."""

import ast
import importlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import nudgesim

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
SRC = Path(nudgesim.__file__).resolve().parent.parent


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


def test_package_modules_import_no_private_name_from_a_sibling():
    # a private name is free to change with its own module; a rule two
    # modules share belongs under a public name
    found = []
    for path in sorted(Path(nudgesim.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "nudgesim"
            ):
                found += [
                    f"{path.name}:{node.lineno}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not found, found


def test_package_writers_format_no_value_with_repr():
    # numpy 2 writes repr(np.float64(0.8)) as "np.float64(0.8)", which no
    # reader takes back; a writer passes values to corpus.write_csv or
    # formats them with str, and repr is left to error messages
    found = []
    for path in sorted(Path(nudgesim.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if not (isinstance(func, ast.FunctionDef) and func.name.startswith(("write_", "save_"))):
                continue
            in_raise = {id(n) for r in ast.walk(func) if isinstance(r, ast.Raise) for n in ast.walk(r)}
            for node in ast.walk(func):
                calls_repr = isinstance(node, ast.Call) and getattr(node.func, "id", None) == "repr"
                converts_r = isinstance(node, ast.FormattedValue) and node.conversion == ord("r")
                if (calls_repr or converts_r) and id(node) not in in_raise:
                    found.append(f"{path.name}:{node.lineno}: {func.name}")
    assert not found, found


def test_package_writes_the_trust_cost_and_the_no_direction_rule_once():
    # embedding.NO_DIRECTION_NORM is the one rule for a vector without
    # direction, and nudge._trust_costs the one copy of the formula: a norm
    # compared with zero, or a second "1.0 - alpha", is a copy that can drift
    norm_tests, formulas = [], []
    for path in sorted(Path(nudgesim.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and ast.unparse(node) == "1.0 - alpha":
                formulas.append(f"{path.name}:{node.lineno}")
            operands = []
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("equal", "not_equal"):
                operands = node.args
            if any(isinstance(o, ast.Constant) and o.value == 0.0 for o in operands) and any(
                "norm" in ast.unparse(o) for o in operands
            ):
                norm_tests.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not norm_tests, norm_tests
    assert len(formulas) == 1, formulas



def test_package_writes_the_tokenizer_rule_once():
    # corpus._runs is the one tokenizer: a second _TOKEN_RE.findall, or a
    # str.translate with a table of its own, is a copy that can drift. A
    # translate on the result of encode() is the bytes one in _runs
    runs, str_translates = [], []
    for path in sorted(Path(nudgesim.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                    continue
                where = f"{path.name}:{func.name}: {ast.unparse(node)}"
                if ast.unparse(node.func) == "_TOKEN_RE.findall":
                    runs.append(where)
                receiver = node.func.value
                on_bytes = isinstance(receiver, ast.Call) and getattr(receiver.func, "attr", None) == "encode"
                if node.func.attr == "translate" and not on_bytes:
                    str_translates.append(where)
    assert len(runs) == 1 and runs[0].startswith("corpus.py:_runs: "), runs
    assert not str_translates, str_translates


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # a copy, so that the demo's output/ directory lands under tmp_path
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    # under the suite's strict flags: development mode, every warning an
    # error, bytes compared with str an error, and a warning for text I/O
    # that takes the locale's encoding
    env = dict(os.environ, PYTHONPATH=str(SRC), NUDGESIM_LOG="WARNING", PYTHONWARNDEFAULTENCODING="1")
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-bb", "-W", "error", str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, encoding="utf-8", timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "output").is_dir()
