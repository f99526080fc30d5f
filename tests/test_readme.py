"""README.md stays true to the code: its Python examples run, and every
private name it quotes exists in the library."""

import importlib
import pkgutil
import re
from pathlib import Path

import nudgesim

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.M | re.S)
MODULES = {info.name: importlib.import_module(f"nudgesim.{info.name}") for info in pkgutil.iter_modules(nudgesim.__path__)}


def test_readme_python_blocks_run():
    blocks = [body for lang, body in FENCE.findall(README) if lang == "python"]
    assert len(blocks) >= 2
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "readme"})


def test_readme_names_only_private_names_the_library_has():
    # a code span that is a name starting with _, bare or as module._name,
    # perhaps with its arguments, must name an attribute of a nudgesim module
    prose = FENCE.sub("", README)
    missing = []
    for span in re.findall(r"`([^`]+)`", prose):
        found = re.fullmatch(r"(?:(\w+)\.)?(_\w+)(?:\(.*\))?", span, re.S)
        if found is None:
            continue
        module, name = found.groups()
        owners = [MODULES.get(module)] if module else [nudgesim, *MODULES.values()]
        if not any(hasattr(owner, name) for owner in owners if owner is not None):
            missing.append(span)
    assert not missing, f"README names what no nudgesim module has: {missing}"
