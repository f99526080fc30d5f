"""Every private name the library defines is used: a module-level private
function, class or constant, or a private method, that no module of
``nudgesim`` loads by name or attribute is dead code, such as a helper left
behind when its callers went away."""

import ast
from pathlib import Path

import nudgesim


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _dead_private_names(sources: dict[str, str]) -> list[str]:
    """The private names defined in the modules ``sources`` (module name to
    source text), as ``module.name`` or ``module.Class.name``, that no module
    loads as an ``ast.Name`` or an ``ast.Attribute``: module-level functions,
    classes and assigned names, and the methods of module-level classes."""
    defined, loaded = [], set()
    for module, text in sources.items():
        tree = ast.parse(text)
        for node in tree.body:
            names = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [target.id for target in node.targets if isinstance(target, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            defined += [(f"{module}.{name}", name) for name in names]
            if isinstance(node, ast.ClassDef):
                defined += [
                    (f"{module}.{node.name}.{m.name}", m.name)
                    for m in node.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return [where for where, name in defined if _private(name) and name not in loaded]


def test_the_library_defines_no_dead_private_name():
    package = Path(nudgesim.__file__).parent
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    assert _dead_private_names(sources) == []


def test_dead_name_guard_sees_each_kind_of_private_name():
    used_elsewhere = "from a import _used\n_used()\nx = A()._kept\n"
    source = (
        "import re\n"
        "_PATTERN = re.compile('x')\n"
        "_LIMIT: int = 3\n"
        "def _check_lines(path): pass\n"
        "def _used(): pass\n"
        "def public(): return _LIMIT\n"
        "class _Helper: pass\n"
        "class A:\n"
        "    def __init__(self): pass\n"
        "    def _stale(self): pass\n"
        "    @property\n"
        "    def _kept(self): return 1\n"
    )
    assert _dead_private_names({"a": source, "b": used_elsewhere}) == [
        "a._PATTERN", "a._check_lines", "a._Helper", "a.A._stale",
    ]
