"""Every module-level import in ``src/gbv`` is used by its module, and every
module-level private name is named somewhere in the package.

No linter ships with the toolchain, so this walks the syntax tree with the
standard library. ``__init__.py`` is exempt from the import check: its
imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gbv"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def private_definitions(tree):
    """``{name: line}`` of the module-level ``_name`` definitions (dunders
    excluded): functions, classes and assignment targets."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                out[name] = node.lineno
    return out


def referenced_names(tree):
    """Names read, named as attributes or imported anywhere in ``tree``."""
    refs = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            refs.add(n.id)
        elif isinstance(n, ast.Attribute):
            refs.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            refs.update(alias.name for alias in n.names)
    return refs


def unreferenced_privates(sources):
    """``(module, line, name)`` of the private module-level names that no
    module in ``sources`` (a ``{module: source}`` map) refers to."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    refs = set().union(*(referenced_names(t) for t in trees.values()))
    return sorted((mod, line, name) for mod, tree in trees.items()
                  for name, line in private_definitions(tree).items()
                  if name not in refs)


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit\n") == [(1, "os")]
    assert unused_imports("from a import b as c, d\nd()\n") == [(1, "c")]


def test_checker_flags_an_unreferenced_private():
    sources = {
        "a": "_LIMIT = 3\n_dead = 1\nclass _Old:\n    pass\ndef _used():\n    return _LIMIT\n",
        "b": "from a import _used\nclass _Base:\n    pass\nclass Kid(_Base):\n    pass\n",
        "c": "import a\na.__dict__\nx = a._attr\n_attr = 2\n",
    }
    assert unreferenced_privates(sources) == [("a", 2, "_dead"), ("a", 3, "_Old")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_every_private_name_is_used():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_privates(sources) == []
