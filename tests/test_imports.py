"""Every module-level import in ``src/gbv`` is used by its module, every
module-level private name is named somewhere in the package, every
public module-level function or class is named by another module or
exported in ``__all__``, and every public method or property is named as
an attribute in the package or the benchmark.

No linter ships with the toolchain, so this walks the syntax tree with the
standard library. ``__init__.py`` is exempt from the import check: its
imports are re-exports. ``cli.py`` is exempt from the public-name check: it
is the console script (``gbv.cli:main``), and argparse reaches its commands.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gbv"
PERFBENCH = SRC.parent.parent / "perfbench"
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


def exported_names(tree):
    """The names a module-level ``__all__`` list or tuple holds."""
    return {elt.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for elt in node.value.elts}


def orphaned_publics(sources, exempt=()):
    """``(module, line, name)`` of the public module-level functions and
    classes of ``sources`` (a ``{module: source}`` map) that no other module
    names and no ``__all__`` exports; the modules in ``exempt`` are not
    checked, but their references count."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    refs = {mod: referenced_names(tree) for mod, tree in trees.items()}
    exported = set().union(*(exported_names(t) for t in trees.values()))
    return sorted(
        (mod, node.lineno, node.name) for mod, tree in trees.items() if mod not in exempt
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in exported
        and not any(node.name in r for other, r in refs.items() if other != mod))


def unused_methods(sources, users=()):
    """``(module, line, "Class.name")`` of the public methods and properties
    of the classes in ``sources`` (a ``{module: source}`` map) that no
    attribute names outside their own definition, in ``sources`` or in
    ``users`` (a list of sources). Dunders are exempt. Names are matched,
    not types: a method counts as used when any attribute shares its name."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    named = Counter()
    for tree in [*trees.values(), *map(ast.parse, users)]:
        named.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))
    return sorted(
        (mod, node.lineno, f"{cls.name}.{node.name}")
        for mod, tree in trees.items()
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and named[node.name] == sum(isinstance(n, ast.Attribute) and n.attr == node.name
                                    for n in ast.walk(node)))


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


def test_checker_flags_an_orphaned_public():
    sources = {
        "a": "def kernel():\n    pass\ndef helper():\n    pass\nclass Spec:\n    pass\n"
             "helper()\n",
        "b": "from .a import Spec\ndef run():\n    pass\n",
        "__init__": "from .b import run\n__all__ = ['run']\n",
    }
    assert orphaned_publics(sources) == [("a", 1, "kernel"), ("a", 3, "helper")]
    assert orphaned_publics(sources, exempt=("a",)) == []


def test_every_public_name_is_used_or_exported():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert orphaned_publics(sources, exempt=("cli.py",)) == []


def test_checker_flags_an_unused_method():
    sources = {
        "a": "class Spec:\n    def solve(self):\n        return self.solve()\n"
             "    @property\n    def size(self):\n        return 1\n"
             "    def run(self):\n        return self.size\n"
             "    def __add__(self, other):\n        pass\n",
        "b": "class Kid:\n    def load(self):\n        pass\n",
    }
    assert unused_methods(sources) == [("a", 2, "Spec.solve"), ("a", 7, "Spec.run"),
                                       ("b", 2, "Kid.load")]
    assert unused_methods(sources, users=["x.load()\nx.run\n"]) == [("a", 2, "Spec.solve")]


def test_every_public_method_is_used():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    users = [p.read_text() for p in sorted(PERFBENCH.glob("*.py"))]
    assert unused_methods(sources, users) == []


def functions_holding(tree, text):
    """Names of the functions that hold a string constant, plain or part
    of an f-string, containing ``text``."""
    return {fn.name for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(isinstance(n, ast.Constant) and isinstance(n.value, str) and text in n.value
                    for n in ast.walk(fn))}


def test_checker_finds_a_message_in_two_functions():
    source = ("def a(k):\n    raise E(f'index {k} outside horizon')\n"
              "class C:\n    def b(self):\n        return 'outside horizon 1..3'\n"
              "    def c(self):\n        return 'inside'\n")
    assert functions_holding(ast.parse(source), "outside horizon") == {"a", "b"}


def test_one_function_builds_the_horizon_message():
    owners = {(p.name, name) for p in MODULES
              for name in functions_holding(ast.parse(p.read_text()), "outside horizon")}
    assert owners == {("sequences.py", "check_horizon")}


def raised_or_caught(tree):
    """Names of the exception classes that a ``raise`` or an ``except``
    clause in ``tree`` names; a raised call counts its callee, not its
    arguments."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            targets = [node.exc.func if isinstance(node.exc, ast.Call) else node.exc]
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            targets = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        else:
            continue
        names.update(t.id if isinstance(t, ast.Name) else t.attr for t in targets
                     if isinstance(t, (ast.Name, ast.Attribute)))
    return names


def test_checker_finds_raised_and_caught_classes():
    source = ("try:\n    raise A(B)\nexcept (C, mod.D):\n    raise\n"
              "except E as exc:\n    raise mod.F from exc\nexcept:\n    G = H\n")
    assert raised_or_caught(ast.parse(source)) == {"A", "C", "D", "E", "F"}


def test_every_error_class_is_raised_or_caught():
    classes = {node.name for node in ast.parse((SRC / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)}
    named = set().union(*(raised_or_caught(ast.parse(p.read_text())) for p in SRC.glob("*.py")))
    assert sorted(classes - named) == []


def test_inequalities_do_not_import_criteria():
    tree = ast.parse((SRC / "inequalities.py").read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
    assert not any(name and name.split(".")[-1] == "criteria" for name in imported)
