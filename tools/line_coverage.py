"""List the statements of ``src/gbv`` that the tier-1 tests never run.

A pytest plugin sets a ``sys.settrace`` line tracer that follows only the
frames of modules in ``src/gbv``, and the tests run under it. A statement
ran when a line event fell on its own lines: a simple statement's lines, or
a compound statement's header (decorators included). Docstrings, ``try``,
``global`` and ``nonlocal`` carry no code of their own and are not listed.

Run from the repository root: ``python tools/line_coverage.py [PYTEST
ARGS]``. It runs ``tests/`` (or the pytest arguments given), then prints
one ``<module>:<line> <statement>`` row per statement that never ran and a
``<count> statements not run`` row, and exits with pytest's status. The
traced suite takes about 2.5 times as long as an untraced run.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

from code_lines import docstrings

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gbv"
_NO_CODE = (ast.Try, ast.Global, ast.Nonlocal)
if sys.version_info >= (3, 11):
    _NO_CODE += (ast.TryStar,)


class LineTracer:
    """The pytest plugin: the ``(file, line)`` pairs run in the package."""

    def __init__(self):
        self.lines = set()
        self._inside = {}  # co_filename -> whether it is a package module

    def _call(self, frame, event, arg):
        name = frame.f_code.co_filename
        inside = self._inside.get(name)
        if inside is None:
            inside = self._inside[name] = Path(name).resolve().parent == PACKAGE
        return self._line if inside else None

    def _line(self, frame, event, arg):
        if event == "line":
            self.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    def pytest_configure(self, config):
        threading.settrace(self._call)
        sys.settrace(self._call)

    def pytest_unconfigure(self, config):
        sys.settrace(None)
        threading.settrace(None)

    def ran(self, path):
        """The line numbers run in the module at ``path``."""
        path = path.resolve()
        return {line for name, line in self.lines if Path(name).resolve() == path}


def statements(tree):
    """``(first, last, node)`` per statement that carries code: the lines on
    which running it raises a line event, a compound statement's body
    excluded."""
    docs = docstrings(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node in docs or isinstance(node, _NO_CODE):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        inner = [child.lineno for child in ast.iter_child_nodes(node)
                 if isinstance(child, (ast.stmt, ast.excepthandler))]
        last = max(node.lineno, min(inner) - 1) if inner else node.end_lineno
        yield first, last, node


def not_run(tracer):
    """``(module, line, source)`` of every package statement that never ran."""
    rows = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines, ran = source.splitlines(), tracer.ran(path)
        for first, last, node in statements(ast.parse(source)):
            if not ran.intersection(range(first, last + 1)):
                rows.append((path.name, node.lineno, lines[node.lineno - 1].strip()))
    return sorted(rows, key=lambda row: row[:2])


def main(argv):
    os.chdir(ROOT)
    tracer = LineTracer()
    status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                          *(argv or ["tests"])], plugins=[tracer])
    rows = not_run(tracer)
    for module, line, text in rows:
        print(f"{module}:{line} {text}")
    print(f"{len(rows)} statements not run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
