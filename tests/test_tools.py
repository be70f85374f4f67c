"""Fast smoke tests of the measuring tools under ``tools/``, whose output
the change log quotes: ``code_lines``, ``line_coverage.statements`` and a
slice of ``cli_sweep``."""

import ast
import importlib.util
import re
import textwrap
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _tool(name, monkeypatch):
    # line_coverage imports code_lines as a sibling module
    monkeypatch.syspath_prepend(str(TOOLS))
    spec = importlib.util.spec_from_file_location(f"tool_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = textwrap.dedent('''\
    """A module docstring
    of two lines."""

    import math  # a comment after code

    # a comment line


    def f(x):
        """A function docstring."""
        text = """a string
        over two lines"""
        return math.sqrt(x) + len(text)


    class C:
        """A class docstring."""

        y = (1,
             2)
    ''')


def test_code_lines_counts_only_code(tmp_path, monkeypatch):
    code_lines = _tool("code_lines", monkeypatch)
    path = tmp_path / "m.py"
    path.write_text(SOURCE)
    # import, def, text's two lines, return, class and y's two lines: the
    # docstrings, the comment line and the blank lines are left out
    assert code_lines.code_lines(path) == 8


def test_statements_lists_code_with_its_lines(monkeypatch):
    line_coverage = _tool("line_coverage", monkeypatch)
    rows = [(first, last, type(node).__name__)
            for first, last, node in line_coverage.statements(ast.parse(SOURCE))]
    # the docstrings carry no code; a compound statement's range stops
    # before its body
    assert sorted(rows) == [(4, 4, "Import"), (9, 9, "FunctionDef"), (11, 12, "Assign"),
                            (13, 13, "Return"), (16, 16, "ClassDef"), (19, 20, "Assign")]


def test_cli_sweep_slice_prints_digest_lines(monkeypatch):
    cli_sweep = _tool("cli_sweep", monkeypatch)
    calls = cli_sweep._calls()[:3]
    lines = list(cli_sweep.sweep_lines(calls))
    assert len(lines) == 3
    for line, argv in zip(lines, calls):
        assert re.fullmatch(r"\S+ [0-9a-f]{64} [0-9a-f]{64} .+", line)
        code, _, _, rest = line.split(" ", 3)
        assert code == "0" and rest.startswith(" ".join(argv))
