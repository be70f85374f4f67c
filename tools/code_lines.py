"""Count the code lines of each module of ``src/gbv`` and of the package.

A code line holds a Python token other than a comment, a line break
(NL/NEWLINE), INDENT/DEDENT or the end marker, and lies outside every
module, class and function docstring; a token that spans several lines (a
multi-line string) makes each of them a code line.

Run from the repository root: ``python tools/code_lines.py [DIR]``, where
DIR defaults to ``src/gbv``. It prints one ``<lines> <module>`` row per
module and a ``<lines> total`` row.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstrings(tree):
    """The docstring statements of the module, its classes and functions."""
    docs = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.add(first)
    return docs


def code_lines(path):
    """The number of code lines of the Python file ``path``."""
    source = Path(path).read_bytes()
    docs = {line for doc in docstrings(ast.parse(source))
            for line in range(doc.lineno, doc.end_lineno + 1)}
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else "src/gbv")
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d} {path.name}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main(sys.argv)
