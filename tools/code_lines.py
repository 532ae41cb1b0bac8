"""Count the code lines of Python modules.

A code line holds at least one token that is not a comment, a docstring or
layout (newlines and indentation), so blank lines, comment lines and the
lines of module, class and function docstrings do not count.  Prints one
line per module, ``<lines> <path>``, then ``<lines> total``.

Usage: python3 tools/code_lines.py [PATH ...]   (default: src)

A directory stands for every ``*.py`` file below it.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """Line numbers taken by the docstrings of the module, its classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source):
    """Number of code lines in a module's source text."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docstrings)
    return len(lines)


def modules(paths):
    """The ``*.py`` files named by ``paths``, directories expanded, sorted."""
    found = []
    for path in map(Path, paths):
        found += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return found


def main(argv=None):
    paths = (sys.argv[1:] if argv is None else argv) or ["src"]
    total = 0
    for path in modules(paths):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
