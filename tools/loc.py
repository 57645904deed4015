"""Count the lines of each module of ``src/plrs``.

Usage (from the root of a checkout):

    python3 tools/loc.py            # the modules of src/plrs
    python3 tools/loc.py FILE ...   # the given files

Prints one line per module, ``total code name``, then the sums.  ``total``
counts every line.  ``code`` counts the lines that hold a token that is
neither a comment nor part of a docstring, the string that opens a module,
class or function body; blank lines hold no token.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "plrs"

# Tokens that carry no code: layout, comments and the file's bounds.
_SILENT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines: set[int] = set()
    bodies = (tree, *(
        node for node in ast.walk(tree)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    ))
    for node in bodies:
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """``(total, code)`` lines of one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SILENT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv] or sorted(SRC.glob("*.py"))
    totals = [0, 0]
    for path in paths:
        total, code = count(path.read_text(encoding="utf-8"))
        totals[0] += total
        totals[1] += code
        print(f"{total:6d} {code:6d} {path.name}")
    print(f"{totals[0]:6d} {totals[1]:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
