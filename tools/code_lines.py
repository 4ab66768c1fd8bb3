"""Count the code lines of each `src/fcfam` module and their total.

A line counts when it holds a token that is not a comment, a NEWLINE, NL,
INDENT or DEDENT token, or part of a module, class or function docstring.
A token that spans lines (a multi-line string) counts on each of them.

Run from the repository root:  python tools/code_lines.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# ENDMARKER sits on the line after the last one
_SKIP = {tokenize.COMMENT, tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    """The number of code lines in a module's source."""
    docs = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main() -> int:
    root = Path(__file__).resolve().parent.parent / "src" / "fcfam"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.stem:12} {count:6,}")
    print(f"{'total':12} {total:6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
