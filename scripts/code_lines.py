#!/usr/bin/env python3
"""Count the code lines of the package, one count per module and the total.

    python3 scripts/code_lines.py

A code line is a physical line of `src/figfig/*.py` that holds part of a
token other than a comment: blank lines, comment lines and the module,
class and function docstrings are not counted, and a statement split over
several lines counts each of them.  The count is a measure of how much
code there is to read, for comparing two versions of the package.
"""

import ast
import io
import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "figfig"

# Tokens that hold no code of their own.
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by the module's, its classes' and its functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in the Python source file at path."""
    text = path.read_text(encoding="utf-8")
    skipped = docstring_lines(ast.parse(text))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skipped)


def main() -> None:
    total = 0
    for path in sorted(SOURCE.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:<16} {count:>5}")
    print(f"{'total':<16} {total:>5}")


if __name__ == "__main__":
    main()
