"""Count the code lines of the package's Python files.

A code line holds a token that is neither a comment nor part of a
docstring; blank lines, comment lines and docstring lines are not
counted.  A docstring is the string literal that opens a module, class
or function body.  Standard library only (``ast`` and ``tokenize``).

    python3 tools/code_lines.py [ROOT]

prints one line per file, sorted by path, and the total last.  ROOT is
``src`` beside this script's directory when not given.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The lines of ``path`` that hold a token outside comments and docstrings."""
    source = path.read_bytes()
    skipped = docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as file:
        for token in tokenize.tokenize(file.readline):
            if token.type not in SKIPPED:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skipped)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src"
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
