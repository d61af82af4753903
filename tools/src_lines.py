"""Count the lines of the library source: all lines and code lines.

Code lines are those that are not blank, not comment-only and not part of a
docstring (of a module, class or function). Run from the repository root:

    python3 tools/src_lines.py [DIR]

DIR defaults to `src`. Prints the two totals, one per line.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(total lines, code lines) of one Python source."""
    skip = _docstring_lines(ast.parse(text))
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    code = set()
    for tok in tokens:
        if tok.type in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                        tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - skip)


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src")
    total = code = 0
    for path in sorted(root.rglob("*.py")):
        t, c = count(path.read_text(encoding="utf-8"))
        total += t
        code += c
    print(f"total lines {total}")
    print(f"code lines  {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
