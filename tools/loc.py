"""Count the lines of each ``src/oilcast`` module, one method for every report.

Two figures per module: its physical lines (what ``wc -l`` counts) and its
code lines, the lines that hold at least one token that is neither a comment
nor part of a docstring. A docstring is the string-literal expression that
opens a module, class or function body; every line of it is left out. Blank
lines, comment-only lines and line continuations inside brackets that hold
no token are left out too. A line a multi-line string (not a docstring)
spans counts as code.

Usage:

    python3 tools/loc.py            # this checkout's src/oilcast
    python3 tools/loc.py DIR        # the modules of another package directory

prints a Markdown table with one row per module, sorted by name, and a total
row last, so two checkouts' tables can be put side by side.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """(line, column) where each docstring literal of ``tree`` starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def count_lines(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source."""
    docstrings = docstring_starts(ast.parse(source))
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in SKIPPED:
            continue
        if token.type == tokenize.STRING and token.start in docstrings:
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    folder = argv[0] if argv else os.path.join(ROOT, "src", "oilcast")
    names = sorted(name for name in os.listdir(folder) if name.endswith(".py"))
    rows = []
    for name in names:
        with open(os.path.join(folder, name), encoding="utf-8") as fh:
            rows.append((name, *count_lines(fh.read())))
    rows.append(("total", sum(row[1] for row in rows), sum(row[2] for row in rows)))
    print("| module | lines | code lines |")
    print("|---|---:|---:|")
    for name, lines, code in rows:
        print(f"| `{name}` | {lines} | {code} |" if name != "total" else
              f"| total | {lines} | {code} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
