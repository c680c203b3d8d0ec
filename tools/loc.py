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
    python3 tools/loc.py --base REV # this checkout's src/oilcast against git revision REV

prints a Markdown table with one row per module, sorted by name, and a total
row last, so two checkouts' tables can be put side by side. With ``--base``
each row holds the module's two figures at REV (read with ``git show``, so
the working tree's files are what "now" counts), now, and the change; a
module present on one side only counts 0 lines on the other.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import subprocess
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "src/oilcast"
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


def folder_counts(folder: str) -> dict[str, tuple[int, int]]:
    """(physical, code) lines of each module in a package directory, by file name."""
    counts = {}
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py"):
            with open(os.path.join(folder, name), encoding="utf-8") as fh:
                counts[name] = count_lines(fh.read())
    return counts


def revision_counts(rev: str) -> dict[str, tuple[int, int]]:
    """(physical, code) lines of each ``src/oilcast`` module at git revision ``rev``."""
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                              encoding="utf-8", check=True).stdout

    names = [line.rsplit("/", 1)[-1] for line in
             git("ls-tree", "--name-only", rev, f"{PACKAGE}/").splitlines()]
    return {name: count_lines(git("show", f"{rev}:{PACKAGE}/{name}"))
            for name in sorted(names) if name.endswith(".py")}


def total(counts: dict[str, tuple[int, int]]) -> tuple[int, int]:
    return sum(c[0] for c in counts.values()), sum(c[1] for c in counts.values())


def print_table(counts: dict[str, tuple[int, int]]) -> None:
    print("| module | lines | code lines |")
    print("|---|---:|---:|")
    for name, (lines, code) in [*((f"`{name}`", c) for name, c in counts.items()),
                                ("total", total(counts))]:
        print(f"| {name} | {lines} | {code} |")


def print_change(rev: str, base: dict[str, tuple[int, int]], now: dict[str, tuple[int, int]]) -> None:
    print(f"| module | lines at `{rev}` | code lines at `{rev}` | lines now | code lines now "
          "| lines change | code lines change |")
    print("|---|---:|---:|---:|---:|---:|---:|")
    rows = [(f"`{name}`", base.get(name, (0, 0)), now.get(name, (0, 0)))
            for name in sorted(set(base) | set(now))]
    rows.append(("total", total(base), total(now)))
    for name, (lines_b, code_b), (lines_n, code_n) in rows:
        print(f"| {name} | {lines_b} | {code_b} | {lines_n} | {code_n} "
              f"| {lines_n - lines_b:+d} | {code_n - code_b:+d} |")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("folder", nargs="?", default=os.path.join(ROOT, *PACKAGE.split("/")))
    parser.add_argument("--base", metavar="REV", help="also count src/oilcast at this git revision")
    args = parser.parse_args(argv)
    now = folder_counts(args.folder)
    if args.base is None:
        print_table(now)
    else:
        print_change(args.base, revision_counts(args.base), now)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
