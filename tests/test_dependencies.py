"""Every module a test imports is installed by ``pip install -e '.[test]'``.

A test module may import the standard library, ``oilcast``, and the packages
that ``pyproject.toml`` names in ``[project] dependencies`` or in the
``test`` extra. Each package named there installs a top-level module of the
same name.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib", reason="tomllib is in the standard library from 3.11")

ROOT = Path(__file__).resolve().parent.parent


def declared_modules():
    """Top-level module names of the runtime and test requirements."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
            for req in requirements}


def imported_modules(tree):
    """(top-level module, line) of every absolute import in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0], node.lineno


def test_test_modules_import_only_declared_packages():
    allowed = set(sys.stdlib_module_names) | {"oilcast"} | declared_modules()
    undeclared = [f"{path.name}:{line}: {name}"
                  for path in sorted((ROOT / "tests").glob("*.py"))
                  for name, line in imported_modules(ast.parse(path.read_text(encoding="utf-8")))
                  if name not in allowed]
    assert not undeclared, f"imports that pyproject.toml does not declare: {undeclared}"
