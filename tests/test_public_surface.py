"""Every public function, class and method of the package has a caller.

A public name (no leading underscore) is used when the package source loads
it, as a name or as an attribute, outside its own definition, or when the
acceptance tests use it. Code that only other tests call is not part of the
package. Methods of private classes are hooks that a framework calls (such
as ``argparse``) and are not checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "oilcast"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def public_definitions(tree):
    """Module-level functions and classes, and the methods of public classes."""
    for node in tree.body:
        if not isinstance(node, DEFINITIONS) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, DEFINITIONS) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member


def loads(tree):
    """(name, line) of every name or attribute the tree reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def test_every_public_name_has_a_caller():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    acceptance = ast.parse(ACCEPTANCE.read_text(encoding="utf-8"))
    exempt = {name for name, _ in loads(acceptance)}
    reads = [(module, name, line) for module, tree in trees.items()
             for name, line in loads(tree)]

    unused = []
    for module, tree in trees.items():
        for qualname, node in public_definitions(tree):
            if node.name in exempt:
                continue
            if not any(name == node.name and not (
                    other == module and node.lineno <= line <= node.end_lineno)
                       for other, name, line in reads):
                unused.append(f"{module}: {qualname}")
    assert not unused, f"public names with no caller in src or the acceptance tests: {unused}"
