"""Every public function, class and method of the package has a caller, every
dataclass field a reader, and every import a use.

A public name (no leading underscore) is used when the package source loads
it, as a name or as an attribute, outside its own definition, or when the
acceptance tests use it. Code that only other tests call is not part of the
package. Methods of private classes are hooks that a framework calls (such
as ``argparse``) and are not checked.

A dataclass field is read when the package source, the benchmark or the
acceptance tests load an attribute of its name. A field that only tests
read is stored for nothing, unless ``UNREAD_FIELDS`` says why it stays.

A name a module imports is used when the module loads it as a name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "oilcast"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
PERFBENCH = ROOT / "perfbench"

# dataclass field -> why it stays although nothing above reads it
UNREAD_FIELDS = {
    "PipelineModel.elbow_curve": "the fit's trace is to record the elbow curve behind k",
    "KpcaModel.eigenvalues": "the fit's trace is to record each cluster's retained spectrum",
    "GrangerResult.fstats": "the screen's trace is to record the F statistic of each candidate",
    "ArModel.scores": "tests check the AR order selection through the criteria per order",
}

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


def dataclass_fields(tree):
    """(qualified name, field name) of every field of a module-level dataclass."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                getattr(getattr(decorator, "func", decorator), "id", None) == "dataclass"
                for decorator in node.decorator_list):
            for member in node.body:
                if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    yield f"{node.name}.{member.target.id}", member.target.id


def test_every_dataclass_field_is_read():
    paths = [*sorted(SRC.glob("*.py")), *sorted(PERFBENCH.glob("*.py")), ACCEPTANCE]
    read = {node.attr for path in paths for node in ast.walk(ast.parse(path.read_text("utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields = dict(field for path in sorted(SRC.glob("*.py"))
                  for field in dataclass_fields(ast.parse(path.read_text("utf-8"))))
    unread = sorted(qualname for qualname, name in fields.items() if name not in read)
    assert unread == sorted(UNREAD_FIELDS), (
        f"fields with no reader in src, perfbench or the acceptance tests: "
        f"{sorted(set(unread) - set(UNREAD_FIELDS))}; listed as unread but read or gone: "
        f"{sorted(set(UNREAD_FIELDS) - set(unread))}")


def imported_names(tree):
    """(bound name, line) of every import in the tree, ``from __future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_import_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported_names(tree)
                   if name not in used]
    assert not unused, f"imports that nothing in their module uses: {unused}"
