"""Four lint rules on the package source, with the standard library's ast alone.

- Every import binding is read by its module (`__init__.py`, which imports to
  re-export, and `from __future__ import annotations` are exempt).
- Every module-level private function, class or constant is referenced by some
  module of the package.
- Every module-level public function or class is referenced by another
  statement of the package: a caller, or `__init__.py`'s re-export.  A name only
  tests use is not part of the package.
- Results are exact: true division (`/`), float literals and `float()` or
  `round()` calls appear only in render.py's drawing.  The one exception is the
  0.0 a wall-clock timing starts from (TIMINGS).
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "stanleygrid").glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
DRAWING = "render.py"                    # the one module that works in floats
TIMINGS = {"duration_s", "_last_lap"}    # names whose assigned 0.0 starts a timing


def loads(node):
    """The bare names read anywhere under `node`."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def references(node):
    """The names `node` refers to: bare names read, attribute names and names imported."""
    return (loads(node)
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            | {a.name for n in ast.walk(node) if isinstance(n, ast.ImportFrom) for a in n.names})


def import_bindings(tree):
    """(line, bound name) of each import in the module, `from __future__` aside."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]


def private_definitions(tree):
    """Module-level private functions, classes and constants (no dunders)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield node, name


def test_the_package_has_modules():
    assert "verify.py" in TREES and "__init__.py" in TREES


@pytest.mark.parametrize("name", [n for n in TREES if n != "__init__.py"])
def test_every_import_is_read(name):
    read = loads(TREES[name])
    unused = [(line, bound) for line, bound in import_bindings(TREES[name]) if bound not in read]
    assert not unused, f"{name}: imported but never read: {unused}"


# what each top-level statement of the package refers to
STATEMENT_REFS = [(stmt, references(stmt)) for tree in TREES.values() for stmt in tree.body]


def referenced_elsewhere(node, name):
    """Some top-level statement other than `node` refers to `name`: a function
    calling itself is no reference."""
    return any(name in names for stmt, names in STATEMENT_REFS if stmt is not node)


def test_every_private_definition_is_referenced():
    unused = [(name, node.lineno, private) for name, tree in TREES.items()
              for node, private in private_definitions(tree) if not referenced_elsewhere(node, private)]
    assert not unused, f"private definitions nothing references: {unused}"


def test_every_public_definition_is_referenced():
    # a caller, or __init__.py's re-export: a name only tests use is not part of the package
    unused = [(name, node.lineno, node.name) for name, tree in TREES.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
              and not referenced_elsewhere(node, node.name)]
    assert not unused, f"public definitions nothing in the package references: {unused}"


def is_float(node):
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def timing_starts(tree):
    """The 0.0 literals in an assignment to one of TIMINGS."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id in TIMINGS for t in targets):
                yield from (n for n in ast.walk(node.value) if is_float(n) and n.value == 0.0)


def float_uses(tree):
    """(line, what) of each true division, float literal and float() or round() call."""
    starts = set(map(id, timing_starts(tree)))
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "/"
        elif is_float(node) and id(node) not in starts:
            yield node.lineno, repr(node.value)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("float", "round"):
            yield node.lineno, f"{node.func.id}()"


@pytest.mark.parametrize("name", [n for n in TREES if n != DRAWING])
def test_floats_appear_only_in_the_drawing(name):
    found = list(float_uses(TREES[name]))
    assert not found, f"{name}: true division, float literal or float()/round() call: {found}"


def test_the_float_rule_sees_the_drawing_and_the_timings():
    assert {what for _, what in float_uses(TREES[DRAWING])} >= {"/", "round()", "1.2"}
    assert [n.value for tree in TREES.values() for n in timing_starts(tree)] == [0.0] * 3
