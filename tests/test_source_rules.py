"""Rules on the package source that no installed linter enforces.

Library checks must still fire under ``python -O``, which strips ``assert``
statements; so the package raises typed errors and holds no ``assert``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import c1atlas

SOURCES = sorted(Path(c1atlas.__file__).parent.glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "rootsys.py", "shapeops.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements at lines {lines}"


BASIS_TAGS = {"h", "e", "ih", "ie"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_basis_labels_stay_in_chevalley(path):
    # a real basis vector is an index everywhere; only chevalley spells its
    # label, a tuple such as ("e", lam) or ("ih", i)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Tuple)
        and node.elts
        and isinstance(node.elts[0], ast.Constant)
        and node.elts[0].value in BASIS_TAGS
    ]
    if path.name == "chevalley.py":
        assert lines, "chevalley.py should spell the basis labels"
    else:
        assert not lines, f"{path.name} spells a basis label at lines {lines}"


# defined, named nowhere in the package and not exported, for a reason
UNREFERENCED_ALLOWED = {
    ("linalg", "mat_vec"): "the benchmark's tracer wraps it by name",
    ("linalg", "inverse"): "the benchmark's tracer wraps it by name",
    ("shapeops", "SolvableModel.levi_civita"): "the tests' reference for the Koszul formula",
}


def _definitions(node, prefix=""):
    """(qualified name, name) of every function and class under `node`, nested ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + child.name, child.name
            yield from _definitions(child, f"{prefix}{child.name}.")
        else:
            yield from _definitions(child, prefix)


def test_every_definition_is_used_exported_or_allowed():
    # code nothing uses is deleted: each function or class is named somewhere
    # in the package (a Name, an Attribute or an import), exported, or listed
    # above; dunder methods are called by the language
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in SOURCES}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                named.update(alias.name.rpartition(".")[2] for alias in node.names)
    named.update(name for names in c1atlas._EXPORTS.values() for name in names)
    unused = [
        (module, qualified)
        for module, tree in trees.items()
        for qualified, name in _definitions(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in named
        and (module, qualified) not in UNREFERENCED_ALLOWED
    ]
    assert not unused, f"defined but never named: {unused}"
