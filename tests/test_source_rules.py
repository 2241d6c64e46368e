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
    ("chevalley", "ChevalleyAlgebra.zero"): "an element constructor the tests build with",
    ("chevalley", "ChevalleyAlgebra.h"): "an element constructor the tests build with",
    ("chevalley", "ChevalleyAlgebra.e"): "an element constructor the tests build with",
    ("chevalley", "ChevalleyAlgebra.bracket"): "the benchmark's tracer wraps it by name",
    ("rootsys", "RootSystem.inner"): "the benchmark's tracer wraps it by name",
}


def _definitions(node, prefix=""):
    """(qualified name, name, is a method) of every function and class under `node`, nested ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            is_method = isinstance(node, ast.ClassDef) and not isinstance(child, ast.ClassDef)
            yield prefix + child.name, child.name, is_method
            yield from _definitions(child, f"{prefix}{child.name}.")
        else:
            yield from _definitions(child, prefix)


def _trees():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in SOURCES}


def test_every_definition_is_used_exported_or_allowed():
    # code nothing uses is deleted: each function or class is named somewhere
    # in the package, exported, or listed above; dunder methods are called by
    # the language.  A method or property counts as named only by an
    # attribute (x.name); any other definition also by a bare name or an
    # import.  Still missed: an instance attribute only the tests read (only
    # functions and classes count as definitions here, so a table set in
    # __init__ escapes the rule), and a dead method whose name an attribute of
    # another class also carries.
    trees = _trees()
    attributes, names = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.rpartition(".")[2] for alias in node.names)
    names |= attributes
    names.update(name for exported in c1atlas._EXPORTS.values() for name in exported)
    unused = [
        (module, qualified)
        for module, tree in trees.items()
        for qualified, name, is_method in _definitions(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in (attributes if is_method else names)
        and (module, qualified) not in UNREFERENCED_ALLOWED
    ]
    assert not unused, f"defined but never named: {unused}"


# (reader, owner, name): why the reader may read a private name of the owner
PRIVATE_READS_ALLOWED = {
    ("chevalley", "rootsys", "_root_len6"): "six-fold squared root lengths drive the length-ratio divmods",
    ("chevalley", "rootsys", "_gram6"): "the coroot coefficients divide by six-fold simple-root lengths",
    ("chevalley", "rootsys", "_length6"): "the coroot coefficients divide by the six-fold root length",
    ("verify", "rootsys", "_root_len6"): "root counts by length class, against the closed form",
    ("catalog", "rootsys", "_root_len6"): "a space's multiplicities are keyed by six-fold squared root length",
    ("shapeops", "chevalley", "_b_theta_rows"): "chevalley owns the int rows of b_theta; shapeops reads them in place",
}


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_definitions(tree):
    """Private names a module defines: functions, classes, assignments, slots and self attributes."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                out.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
        ):
            out.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return {name for name in out if isinstance(name, str) and _private(name)}


def test_private_names_cross_modules_only_where_allowed():
    # each table format has one owning module; another module reads it only
    # through an entry above.  A read counts as cross-module when the reader
    # defines no name of that spelling and another module does, so a name
    # that two modules define is taken for the reader's own.
    trees = _trees()
    defined = {module: _private_definitions(tree) for module, tree in trees.items()}
    reads = set()
    for reader, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                read = [alias.name for alias in node.names]
            else:
                continue
            for name in read:
                if _private(name) and name not in defined[reader]:
                    reads.update((reader, owner, name) for owner in defined if name in defined[owner])
    assert reads == set(PRIVATE_READS_ALLOWED), sorted(reads ^ set(PRIVATE_READS_ALLOWED))
