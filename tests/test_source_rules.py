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
