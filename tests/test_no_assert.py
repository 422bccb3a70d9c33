"""The library keeps no `assert` statements: `python -O` strips them, so a
mathematical invariant checked that way would silently stop being checked.
Raise an exception explicitly instead."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "cppforge"
MODULES = sorted(SRC.glob("*.py"))


def test_modules_found():
    assert any(path.name == "field.py" for path in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_assert_statement(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at line(s) {lines}"
