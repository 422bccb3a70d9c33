"""The library keeps no `assert` statements: `python -O` strips them, so a
mathematical invariant checked that way would silently stop being checked.
Nor does it raise AssertionError, which the CLI does not map to an exit
code: a broken invariant raises `field.InternalError` (exit 4)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "cppforge"
MODULES = sorted(SRC.glob("*.py"))


def assert_lines(source):
    """Line numbers of `assert` statements and `raise AssertionError` in
    source."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                lines.append(node.lineno)
        elif isinstance(node, ast.Assert):
            lines.append(node.lineno)
    return lines


def test_modules_found():
    assert any(path.name == "field.py" for path in MODULES)


def test_guard_flags_asserts():
    assert assert_lines("assert x") == [1]
    assert assert_lines('raise AssertionError("broken")') == [1]
    assert assert_lines("raise AssertionError") == [1]
    assert assert_lines('raise InternalError("broken")') == []
    assert assert_lines("raise") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_assert_statement(path):
    lines = assert_lines(path.read_text())
    assert lines == [], f"{path.name}: assert at line(s) {lines}"
