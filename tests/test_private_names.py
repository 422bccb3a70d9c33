"""No library module reads another module's private names: an attribute
`X._name` is read only through `self`, and no module imports a `_name`.
A private name is one module's own state or helper; once another module
reaches into it, it can no longer change without breaking that reader."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "cppforge"
MODULES = sorted(SRC.glob("*.py"))


def _private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def private_reads(source):
    """(line, name) of each `X._name` with X not `self`, and of each
    `from mod import _name`, in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            if not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names
                      if _private(alias.name)]
    return sorted(found)


def test_modules_found():
    assert any(path.name == "scan.py" for path in MODULES)


def test_guard_flags_private_reads():
    assert private_reads("ctx._progression(1, 2, 3)") == [(1, "_progression")]
    assert private_reads("ctx._cache[k] = v") == [(1, "_cache")]
    assert private_reads("scan._r4_tagger(ctx, k)") == [(1, "_r4_tagger")]
    assert private_reads("from .oracle import CAP, _counts") == [(1, "_counts")]
    assert private_reads("from . import _mod") == [(1, "_mod")]
    assert private_reads("self._views[k] = v") == []
    assert private_reads("type(x).__name__") == []
    assert private_reads("from __future__ import annotations") == []
    assert private_reads("from .oracle import trace_counts") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_private_reads(path):
    found = private_reads(path.read_text())
    assert found == [], f"{path.name}: private names read at {found}"
