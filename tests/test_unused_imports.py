"""Every name a library module imports is read in that module.  An import
left behind when its last reader goes is a dependency the module no
longer has.  The package's `__init__` imports in order to re-export, and
`from __future__` imports name compiler features, so both are exempt."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "cppforge"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """The names that source's imports bind and that no expression of it
    reads (the first component of a dotted `import a.b`)."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(name for name in bound if name not in read)


def test_guard_flags_unused_imports():
    assert unused_imports("import os\n") == ["os"]
    assert unused_imports("import os.path\nos.sep\n") == []
    assert unused_imports("import numpy as np\nnp.zeros(1)\n") == []
    assert unused_imports("from .field import CapExceeded, build_field\n"
                          "build_field(3, 1)\n") == ["CapExceeded"]
    assert unused_imports("from a import b as c\nb = 1\nprint(b)\n") == ["c"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_imports_are_read(path):
    names = unused_imports(path.read_text())
    assert names == [], f"{path.name}: imported but never read: {names}"
