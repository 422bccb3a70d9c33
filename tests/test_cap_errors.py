"""Resource caps raise `field.CapExceeded`, which the CLI maps to exit code
3 by type.  A cap raised as a plain ValueError would exit 2, as a usage
error, so no module raises ValueError with a cap message."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "cppforge"
MODULES = sorted(SRC.glob("*.py"))
CAP_MARKERS = ("field-too-large", "cap-exceeded", "subgroup order")


def plain_cap_raises(source):
    """Line numbers of `raise ValueError(<cap message>)` in source."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and isinstance(node.exc.func, ast.Name)
                and node.exc.func.id == "ValueError" and node.exc.args):
            continue
        msg = node.exc.args[0]
        if isinstance(msg, ast.JoinedStr) and msg.values:
            msg = msg.values[0]
        if isinstance(msg, ast.Constant) and isinstance(msg.value, str) \
                and msg.value.startswith(CAP_MARKERS):
            lines.append(node.lineno)
    return lines


def test_guard_flags_plain_cap_raises():
    assert plain_cap_raises('raise ValueError("cap-exceeded: x")') == [1]
    assert plain_cap_raises('raise ValueError(f"subgroup order {s} big")') \
        == [1]
    assert plain_cap_raises('raise CapExceeded("field-too-large: x")') == []
    assert plain_cap_raises('raise ValueError("not-prime: 4")') == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_caps_raise_cap_exceeded(path):
    lines = plain_cap_raises(path.read_text())
    assert lines == [], f"{path.name}: plain ValueError cap at line(s) {lines}"
