"""Typed usage errors.  Resource caps raise `field.CapExceeded`, which the
CLI maps to exit code 3 by type.  A cap raised as a plain ValueError would
exit 2, as a usage error, so no module raises ValueError with a cap
message.  Parameters outside a theorem's hypotheses raise
`field.HypothesisViolation` (exit 2, like every ValueError), so no module
raises a plain ValueError with a hypothesis message either."""

import ast
from pathlib import Path

import pytest

from cppforge import families
from cppforge.field import HypothesisViolation

SRC = Path(__file__).parents[1] / "src" / "cppforge"
MODULES = sorted(SRC.glob("*.py"))
CAP_MARKERS = ("field-too-large", "cap-exceeded", "subgroup order")
HYPOTHESIS_MARKERS = ("hypothesis-violation", "gcd-violation")


def plain_value_errors(source, markers):
    """Line numbers of `raise ValueError(<message>)` in source whose
    message starts with one of markers."""
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
                and msg.value.startswith(markers):
            lines.append(node.lineno)
    return lines


def plain_cap_raises(source):
    """Line numbers of `raise ValueError(<cap message>)` in source."""
    return plain_value_errors(source, CAP_MARKERS)


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


def test_guard_flags_plain_hypothesis_raises():
    def flagged(src):
        return plain_value_errors(src, HYPOTHESIS_MARKERS)

    assert flagged('raise ValueError("hypothesis-violation: x")') == [1]
    assert flagged('raise ValueError(f"gcd-violation: {g} != 1")') == [1]
    assert flagged('raise HypothesisViolation("gcd-violation: x")') == []
    assert flagged('raise ValueError("k-not-divisor: 3")') == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_hypotheses_raise_hypothesis_violation(path):
    lines = plain_value_errors(path.read_text(), HYPOTHESIS_MARKERS)
    assert lines == [], (f"{path.name}: plain ValueError hypothesis error at "
                         f"line(s) {lines}")


@pytest.mark.parametrize("call,marker", [
    (lambda: families.tower_exponent(3, 1, 1), "gcd-violation"),
    (lambda: families.tower_exponent(3, 0, 4), "hypothesis-violation"),
    (lambda: families.dickson_hypotheses(3, 4, 2), "hypothesis-violation"),
    (lambda: families.verify_neg_one_family(2, 1), "hypothesis-violation")],
    ids=["tower-gcd", "tower-range", "dickson", "neg-one"])
def test_hypothesis_violation_is_a_value_error(call, marker):
    # still a ValueError, so the CLI keeps exit code 2
    with pytest.raises(HypothesisViolation, match=marker) as info:
        call()
    assert isinstance(info.value, ValueError)
