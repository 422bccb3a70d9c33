"""Typed usage errors.  Resource caps raise `field.CapExceeded`, which the
CLI maps to exit code 3 by type.  A cap raised as a plain ValueError would
exit 2, as a usage error, so no module raises ValueError with a cap
message.  Parameters outside a theorem's hypotheses raise
`field.HypothesisViolation` (exit 2, like every ValueError), so no module
raises a plain ValueError with a hypothesis message either.  A field
without log tables refuses any read of one with one CapExceeded, so
every table reader refuses a generic field with that message, before it
allocates anything q-sized."""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cppforge import bulk, families, niho, oracle, scan
from cppforge.field import (TABLE_CAP, CapExceeded, HypothesisViolation,
                            build_field)

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


# ----------------------------------------------------------------------
# a field without log tables refuses every table reader with one message

def _generic_f81():
    return build_field(3, 4, backend="generic")


def _x():
    return np.arange(81, dtype=np.int64)


TABLE_READERS = {
    "bulk.elements": lambda c: bulk.elements(c),
    "bulk.add": lambda c: bulk.add(c, _x(), _x()),
    "bulk.mul": lambda c: bulk.mul(c, _x(), _x()),
    "bulk.mul_scalar": lambda c: bulk.mul_scalar(c, 2, _x()),
    "bulk.pow_const": lambda c: bulk.pow_const(c, _x(), 5),
    "bulk.trace": lambda c: bulk.trace(c, _x(), 1),
    "bulk.poly_eval": lambda c: bulk.poly_eval(c, [1, 2], _x()),
    # x^2 + 1 is irreducible over F_3: the search runs on F_9 alone
    "bulk.find_root-subfield": lambda c: bulk.find_root(c, [1, 0, 1]),
    "bulk.find_root-whole": lambda c: bulk.find_root(c, [2, 1]),
    "bulk.monomial_values": lambda c: bulk.monomial_values(c, 7),
    "bulk.binomial_is_permutation":
        lambda c: bulk.binomial_is_permutation(c, 7, 1),
    "bulk.lambda_scan": lambda c: bulk.lambda_scan(c, 2, 2, _x()[1:]),
    "scan.orbit_values":
        lambda c: scan.orbit_values(c, 7, [1, 2], lambda r: [True] * len(r)),
    "scan.orbit_members":
        lambda c: scan.orbit_members(c, 7, lambda r: [True] * len(r)),
    "scan.direct_cpp_scan-coprime": lambda c: scan.direct_cpp_scan(c, 7),
    # gcd(2, 80) = 2: no CPP exponent, still refused
    "scan.direct_cpp_scan-d2": lambda c: scan.direct_cpp_scan(c, 2),
    "scan.ha_cpp_scan": lambda c: scan.ha_cpp_scan(c, 2, 2),
    # r = 1, k = 4 gives d = 2
    "scan.ha_cpp_scan-d2": lambda c: scan.ha_cpp_scan(c, 1, 4),
    "field.SubfieldView.norm_permutes":
        lambda c: c.subfield_view(2).norm_permutes([1, 2], bulk.CHECK_BLOCK),
    "niho.all_root_counts":
        lambda c: niho.all_root_counts(niho.NihoCtx(c, 2), 2),
    "oracle.is_cpp_exponent_pair":
        lambda c: oracle.is_cpp_exponent_pair(c, 7, 1),
    # a coefficient list's oracle check, gcd(2, 80) = 2 included
    "families._oracle_checked":
        lambda c: families._oracle_checked(c, 2, [1, 2]),
}


@pytest.mark.parametrize("read", [
    lambda t: t[0], len, list, np.asarray, lambda t: np.take(t, [0])],
    ids=["index", "len", "iter", "asarray", "take"])
def test_table_message(read):
    ctx = _generic_f81()
    for table in (ctx.exp_table, ctx.log_table, ctx.zech_table):
        with pytest.raises(CapExceeded) as info:
            read(table)
        msg = str(info.value)
        assert msg.startswith("field-too-large: ")
        assert "F_3^4" in msg and "cap-exceeded" in msg
        assert f"2**{TABLE_CAP.bit_length() - 1}" in msg


@pytest.mark.parametrize("name", TABLE_READERS)
def test_table_readers_refuse_a_generic_field(name):
    ctx = _generic_f81()
    with pytest.raises(CapExceeded) as want:
        ctx.exp_table[0]
    with pytest.raises(CapExceeded) as info:
        TABLE_READERS[name](ctx)
    assert str(info.value) == str(want.value)


@pytest.mark.parametrize("call", [
    lambda c: oracle.is_cpp_exponent_pair(c, 2, 1),
    lambda c: bulk.elements(c)], ids=["is_cpp_exponent_pair", "elements"])
def test_refusal_allocates_nothing_q_sized(call):
    # F_2^24 has 16 MiB of points: the refusal comes before any q-byte array
    ctx = build_field(2, 24)
    assert ctx.backend == "generic"
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="^field-too-large: F_2\\^24 "):
            call(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
