"""Each `verify` family and each `conjecture` id refuses the options it
does not read (exit 2), so a benchmark harness command that passed one
would fail its run.  The commands are read from perfbench/workloads.py
with ast, as test_tracer_names reads the tracer, and checked against the
options each family or id declares."""

import ast
import re
from pathlib import Path

import pytest

from cppforge import cli
from cppforge.families import FAMILIES

WORKLOADS = Path(__file__).parents[1] / "perfbench" / "workloads.py"


def _verify_commands():
    # SIZES[workload][size]["verify"]: (family, option, value, ...) tuples
    for node in ast.parse(WORKLOADS.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and getattr(node.targets[0], "id", None) == "SIZES":
            sizes = ast.literal_eval(node.value)
    return sorted({tuple(spec) for workload in sizes.values()
                   for cfg in workload.values()
                   for spec in cfg.get("verify", ())})


def test_harness_commands_found():
    assert len(_verify_commands()) >= 8


@pytest.mark.parametrize("spec", _verify_commands(), ids=" ".join)
def test_harness_command_uses_declared_options(spec):
    family, *args = spec
    flags = args[::2]
    assert all(f.startswith("--") for f in flags)
    assert {f[2:] for f in flags} <= set(FAMILIES[family][0])


def test_declared_options_are_verify_options(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["verify", "--help"])
    parsed = set(re.findall(r"--(\w+)", capsys.readouterr().out))
    declared = {o for options, _ in FAMILIES.values() for o in options}
    assert declared <= parsed - {"family", "help"}


def _conjecture_commands():
    # the ["conjecture", "--id", N, flag, value, ...] lists that
    # _harness_commands builds: (N, the -- flags after the id)
    for node in ast.parse(WORKLOADS.read_text()).body:
        if isinstance(node, ast.FunctionDef) and node.name == "_harness_commands":
            func = node
    found = []
    for node in ast.walk(func):
        if isinstance(node, ast.List) and node.elts \
                and getattr(node.elts[0], "value", None) == "conjecture":
            words = [getattr(e, "value", None) for e in node.elts]
            assert words[1] == "--id"
            found.append((int(words[2]), tuple(
                w for w in words[3:] if isinstance(w, str) and w.startswith("--"))))
    return sorted(set(found))


def test_conjecture_commands_found():
    assert {n for n, _ in _conjecture_commands()} == {1, 2}


@pytest.mark.parametrize("ident,flags", _conjecture_commands(),
                         ids=[f"id{n}{''.join(flags)}"
                              for n, flags in _conjecture_commands()])
def test_conjecture_command_uses_declared_options(ident, flags):
    assert {f[2:] for f in flags} <= set(cli.CONJECTURE_OPTIONS[ident])


def test_declared_conjecture_options_are_parser_options(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["conjecture", "--help"])
    parsed = set(re.findall(r"--(\w+)", capsys.readouterr().out))
    declared = {o for options in cli.CONJECTURE_OPTIONS.values()
                for o in options}
    assert declared <= parsed - {"id", "help"}
