"""The benchmark tracer wraps library functions by (module, attribute) name;
a rename in cppforge must fail here, not only in a traced benchmark run."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def _wrapped_names():
    # read the tables as literals: the tracer module is neither imported
    # nor compiled
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANS", "TIMED", "COUNTED"):
                tables[name] = ast.literal_eval(node.value)
    assert set(tables) == {"SPANS", "TIMED", "COUNTED"}
    return sorted({pair for table in tables.values() for pair in table.values()})


@pytest.mark.parametrize("module,path", _wrapped_names())
def test_tracer_target_resolves(module, path):
    obj = importlib.import_module(f"cppforge.{module}")
    for attr in path.split("."):
        obj = getattr(obj, attr)
    assert callable(obj)
