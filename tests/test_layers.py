"""Imports point one way.  The library's modules form one order of layers,
and a module imports only from layers before its own, at the top of the
module: a module never needs the decisions of a layer above it, and no
import waits inside a function to break a cycle.  `from . import
__version__` reads the package's version string and is exempt; the
package's own `__init__`, which re-exports field names, sits on top."""

import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "cppforge"

LAYERS = ("field", "bulk", "oracle", "hadickson", "niho", "scan", "families",
          "report", "cli", "__init__")


def relative_imports(source):
    """(line, target module, at module level) of each relative import in
    source; `from . import __version__` is left out."""
    tree = ast.parse(source)
    top = {id(node) for node in tree.body}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or not node.level:
            continue
        targets = [node.module] if node.module else \
            [alias.name for alias in node.names if alias.name != "__version__"]
        found += [(node.lineno, t, id(node) in top) for t in targets]
    return found


def layer_violations(sources):
    """`module:line message` for each module without a layer, each relative
    import inside a function or block, and each relative import of a
    module that is not on an earlier layer, over sources (module ->
    source)."""
    found = []
    for mod, source in sorted(sources.items()):
        if mod not in LAYERS:
            found.append(f"{mod}:0 has no layer")
            continue
        for line, target, at_top in relative_imports(source):
            if not at_top:
                found.append(f"{mod}:{line} imports {target} inside a block")
            if target not in LAYERS[:LAYERS.index(mod)]:
                found.append(f"{mod}:{line} imports {target} from a later layer")
    return found


def test_guard_flags_violations():
    sources = {
        "field": "import math\n"
                 "def f():\n    from . import bulk\n",
        "bulk": "from .field import CapExceeded\n",
        "scan": "from . import __version__, bulk\n"
                "def g():\n    from .families import tower_exponent\n",
        "families": "from . import bulk, scan\nfrom .field import build_field\n",
        "extra": "from .field import build_field\n",
    }
    assert layer_violations(sources) == [
        "extra:0 has no layer",
        "field:3 imports bulk inside a block",
        "field:3 imports bulk from a later layer",
        "scan:3 imports families inside a block",
        "scan:3 imports families from a later layer",
    ]


def test_imports_point_down_the_layers():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert set(sources) == set(LAYERS)
    assert layer_violations(sources) == []
