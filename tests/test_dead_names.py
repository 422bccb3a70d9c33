"""Every public top-level function or class of the library has a reader:
library code outside its own definition, or the benchmark's sources in
perfbench/, which are read as text and never imported.  A public name
that only the tests call is a scalar twin or dead code: it belongs in
tests/twins.py, or nowhere.  The names kept on purpose are pinned in
ALLOWED, one reason each."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).parents[1]
SRC = ROOT / "src" / "cppforge"

ALLOWED = {
    "niho.v_set": "the coefficient set V of the Walsh theorem; the "
                  "acceptance suite checks N(a) = 1 on it",
}


def _names(nodes):
    """Every name an AST read, attribute or from-import mentions."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                found.update(alias.name for alias in sub.names)
    return found


def unreferenced(sources, text):
    """`module.name` of each public top-level function or class in sources
    (module -> source) that no library code outside its own definition
    names and that text (the benchmark's sources) does not mention."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    found = []
    for mod, tree in trees.items():
        elsewhere = _names(t for m, t in trees.items() if m != mod)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            rest = _names(stmt for stmt in tree.body if stmt is not node)
            if node.name in elsewhere | rest:
                continue
            if re.search(rf"\b{node.name}\b", text) is None:
                found.append(f"{mod}.{node.name}")
    return sorted(found)


def test_modules_found():
    assert any(path.name == "families.py" for path in SRC.glob("*.py"))


def test_guard_flags_unreferenced():
    sources = {
        "a": "def used(): pass\n"
             "def dead(): pass\n"
             "class Dead: pass\n"
             "def _private(): pass\n"
             "def recursive(n):\n    return recursive(n - 1)\n"
             "def local(): pass\n"
             "TABLE = {'x': local}\n",
        "b": "from .a import used\n"
             "def caller(m):\n    return m.attr_used()\n",
        "c": "def attr_used(): pass\n"
             "def benched(): pass\n",
    }
    assert unreferenced(sources, "") == [
        "a.Dead", "a.dead", "a.recursive", "b.caller", "c.benched"]
    assert unreferenced(sources, "span('c', 'benched')\ncaller") == [
        "a.Dead", "a.dead", "a.recursive"]


def test_no_dead_names():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    text = "\n".join(path.read_text()
                     for path in sorted((ROOT / "perfbench").glob("*.py")))
    assert unreferenced(sources, text) == sorted(ALLOWED)
    assert all(reason.strip() for reason in ALLOWED.values())
