"""Every public top-level function or class of the library, and every
public method of a library class, has a reader: library code outside its
own definition, or the benchmark's sources in perfbench/, which are read
as text and never imported.  A public name that only the tests call is a
scalar twin or dead code: it belongs in tests/twins.py, or nowhere."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).parents[1]
SRC = ROOT / "src" / "cppforge"


def _names(nodes, skip=None):
    """Every name an AST read, attribute or from-import mentions, outside
    the subtree skip."""
    found = set()
    stack = list(nodes)
    while stack:
        sub = stack.pop()
        if sub is skip:
            continue
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
        stack.extend(ast.iter_child_nodes(sub))
    return found


def _public_defs(tree):
    """(dotted name, node) of each public top-level function or class of
    a module and each public method of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) \
                        and not method.name.startswith("_"):
                    yield f"{node.name}.{method.name}", method


def unreferenced(sources, text):
    """`module.name` of each public top-level function or class, and
    `module.Class.method` of each public method, in sources (module ->
    source) that no library code outside its own definition names and that
    text (the benchmark's sources) does not mention."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    found = []
    for mod, tree in trees.items():
        elsewhere = _names(t for m, t in trees.items() if m != mod)
        for dotted, node in _public_defs(tree):
            if node.name in elsewhere | _names([tree], skip=node):
                continue
            if re.search(rf"\b{node.name}\b", text) is None:
                found.append(f"{mod}.{dotted}")
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
             "TABLE = {'x': local}\n"
             "class Box:\n"
             "    def sibling(self): pass\n"
             "    def unread(self): return self.sibling()\n"
             "    def looped(self): return self.looped()\n"
             "    def _hidden(self): pass\n"
             "    def __len__(self): return 0\n",
        "b": "from .a import used, Box\n"
             "def caller(m):\n    return m.attr_used()\n",
        "c": "def attr_used(): pass\n"
             "def benched(): pass\n",
    }
    assert unreferenced(sources, "") == [
        "a.Box.looped", "a.Box.unread", "a.Dead", "a.dead", "a.recursive",
        "b.caller", "c.benched"]
    assert unreferenced(sources, "span('c', 'benched')\ncaller") == [
        "a.Box.looped", "a.Box.unread", "a.Dead", "a.dead", "a.recursive"]


def test_no_dead_names():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    text = "\n".join(path.read_text()
                     for path in sorted((ROOT / "perfbench").glob("*.py")))
    assert unreferenced(sources, text) == []
