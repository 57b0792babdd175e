"""Import hygiene: every module-level import in src/lisim is used, and
every top-level definition there is referenced by the package, the scripts
or the benchmark.

An import kept only for an outside reader of the module's namespace says so
with `# noqa: F401` on one of its lines.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lisim"
# code outside the package that runs it; the tests are not among its readers
READERS = ("scripts", "perfbench")
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


def _unused_imports(source: str) -> list[str]:
    """The names that the module-level imports of `source` bind and that
    the module never references, apart from imports marked `# noqa: F401`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name
            bound[name if isinstance(node, ast.ImportFrom) else name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_imports_are_used(module):
    assert _unused_imports((SRC / module).read_text()) == []


def test_unused_import_is_flagged():
    source = ("from .a import used, unused\n"
              "from .b import kept  # noqa: F401\n"
              "import os.path\n"
              "x = used\n")
    assert _unused_imports(source) == ["line 1: unused", "line 3: os"]


def _references(nodes) -> set[str]:
    """The names that the AST `nodes` reference: names, attributes, imported
    names and the parts of dotted string constants like "channel.sample_paths"."""
    found = set()
    for node in (sub for top in nodes for sub in ast.walk(top)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            found.update(node.value.split("."))
    return found


def _dead_definitions(modules: dict[str, str], readers: list[str]) -> list[str]:
    """The top-level functions and classes of `modules` (name -> source) that
    nothing references outside their own definition: not the rest of their
    module, another module or one of the `readers` (sources)."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    by_module = {name: _references([tree]) for name, tree in trees.items()}
    outside = _references(ast.parse(source) for source in readers)
    dead = []
    for name, tree in trees.items():
        others = outside.union(*(refs for other, refs in by_module.items() if other != name))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in others | _references(n for n in tree.body if n is not node):
                dead.append(f"{name}.{node.name}")
    return dead


def test_every_definition_is_referenced():
    modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    readers = [p.read_text() for d in READERS for p in sorted((ROOT / d).glob("*.py"))]
    assert _dead_definitions(modules, readers) == []


def test_dead_definition_is_flagged():
    modules = {"a": ("def called(): pass\n"
                     "def imported(): pass\n"
                     "def recursive(): recursive()\n"
                     "def by_attribute(): pass\n"
                     "def in_a_string(): pass\n"
                     "class Unused: pass\n"
                     "called()\n"),
               "b": "from .a import imported\n"}
    readers = ["import a\na.by_attribute()\nNAMES = ('a.in_a_string', 'recursive')\n"]
    assert _dead_definitions(modules, readers) == ["a.recursive", "a.Unused"]
