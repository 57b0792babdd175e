"""Import hygiene: every module-level import in src/lisim is used.

An import kept only for an outside reader of the module's namespace says so
with `# noqa: F401` on one of its lines.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lisim"


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
