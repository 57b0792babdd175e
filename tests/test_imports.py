"""Import hygiene: every module-level import in src/lisim is used, every
top-level definition there is referenced by the package, the scripts or the
benchmark, and every field and method of its classes is read by them. A
generator is built only where a draw seeds it, and never copied or rewound.

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


def _dotted_parts(node) -> list[str]:
    """The parts of `node` if it is a dotted string constant like
    "channel.sample_paths", else none."""
    if (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and _DOTTED.fullmatch(node.value)):
        return node.value.split(".")
    return []


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
        found.update(_dotted_parts(node))
    return found


def _kept_imports(source: str, readers: list[str]) -> list[str]:
    """The names that the module-level imports of `source` marked `# noqa:
    F401` bind and that none of the `readers` (sources) names: as a
    reference (`_references`) or as a string constant like "ccm_descent"."""
    trees = [ast.parse(reader) for reader in readers]
    named = _references(trees) | {
        node.value for tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value.isidentifier()}
    lines = source.splitlines()
    unread = []
    for node in ast.parse(source).body:
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and any("# noqa: F401" in line
                        for line in lines[node.lineno - 1:node.end_lineno])):
            unread += [f"line {node.lineno}: {alias.asname or alias.name}"
                       for alias in node.names if (alias.asname or alias.name) not in named]
    return unread


def test_kept_imports_are_named_by_a_reader():
    readers = [p.read_text() for d in READERS for p in sorted((ROOT / d).glob("*.py"))]
    kept = {p.name: _kept_imports(p.read_text(), readers) for p in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in kept.items() if found} == {}


def test_kept_import_without_a_reader_is_flagged():
    source = ("from .a import named, in_a_string  # noqa: F401\n"
              "from .b import imported, gone  # noqa: F401\n"
              "from .c import used, unmarked\n"
              "x = used\n")
    readers = ["from m import imported\nnamed()\nNAMES = ('c.in_a_string', 'gone in prose')\n"]
    assert _kept_imports(source, readers) == ["line 2: gone"]


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


def _from_numpy(node) -> bool:
    """Whether the attribute chain `node` starts at `np`, as np.subtract.at does."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id == "np"


def _unread_members(modules: dict[str, str], readers: list[str]) -> list[str]:
    """The fields and methods of the classes of `modules` (name -> source)
    that no source among `modules` and `readers` reads, as an attribute or
    as part of a dotted string constant. A name, a keyword argument, an
    attribute store or an attribute of numpy (np.subtract.at) is not a read.
    Dunder methods are left out: the language calls them."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    read = set()
    for node in (sub for tree in [*trees.values(), *map(ast.parse, readers)]
                 for sub in ast.walk(tree)):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and not _from_numpy(node)):
            read.add(node.attr)
        read.update(_dotted_parts(node))
    unread = []
    for name, tree in trees.items():
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for item in cls.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    member = item.target.id
                elif isinstance(item, ast.FunctionDef):
                    member = item.name
                else:
                    continue
                if member not in read and not (member.startswith("__")
                                               and member.endswith("__")):
                    unread.append(f"{name}.{cls.name}.{member}")
    return unread


def test_every_member_is_read():
    modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    readers = [p.read_text() for d in READERS for p in sorted((ROOT / d).glob("*.py"))]
    assert _unread_members(modules, readers) == []


def test_unread_member_is_flagged():
    modules = {"a": ("from dataclasses import dataclass\n"
                     "@dataclass\n"
                     "class Table:\n"
                     "    read: int\n"
                     "    in_a_string: int\n"
                     "    stored: int\n"
                     "    unread: int\n"
                     "    def __len__(self): return self.read\n"
                     "    def called(self): pass\n"
                     "    def uncalled(self): pass\n"
                     "    def at(self): pass\n"
                     "def f(t, unread):\n"
                     "    t.stored = Table(unread=unread)\n"
                     "    return t.called()\n")}
    readers = ["NAMES = ('Table.in_a_string',)\nnp.subtract.at(x, [0], 1)\n"]
    assert _unread_members(modules, readers) == [
        "a.Table.stored", "a.Table.unread", "a.Table.uncalled", "a.Table.at"]


# the callables that build a generator, a bit generator or a seed sequence
_BUILDERS = {"default_rng", "Generator", "RandomState", "SeedSequence", "BitGenerator",
             "MT19937", "PCG64", "PCG64DXSM", "Philox", "SFC64"}


def _generator_handling(modules: dict[str, str]) -> list[str]:
    """Where the sources `modules` (name -> source) handle a generator other
    than by drawing from it: a call that builds one (`_BUILDERS`) outside
    harness._stream, an import or read of deepcopy, or a store to a bit
    generator's state. Each draw builds its generator from its seed key in
    `_stream`, so no generator needs to be copied or rewound."""
    found = []
    for name, source in modules.items():
        hits = []
        for top in ast.parse(source).body:
            seeds = (name, getattr(top, "name", None)) == ("harness", "_stream")
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and not seeds:
                    func = node.func
                    called = getattr(func, "attr", getattr(func, "id", ""))
                    if called in _BUILDERS:
                        hits.append((node.lineno, f"builds {called}"))
                elif (isinstance(node, (ast.Import, ast.ImportFrom))
                      and any(alias.name.split(".")[-1] == "deepcopy" for alias in node.names)
                      or isinstance(node, ast.Attribute) and node.attr == "deepcopy"):
                    hits.append((node.lineno, "deepcopy"))
                elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                      and node.attr == "state" and isinstance(node.value, ast.Attribute)
                      and node.value.attr == "bit_generator"):
                    hits.append((node.lineno, "stores bit_generator.state"))
        found += [f"{name} line {line}: {what}" for line, what in sorted(hits)]
    return found


def test_generators_are_built_only_where_they_draw():
    modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert _generator_handling(modules) == []


def test_generator_handling_is_flagged():
    modules = {"harness": ("import numpy as np\n"
                           "from copy import deepcopy\n"
                           "def _stream(cfg, *key):\n"
                           "    seq = np.random.SeedSequence(cfg.seed, spawn_key=key)\n"
                           "    return np.random.default_rng(seq)\n"
                           "def retry(rng: np.random.Generator, state):\n"
                           "    rng.bit_generator.state = state\n"
                           "    return np.random.default_rng(1).uniform(), rng.uniform()\n"),
               "other": ("import copy\n"
                         "from numpy.random import PCG64, Generator, SeedSequence\n"
                         "def _stream(rng):\n"
                         "    return Generator(PCG64(SeedSequence(1))), copy.deepcopy(rng)\n")}
    assert _generator_handling(modules) == [
        "harness line 2: deepcopy", "harness line 7: stores bit_generator.state",
        "harness line 8: builds default_rng", "other line 4: builds Generator",
        "other line 4: builds PCG64", "other line 4: builds SeedSequence",
        "other line 4: deepcopy"]


def _generator_parameters(source: str) -> list[str]:
    """The functions of `source` that take a generator: a parameter
    annotated with a Generator type or named like one (rng, rngs)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            annotation = ast.unparse(arg.annotation) if arg.annotation else ""
            if "Generator" in annotation or arg.arg in ("rng", "rngs"):
                found.append(f"{node.name}({arg.arg})")
    return found


def test_only_random_phases_takes_a_generator():
    # every optimizer starts from the channel's structure, so the one
    # function of passive_bf that draws is the `random` baseline's
    assert _generator_parameters((SRC / "passive_bf.py").read_text()) == ["random_phases(rng)"]


def test_generator_parameters_are_flagged():
    source = ("import numpy as np\n"
              "def start(core, rngs: list[np.random.Generator]): pass\n"
              "def draw(rng): pass\n"
              "def plain(core, cfg: int, *, seed: int = 0): pass\n")
    assert _generator_parameters(source) == ["start(rngs)", "draw(rng)"]
