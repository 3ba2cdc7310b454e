"""Every name a library module imports is used in that module, every
private name a module defines is used somewhere in the package, every
public name has a user outside the tests, no module holds an `assert`
statement, which `python -O` strips, and no module imports one in a
later layer.

The package __init__ is left out of the import check: it imports names to
re-export them.
"""

import ast
import re
from pathlib import Path

import pytest

import subrec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "subrec"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(
        "%s (line %d)" % (name, line)
        for name, line in imported.items()
        if name not in used
    )


def test_the_check_sees_an_unused_name():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "from a.b import c as d, e\n"
        "print(e)\n"
    )
    assert unused_imports(source) == ["d (line 3)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def assert_lines(source: str) -> list[int]:
    return sorted(n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assert))


def test_the_check_sees_an_assert():
    source = "def f(x):\n    assert x > 0, 'positive'\n    return x\n\nassert f(1)\n"
    assert assert_lines(source) == [2, 5]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.stem)
def test_no_assert_statement(path):
    assert assert_lines(path.read_text()) == []


def defined_names(node) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def referenced_names(tree, skip=None) -> set[str]:
    """Names read, attributes taken and names imported in tree, outside the
    subtree skip."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return out


def private_definitions(module: str, tree) -> list[tuple[str, str, ast.AST]]:
    """(owner, name, node) for each `_name` (not a dunder) defined at module
    level, or as a method, property or cached property in a module-level
    class body."""
    found = [(module, name, node) for node in tree.body for name in defined_names(node)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            owner = "%s.%s" % (module, cls.name)
            found += [(owner, node.name, node) for node in cls.body
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [d for d in found if d[1].startswith("_") and not d[1].startswith("__")]


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Private definitions that no module references outside the statement
    defining them."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    dead = []
    for module, tree in trees.items():
        for owner, name, node in private_definitions(module, tree):
            if not any(
                name in referenced_names(t, skip=node if m == module else None)
                for m, t in trees.items()
            ):
                dead.append("%s.%s (line %d)" % (owner, name, node.lineno))
    return dead


def test_the_check_sees_a_dead_private_name():
    sources = {
        "a": "_LIMIT = 3\n_seen = 0\n\ndef _rec(n):\n    return _rec(n - 1)\n\nprint(_seen)\n",
        "b": "from .a import _shared\n",
    }
    sources["a"] += "def _shared():\n    pass\n"
    assert dead_private_names(sources) == ["a._LIMIT (line 1)", "a._rec (line 4)"]


def test_the_check_sees_a_dead_private_class_member():
    sources = {
        "a": (
            "class C:\n"
            "    def __init__(self):\n"
            "        self._used()\n"
            "    def _used(self):\n"
            "        pass\n"
            "    def _again(self):\n"
            "        return self._again()\n"
            "    @property\n"
            "    def _size(self):\n"
            "        return 1\n"
            "    @cached_property\n"
            "    def _table(self):\n"
            "        return {}\n"
        ),
        "b": "def f(c):\n    return c._table\n",
    }
    assert dead_private_names(sources) == ["a.C._again (line 6)", "a.C._size (line 9)"]


def test_no_dead_private_name():
    assert dead_private_names({p.stem: p.read_text() for p in PACKAGE}) == []


def unreferenced_public_names(public, sources: dict[str, str], demos: list[str], bench: str) -> list[str]:
    """The names of public that no module of sources references outside the
    statement defining it, no demo references, and bench, the text of the
    benchmark's files, does not hold as a word."""
    trees = [ast.parse(src) for src in sources.values()]
    used = set(re.findall(r"\w+", bench)).union(*(referenced_names(ast.parse(d)) for d in demos))
    return sorted(
        name
        for name in public
        if name not in used
        and not any(
            name in referenced_names(t, skip=next((n for n in t.body if name in defined_names(n)), None))
            for t in trees
        )
    )


def test_the_check_sees_an_unreferenced_public_name():
    sources = {
        "a": "def solo():\n    return solo()\n\ndef shared():\n    pass\n\nclass Demo:\n    pass\n",
        "b": "from .a import shared\n",
    }
    public = ["Benched", "Demo", "shared", "solo"]
    demos = ["from subrec import Demo\n"]
    assert unreferenced_public_names(public, sources, demos, "SPANS = ('x', 'Benched')") == ["solo"]


# atom_of has no caller yet: it is kept for the local rates at a chosen
# point t0 (ROADMAP item 11)
UNCALLED_PUBLIC = {"atom_of"}


def test_every_public_name_has_a_user_outside_the_tests():
    sources = {p.stem: p.read_text() for p in MODULES}
    demos = [p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))]
    bench = "".join(p.read_text() for p in sorted((ROOT / "bench").glob("*.py")))
    unreferenced = unreferenced_public_names(subrec.__all__, sources, demos, bench)
    assert sorted(set(unreferenced) - UNCALLED_PUBLIC) == []


# the package's layers, lowest first: a module imports only earlier ones
LAYERS = ["quadratic", "contfrac", "words", "generators", "recurrence", "rotation", "presets", "cli"]


def package_imports(source: str) -> set[str]:
    """The package modules that source imports, by `from .module import
    name` or `from . import module`."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def test_the_check_sees_a_package_import():
    source = (
        "import numpy as np\n"
        "from . import presets\n"
        "from .words import _codes\n"
        "def f():\n"
        "    from .rotation.inner import g\n"
    )
    assert package_imports(source) == {"presets", "rotation", "words"}


def test_presets_import_only_contfrac_and_generators():
    assert package_imports((SRC / "presets.py").read_text()) == {"contfrac", "generators"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_imports_a_later_layer(path):
    later = LAYERS[LAYERS.index(path.stem) + 1 :]
    assert sorted(package_imports(path.read_text()).intersection(later)) == []
