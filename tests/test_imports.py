"""Every name a library module imports is used in that module, every
private name a module defines is used somewhere in the package, and no
module holds an `assert` statement, which `python -O` strips.

The package __init__ is left out of the import check: it imports names to
re-export them.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "subrec"
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


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level `_name`s (not dunders) that no module references outside
    the statement defining them."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            for name in defined_names(node):
                if not name.startswith("_") or name.startswith("__"):
                    continue
                if not any(
                    name in referenced_names(t, skip=node if m == module else None)
                    for m, t in trees.items()
                ):
                    dead.append("%s.%s (line %d)" % (module, name, node.lineno))
    return dead


def test_the_check_sees_a_dead_private_name():
    sources = {
        "a": "_LIMIT = 3\n_seen = 0\n\ndef _rec(n):\n    return _rec(n - 1)\n\nprint(_seen)\n",
        "b": "from .a import _shared\n",
    }
    sources["a"] += "def _shared():\n    pass\n"
    assert dead_private_names(sources) == ["a._LIMIT (line 1)", "a._rec (line 4)"]


def test_no_dead_private_name():
    assert dead_private_names({p.stem: p.read_text() for p in PACKAGE}) == []
