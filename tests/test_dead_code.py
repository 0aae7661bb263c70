"""No dead code in the package: every private module-level name and every import is used.

The package source is walked with ``ast``. A private module-level name (a
function, class or constant whose name starts with one underscore) that no
module of the package references is a leftover; so is an imported name that
its module never uses. ``__init__.py`` imports to re-export, so its imports
are exempt. Names in string annotations count as uses.
"""

from __future__ import annotations

import ast
from pathlib import Path

import hateagg

PACKAGE = Path(hateagg.__file__).resolve().parent
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}


def used_names(tree: ast.AST) -> set[str]:
    """Names a module reads: loaded names, attribute names and names in string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= used_names(ast.parse(ann.value, mode="eval"))
    return used


def private_definitions(tree: ast.Module) -> list[str]:
    """Module-level functions, classes and constants named with one leading underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def imported_names(tree: ast.Module) -> list[str]:
    """The names a module's imports bind, but ``from __future__`` ones."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def test_every_private_module_level_name_is_referenced():
    used = set().union(*map(used_names, TREES.values()))
    dead = [
        f"{module}: {name}"
        for module, tree in sorted(TREES.items())
        for name in private_definitions(tree)
        if name not in used
    ]
    assert dead == []


def test_every_import_is_used():
    dead = []
    for module, tree in sorted(TREES.items()):
        if module != "__init__.py":
            used = used_names(tree)
            dead += [f"{module}: {name}" for name in imported_names(tree) if name not in used]
    assert dead == []


def test_the_walk_finds_dead_code():
    tree = ast.parse(
        "from typing import IO, Iterator\n"
        "import numpy as np\n"
        "_LIMIT = 3\n"
        "def _helper() -> 'Iterator[int]':\n"
        "    return iter([])\n"
        "class _Unused:\n"
        "    pass\n"
        "def public(x):\n"
        "    return _helper() if x else _LIMIT\n"
    )
    assert private_definitions(tree) == ["_LIMIT", "_helper", "_Unused"]
    assert [n for n in private_definitions(tree) if n not in used_names(tree)] == ["_Unused"]
    assert [n for n in imported_names(tree) if n not in used_names(tree)] == ["IO", "np"]
