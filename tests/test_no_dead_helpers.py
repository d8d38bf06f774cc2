"""Every public module-level function, class and constant of the package
is used: referenced somewhere in the package outside its own definition,
or exported from sworlab/__init__.py."""

import ast
from pathlib import Path

import pytest

import sworlab

PACKAGE = Path(sworlab.__file__).parent


def _trees() -> dict:
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _referenced_names(node) -> set:
    """Names a subtree loads, as bare names or as attributes."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _defined_names(node) -> list:
    """Names a top-level statement defines: a function's or class's name,
    or every name a module-level assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [sub.id for target in targets for sub in ast.walk(target) if isinstance(sub, ast.Name)]
    return []


def _exported(trees) -> set:
    return {
        alias.asname or alias.name
        for node in ast.walk(trees["__init__.py"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _unused(trees) -> list:
    """Public top-level names of `trees` (module name -> AST) that no other
    top-level statement references and __init__.py does not export."""
    exported = _exported(trees)
    # names each top-level statement of each module references
    statements = [(node, _referenced_names(node)) for tree in trees.values() for node in tree.body]
    return [
        f"{module}:{name}"
        for module, tree in trees.items()
        for node in tree.body
        for name in _defined_names(node)
        if not name.startswith("_")
        and name not in exported
        # a reference from anywhere but the definition itself
        and not any(name in names for other, names in statements if other is not node)
    ]


def test_every_public_definition_is_used():
    assert _unused(_trees()) == []


@pytest.mark.parametrize(
    "source, init, unused",
    [
        ("DEFAULT_K = 2.0\ndef f(x):\n    return x\n", "from .a import f\n", ["a.py:DEFAULT_K"]),
        ("DEFAULT_K = 2.0\ndef f(x):\n    return DEFAULT_K * x\n", "from .a import f\n", []),
        ("DEFAULT_K = 2.0\n", "from .a import DEFAULT_K\n", []),
        ("_K: float = 2.0\ndef f(x):\n    return x\n", "from .a import f\n", []),
    ],
    ids=["stranded-constant", "read-constant", "exported-constant", "private-constant"],
)
def test_the_check_covers_module_level_constants(source, init, unused):
    trees = {"__init__.py": ast.parse(init), "a.py": ast.parse(source)}
    assert _unused(trees) == unused
