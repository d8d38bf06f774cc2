"""Every public module-level function and class of the package is used:
referenced somewhere in the package outside its own definition, or
exported from sworlab/__init__.py."""

import ast
from pathlib import Path

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


def _exported(trees) -> set:
    return {
        alias.asname or alias.name
        for node in ast.walk(trees["__init__.py"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_every_public_definition_is_used():
    trees = _trees()
    exported = _exported(trees)
    # names each top-level statement of each module references
    statements = [(node, _referenced_names(node)) for tree in trees.values() for node in tree.body]
    unused = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in exported
        # a reference from anywhere but the definition itself
        and not any(node.name in names for other, names in statements if other is not node)
    ]
    assert unused == []
