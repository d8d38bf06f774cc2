"""Every public module-level function, class and constant of the package
is used: referenced somewhere in the package outside its own definition,
or exported from sworlab/__init__.py.  And no module of the package reaches
into another's private (underscore) names."""

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


def _private_imports(trees) -> list:
    """Underscore names that a module of `trees` takes from another module:
    imported as `from .x import _y`, or read as `x._y` from a module `x` it
    imported."""
    found = []
    for module, tree in trees.items():
        modules = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                found += [f"{module}:{a.name}" for a in node.names if a.name.startswith("_")]
            elif (
                isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                found.append(f"{module}:{node.value.id}.{node.attr}")
    return found


def test_no_module_imports_another_modules_private_name():
    assert _private_imports(_trees()) == []


@pytest.mark.parametrize(
    "source, private",
    [
        ("from .a import _count, total\n", ["b.py:_count"]),
        ("from . import a\nn = a._count(3)\n", ["b.py:a._count"]),
        ("from . import a as first\nn = first._count\n", ["b.py:first._count"]),
        ("from .a import total\nfrom . import a\nn = a.total(3)\n", []),
        ("class C:\n    def f(self):\n        return self._count\n", []),
    ],
    ids=["from-import", "module-attribute", "aliased-module", "public-names", "own-attribute"],
)
def test_the_check_covers_imports_and_module_attributes(source, private):
    trees = {"a.py": ast.parse("_count = 1\ntotal = 2\n"), "b.py": ast.parse(source)}
    assert _private_imports(trees) == private


#: module -> the only package modules it may import; verify compares curves
#: against bounds and takes plain float centres, so the sampling layers
#: (empirical_process, ground_set) stay out of it.  The bound formulas, the
#: sampler and the kernels sit below every other layer, and localization
#: builds on the expectation oracle and the transductive problem alone
LAYERS = {
    "verify.py": {"bounds", "errors"},
    "bounds.py": {"errors"},
    "ground_set.py": {"errors"},
    "kernels.py": {"errors"},
    "localization.py": {"empirical_process", "errors", "ground_set", "transductive"},
}


def _package_imports(tree) -> set:
    """The package modules a module imports: `from .x import y` gives x,
    `from . import x` gives x."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_module_imports_only_its_layers(module):
    assert _package_imports(_trees()[module]) <= LAYERS[module]


@pytest.mark.parametrize(
    "source, imported",
    [
        ("from . import bounds as bank\nfrom .bounds import Center\n", {"bounds"}),
        ("from .empirical_process import SupremumStats\n", {"empirical_process"}),
        ("from . import errors, ground_set\nimport math\nfrom numpy import sort\n",
         {"errors", "ground_set"}),
    ],
    ids=["module-and-name", "name", "two-modules-and-outside-imports"],
)
def test_the_layer_check_covers_both_import_forms(source, imported):
    assert _package_imports(ast.parse(source)) == imported


#: the only modules that multiply matrices: every product of a count block
#: with a table is empirical_process.count_sums, and kernels forms its Gram
#: matrices
PRODUCT_MODULES = {"empirical_process.py", "kernels.py"}


def _matrix_products(tree) -> list:
    """Lines of a module that use the @ operator, as `a @ b` or `a @= b`."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    ]


def test_only_the_product_layers_multiply_matrices():
    products = {module: _matrix_products(tree) for module, tree in _trees().items()}
    assert {module: lines for module, lines in products.items()
            if lines and module not in PRODUCT_MODULES} == {}


@pytest.mark.parametrize(
    "source, lines",
    [
        ("import numpy as np\ny = np.ones(2) @ np.ones(2)\n", [2]),
        ("y = a\ny @= b\n", [2]),
        ("y = a * b\nz = a.T\n", []),
    ],
    ids=["operator", "augmented", "no-product"],
)
def test_the_product_check_covers_both_operator_forms(source, lines):
    assert _matrix_products(ast.parse(source)) == lines
