"""No dead names in `src/`: every import is used, and every private function is called."""

import ast
from pathlib import Path

import skewstruct

SRC = Path(skewstruct.__file__).resolve().parent
TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _referenced(tree) -> set:
    """Names read anywhere in a module: bare names and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_import_is_used():
    # `__init__` imports names to re-export them
    unused = []
    for module, tree in TREES.items():
        if module == "__init__":
            continue
        read = _referenced(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    unused.append(f"{module}: {bound}")
    assert unused == []


def test_every_private_function_is_referenced():
    # a reference is a read anywhere in src/ or an import by name
    referenced = set()
    for tree in TREES.values():
        referenced |= _referenced(tree)
        referenced |= {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
    dead = [
        f"{module}: {node.name}"
        for module, tree in TREES.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in referenced
    ]
    assert dead == []
