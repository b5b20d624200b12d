"""numpy and scipy stay inside `skewstruct.floating`, the float backend."""

import ast
from pathlib import Path

import skewstruct

SRC = Path(skewstruct.__file__).resolve().parent
FLOAT_NAMES = {"np", "numpy", "scipy"}


def _names_float(tree) -> bool:
    """Whether a module imports numpy or scipy or names np, numpy or scipy anywhere."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in FLOAT_NAMES:
            return True
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module or ""]
            if any(name.split(".")[0] in FLOAT_NAMES for name in modules):
                return True
    return False


def test_numpy_and_scipy_only_in_the_float_backend():
    modules = {path.stem for path in SRC.glob("*.py") if _names_float(ast.parse(path.read_text()))}
    assert modules == {"floating"}
