"""numpy and scipy stay inside the float backend of `skewstruct.sampling`."""

import ast
from pathlib import Path

import skewstruct

SRC = Path(skewstruct.__file__).resolve().parent
FLOAT_NAMES = {"np", "numpy", "scipy"}
FLOAT_FUNCTIONS = {
    "rank_fp",
    "_coeff_arrays",
    "_rank_fp_normal",
    "_nullities",
    "_shifted_coeffs",
    "_eigenvalue_candidates",
}
MODULE_IMPORT = ("sampling", None, "import numpy as np")


def _float_uses() -> set:
    """(module, top-level def or None, text) of each numpy/scipy name or import in the package."""
    uses = set()

    def visit(node, module, owner):
        if owner is None and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = node.name
        if isinstance(node, ast.Name) and node.id in FLOAT_NAMES:
            uses.add((module, owner, node.id))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module or ""]
            if any(name.split(".")[0] in FLOAT_NAMES for name in modules):
                uses.add((module, owner, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner)

    for path in SRC.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem, None)
    return uses


def test_numpy_and_scipy_only_in_the_float_backend():
    uses = _float_uses()
    assert MODULE_IMPORT in uses and ("sampling", "rank_fp", "np") in uses
    outside = {
        use
        for use in uses
        if use != MODULE_IMPORT and not (use[0] == "sampling" and use[1] in FLOAT_FUNCTIONS)
    }
    assert outside == set()
