"""numpy and scipy stay inside `skewstruct.floating`, the float backend, and load with it."""

import ast
import subprocess
import sys
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


def _loaded_after(statement) -> str:
    """numpy and scipy in `sys.modules` after `statement`, run in a fresh interpreter."""
    probe = f"import sys\n{statement}\nprint(sorted({{'numpy', 'scipy'}} & sys.modules.keys()))"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    return done.stdout.strip()


def test_only_importing_the_float_backend_loads_numpy():
    # the package exports no float name and imports no float module, so
    # numpy loads exactly when `skewstruct.floating` is imported
    assert _loaded_after("import skewstruct") == "[]"
    assert _loaded_after("import skewstruct.floating").startswith("['numpy'")


STAGE_READERS = {"_staircase", "_read_profile", "_at_infinity"}


def test_the_float_backend_reads_no_stages():
    # the rank, minimal indices and infinity come from the exact analysis: the
    # float backend imports no stage reader and generates no stages of its own
    tree = ast.parse((SRC / "floating.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    named = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not (imported | named) & STAGE_READERS
    generators = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(inner, (ast.Yield, ast.YieldFrom)) for inner in ast.walk(node))
    ]
    assert generators == []
