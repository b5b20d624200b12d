"""The exception types of `skewstruct.errors` are all in use, and no check is an `assert`."""

import ast
import inspect
from pathlib import Path

from skewstruct import errors

SRC = Path(errors.__file__).resolve().parent


def _raised_or_caught() -> set:
    """Names in `raise X(...)`, `raise X` and `except (X, ...)` anywhere in the package."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exprs = [node.exc.func if isinstance(node.exc, ast.Call) else node.exc]
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                exprs = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            else:
                continue
            for expr in exprs:
                if isinstance(expr, ast.Name):
                    names.add(expr.id)
                elif isinstance(expr, ast.Attribute):
                    names.add(expr.attr)
    return names


def test_every_error_type_is_raised_or_caught():
    declared = {
        name
        for name, obj in inspect.getmembers(errors, inspect.isclass)
        if issubclass(obj, errors.SkewstructError)
    }
    assert "InvalidBlock" in declared
    assert declared - _raised_or_caught() == set()


def test_no_assert_statements():
    # `python -O` strips asserts, so every check raises a SkewstructError
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []
