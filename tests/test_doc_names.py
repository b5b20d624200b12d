"""No stale names in `src/` prose: every backticked snake_case name in a docstring or
comment is defined in `src/`.

A name is a dotted identifier inside a backtick span, bare (`_read_profile`) or as
`module.name` (`eigenstructure._staircase`), also inside a formula such as
`normal_rank(draw) == 2r`. Each part with an underscore must be a module, function,
class, attribute or parameter of `src/`. Two kinds of span are not read as names: a file
path (it has a `/`) and a one-letter subscript of the mathematics, such as `d_1` or
`index_k`."""

import ast
import io
import re
import tokenize
from pathlib import Path

import skewstruct

SRC = Path(skewstruct.__file__).resolve().parent
TEXTS = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
NAME = re.compile(r"(?<![\w.])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
SUBSCRIPT = re.compile(r"[A-Za-z]+_[A-Za-z0-9]")


def _defined() -> set:
    """Modules, functions, classes, parameters, and module, class and instance attributes."""
    names = set(TEXTS)
    for text in TEXTS.values():
        tree = ast.parse(text)
        scopes = [tree] + [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
        for scope in scopes:
            for node in scope.body:
                targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _prose(text) -> list:
    """The docstrings and comments of a module."""
    tree = ast.parse(text)
    docs = [
        ast.get_docstring(node, clean=False)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    comments = [
        token.string
        for token in tokenize.generate_tokens(io.StringIO(text).readline)
        if token.type == tokenize.COMMENT
    ]
    return [doc for doc in docs if doc] + comments


def test_every_backticked_name_is_defined():
    defined = _defined()
    stale = sorted(
        f"{module}: {name}"
        for module, text in TEXTS.items()
        for prose in _prose(text)
        for span in re.findall(r"`+([^`]+)`+", prose)
        if "/" not in span
        for name in NAME.findall(span)
        if any("_" in part and not SUBSCRIPT.fullmatch(part) and part not in defined for part in name.split("."))
    )
    assert stale == []
