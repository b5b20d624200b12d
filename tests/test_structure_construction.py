"""Every skew eigenstructure the library builds passes the skew checks.

`CompleteEigenstructure.skew` builds a structure from one minimal index
list, used for both sides, and checks what skew symmetry and the index sum
theorem force: an even rank, multiplicity lists in equal pairs, and degrees
summing to rank * grade. `CompleteEigenstructure.build` checks none of this,
so in `src/` only `skew` calls it, besides `blocks.blocklist_eigenstructure`,
which reads general-flavor block lists, whose left and right minimal
indices may differ.
"""

import ast
from pathlib import Path

import skewstruct

SRC = Path(skewstruct.__file__).resolve().parent
ALLOWED = {"eigenstructure.CompleteEigenstructure.skew", "blocks.blocklist_eigenstructure"}


def _calls_build(node) -> bool:
    return any(
        isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "build"
        for n in ast.walk(node)
    )


def _build_callers(module: str, tree) -> set:
    """Qualified names of the functions of a module that call an attribute named `build`.

    A call outside every function counts for the module or class it sits in.
    """
    callers = set()

    def visit(node, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _calls_build(child):
                    callers.add(prefix + child.name)
            elif _calls_build(child):
                callers.add(prefix.rstrip("."))

    visit(tree, f"{module}.")
    return callers


def test_only_the_checked_constructor_builds_skew_structures():
    callers = set().union(
        *(_build_callers(path.stem, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py")))
    )
    assert callers == ALLOWED


def test_the_guard_sees_each_kind_of_build_call():
    source = '''
class CompleteEigenstructure:
    @classmethod
    def skew(cls, size):
        return cls.build(size)

def by_class(size):
    return CompleteEigenstructure.build(size)

def by_module(size):
    return eigenstructure.CompleteEigenstructure.build(size)

def checked(size):
    return CompleteEigenstructure.skew(size)

TABLE = CompleteEigenstructure.build(0)
'''
    assert _build_callers("m", ast.parse(source)) == {
        "m.CompleteEigenstructure.skew",
        "m.by_class",
        "m.by_module",
        "m",
    }
