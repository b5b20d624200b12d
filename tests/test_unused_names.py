"""No dead names in `src/`: every import is used, every private function is called, and
every public function, class and method has a caller outside the tests' own checks."""

import ast
from pathlib import Path

import skewstruct

SRC = Path(skewstruct.__file__).resolve().parent
TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
REPO = Path(__file__).resolve().parents[1]


def _referenced(tree) -> set:
    """Names read anywhere in a module: bare names and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _read_or_imported(tree) -> set:
    """Names read anywhere in a module, plus the names it imports."""
    return _referenced(tree) | {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names
    }


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
    referenced = set().union(*map(_read_or_imported, TREES.values()))
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


def _caller_trees() -> tuple:
    """(caller syntax trees, the benchmark's string constants).

    A caller is src/ (a re-export in `__init__` is none), a demo, the
    benchmark, the oracles or the acceptance suite. A check that only a
    test calls belongs in that test, so the other test modules are no
    callers either.
    """
    readers = [tree for module, tree in TREES.items() if module != "__init__"]
    paths = [*sorted((REPO / "demos").glob("*.py")), REPO / "tests" / "oracles.py"]
    readers += [ast.parse(path.read_text()) for path in paths + [REPO / "tests" / "test_acceptance.py"]]
    bench = [ast.parse(path.read_text()) for path in sorted((REPO / "bench").glob("*.py"))]
    strings = {
        node.value
        for tree in bench
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    return readers + bench, strings


def test_every_public_name_has_a_caller():
    # The benchmark's span table names the functions it wraps as strings and
    # looks them up by attribute, so its strings count
    trees, strings = _caller_trees()
    called = strings.union(*map(_read_or_imported, trees))
    uncalled = [
        f"{module}: {node.name}"
        for module, tree in TREES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in called
    ]
    assert uncalled == []


# Public methods that a library outside src/ calls by name, so no reader
# here names them: argparse.ArgumentParser calls `error` on a usage error.
PROTOCOL_OVERRIDES = {"cli: _Parser.error"}


def test_every_public_method_has_a_caller():
    # Methods, properties and classmethods of the top-level classes. A
    # caller reads the name as an attribute: a bare name of the same
    # spelling (`for error in ...`) calls no method
    trees, _ = _caller_trees()
    called = {node.attr for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    uncalled = {
        f"{module}: {cls.name}.{node.name}"
        for module, tree in TREES.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in called
    }
    # an allowlisted override that gains a caller, or goes, leaves the list
    assert uncalled == PROTOCOL_OVERRIDES
