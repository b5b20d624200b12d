"""No dead names in `src/`: every import is used, every private function is called, every
private function and class is read in its own module, and every public function, class and
method has a caller outside the tests' own checks, which also passes every parameter that
has a default.

The method guard reads receivers where it can: `C.name`, with `C` the bare name of a
class defined in `src/`, counts only for `C`, its `src/` base classes and its `src/`
subclasses, so a dead `from_json_dict` cannot hide behind a live `BlockList.from_json_dict`.
Any other read `x.name` counts for every method named `name`, since the guard does not
know the type of `x`."""

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
    unused = []
    for module, tree in TREES.items():
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


def test_every_private_name_is_read_in_its_own_module():
    # A private function or class belongs to the module that reads it: one
    # read only by another module, or only inside its own definition, moves
    # to its reader
    misplaced = [
        f"{module}: {node.name}"
        for module, tree in TREES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in set().union(*(_referenced(other) for other in tree.body if other is not node))
    ]
    assert misplaced == []


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


def _families() -> dict:
    """Name of each top-level class in src/ -> itself, its src/ base classes and its src/ subclasses."""
    classes = {cls.name: cls for tree in TREES.values() for cls in tree.body if isinstance(cls, ast.ClassDef)}
    bases = {name: {getattr(b, "id", None) for b in cls.bases} & classes.keys() for name, cls in classes.items()}

    def ancestors(name):
        return {name}.union(*map(ancestors, bases[name]))

    up = {name: ancestors(name) for name in classes}
    return {name: up[name] | {sub for sub in classes if name in up[sub]} for name in classes}


def test_every_public_method_has_a_caller():
    # Methods, properties and classmethods of the top-level classes. A
    # caller reads the name as an attribute: a bare name of the same
    # spelling (`for error in ...`) calls no method. A read on a src/ class
    # by its bare name counts only for that class's family (`_families`)
    trees, _ = _caller_trees()
    families = _families()
    anywhere, by_class = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            receiver = getattr(node.value, "id", None)
            if receiver in families:
                by_class.update((owner, node.attr) for owner in families[receiver])
            else:
                anywhere.add(node.attr)
    uncalled = {
        f"{module}: {cls.name}.{node.name}"
        for module, tree in TREES.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in anywhere
        and (cls.name, node.name) not in by_class
    }
    # an allowlisted override that gains a caller, or goes, leaves the list
    assert uncalled == PROTOCOL_OVERRIDES


def _passed(trees) -> dict:
    """Called name -> (the most positional arguments of a call, the keywords its calls pass).

    A call is counted under the name it calls, bare or as an attribute. A
    `*args` call passes every position, and a `**kwargs` call every keyword
    (None stands for both).
    """
    passed: dict = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            entry = passed.setdefault(name, [0, set()])
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            entry[0] = None if entry[0] is None or starred else max(entry[0], len(node.args))
            entry[1].update(keyword.arg for keyword in node.keywords)
    return passed


def _defaulted(function, method: bool):
    """(position among the call's positional arguments, name) of each parameter with a default."""
    args = function.args
    positional = args.posonlyargs + args.args
    skip = method and not any(getattr(d, "id", None) == "staticmethod" for d in function.decorator_list)
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield i - skip, arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def test_every_defaulted_parameter_is_passed():
    # A default that no caller overrides is a constant in disguise. A
    # constructor's parameters are passed by calls to its class, or to a
    # subclass that does not define its own
    trees, _ = _caller_trees()
    passed = _passed(trees)
    classes = {node.name: node for tree in TREES.values() for node in tree.body if isinstance(node, ast.ClassDef)}
    unpassed = []
    for module, tree in TREES.items():
        functions = [(node, None) for node in tree.body if isinstance(node, ast.FunctionDef)]
        functions += [
            (node, cls)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef)
        ]
        for function, cls in functions:
            names = [function.name]
            if function.name == "__init__":
                names = [cls.name] + [
                    sub.name
                    for sub in classes.values()
                    if cls.name in {getattr(base, "id", None) for base in sub.bases}
                    and not any(isinstance(n, ast.FunctionDef) and n.name == "__init__" for n in sub.body)
                ]
            calls = [passed[name] for name in names if name in passed]
            for position, parameter in _defaulted(function, cls is not None):
                if not any(
                    parameter in keywords or None in keywords or most is None
                    or (position is not None and position < most)
                    for most, keywords in calls
                ):
                    owner = f"{cls.name}." if cls is not None else ""
                    unpassed.append(f"{module}: {owner}{function.name}({parameter})")
    assert unpassed == []
