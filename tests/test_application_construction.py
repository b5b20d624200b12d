"""Every rule application the library builds comes from the interned path.

`degeneration._application` returns one validated `RuleApplication` per
tuple of its eight fields, and the closure search's speed rests on the rule
generator going through it: the dataclass `__init__` and the field type
check run once per distinct application, and the search's step cache and
`_rule_blocks` find each application by identity. The public constructor
keeps its checks, on every call.
"""

import ast
import dataclasses
import random
from fractions import Fraction
from pathlib import Path

import pytest

import skewstruct
from skewstruct import degeneration
from skewstruct.blocks import BlockList, GeneralBlock, SkewBlock, skew_to_general
from skewstruct.degeneration import RuleApplication, closure_reachable, enumerate_applications
from skewstruct.errors import InvalidBlock
from skewstruct.generic import generic_pencil_structure
from skewstruct.points import SymbolicPoint

SRC = Path(skewstruct.__file__).resolve().parent
ALLOWED = {"degeneration._application"}

L = GeneralBlock.right
LT = GeneralBlock.left
E = GeneralBlock.finite


def _construction_sites(module: str, tree) -> set:
    """Qualified names of the functions of a module, and the module itself, that call RuleApplication."""
    sites = set()

    def calls(node) -> bool:
        return any(
            isinstance(n, ast.Call)
            and (
                (isinstance(n.func, ast.Name) and n.func.id == "RuleApplication")
                or (isinstance(n.func, ast.Attribute) and n.func.attr == "RuleApplication")
            )
            for n in ast.walk(node)
        )

    def visit(node, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if calls(child):
                    sites.add(prefix + child.name)
            elif calls(child):
                sites.add(module)

    visit(tree, f"{module}.")
    return sites


def test_applications_are_built_only_through_the_cache():
    sites = set().union(
        *(_construction_sites(path.stem, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py")))
    )
    assert sites == ALLOWED


def test_the_guard_sees_each_kind_of_construction_site():
    source = '''
def direct():
    return RuleApplication(1, j=1, k=1)

def by_attribute():
    yield degeneration.RuleApplication(5, j=1, k=1, eigenvalue=2)

class Search:
    def step(self):
        return [RuleApplication(2, j=1, k=2)]

AT_IMPORT = RuleApplication(1, j=1, k=1)

def interned():
    return _application(1, 1, 1, None, None, None, None, None)
'''
    assert _construction_sites("m", ast.parse(source)) == {"m.direct", "m.by_attribute", "m.Search.step", "m"}


def yielded(monkeypatch, fresh_layout, searches):
    """Every application the rule generator yields in these (target, source) searches, per search.

    Each search starts on an empty packed layout, so it memoizes nothing
    yet and calls the generator for every state it expands.
    """
    real = degeneration._applications
    per_search = []

    def recording(counts, pool, raise_rank):
        for app in real(counts, pool, raise_rank):
            per_search[-1].append(app)
            yield app

    monkeypatch.setattr(degeneration, "_applications", recording)
    for target, source in searches:
        per_search.append([])
        fresh_layout()
        closure_reachable(target, source)
    monkeypatch.undo()
    return per_search


def bfs_searches():
    # two closure_bfs searches toward the (7, 3, 1) generic pencil structure
    # (every (6, 2, 2) source is refuted by a Hom witness before any search)
    target = skew_to_general(generic_pencil_structure(7, 3, 1))
    a, b = SymbolicPoint("a"), SymbolicPoint("b")
    sources = [
        BlockList.skew([SkewBlock.k(1), SkewBlock.k(2), SkewBlock.m(0)]),
        BlockList.skew([SkewBlock.h(1, a), SkewBlock.h(1, b), SkewBlock.k(1), SkewBlock.m(0)]),
    ]
    return [(target, skew_to_general(source)) for source in sources]


def test_equal_applications_are_one_object(monkeypatch, fresh_layout):
    # within a search, equal applications come from different states, and
    # the two searches share applications too; each is one object
    degeneration._application.cache_clear()
    first, second = yielded(monkeypatch, fresh_layout, bfs_searches())
    one = {}
    for app in first + second:
        assert one.setdefault(app, app) is app
    assert len(first) > len(set(first)) and set(first) & set(second)
    # and so are those of the public enumeration of two different lists
    a = enumerate_applications(BlockList.general([L(0), L(2)]))
    b = enumerate_applications(BlockList.general([L(0), L(2), LT(1)]))
    assert a[0] == b[0] == RuleApplication(1, j=1, k=1) and a[0] is b[0]


@pytest.mark.parametrize(
    "exact, inexact",
    [
        ((1, 1, 1, None, None, None, None, None), (1, True, 1, None, None, None, None, None)),
        ((3, 0, 1, None, None, Fraction(2), None, None), (3, 0, 1, None, None, 2.0, None, None)),
        ((6, None, None, 0, 0, None, (1,), (Fraction(2),)), (6, None, None, 0, 0, None, [1], (Fraction(2),))),
    ],
)
def test_inexact_fields_raise_on_every_call(exact, inexact):
    # True == 1, 2.0 == Fraction(2) and [1] == (1,) once hashed, but none
    # finds the interned application: the public constructor raises each
    # time, and so does the typed cache, which caches no raise (a list is
    # no cache key, and the generator passes tuples)
    assert degeneration._application(*exact) is degeneration._application(*exact) == RuleApplication(*exact)
    for _ in range(2):
        with pytest.raises(InvalidBlock):
            RuleApplication(*inexact)
        if type(inexact[6]) is not list:
            with pytest.raises(InvalidBlock):
                degeneration._application(*inexact)


def test_enumeration_equals_fresh_constructions(monkeypatch):
    # the interned applications are, field by field, type by type and in
    # order, the ones the generator makes when it builds each anew
    rng = random.Random(45)
    points = [Fraction(-1), Fraction(1, 2), SymbolicPoint("s0"), SymbolicPoint("p")]
    lists = [skew_to_general(BlockList.skew([SkewBlock.m(1), SkewBlock.k(1)]))]
    for _ in range(20):
        blocks = [L(rng.randint(0, 3)), LT(rng.randint(0, 3))]
        blocks += [E(rng.randint(1, 2), rng.choice(points)) for _ in range(rng.randint(0, 3))]
        blocks += [GeneralBlock.infinite(rng.randint(1, 2)) for _ in range(rng.randint(0, 1))]
        lists.append(BlockList.general(blocks))

    def fields(apps):
        return [[(value, type(value)) for value in dataclasses.astuple(app)] for app in apps]

    interned = [enumerate_applications(bl) for bl in lists]
    monkeypatch.setattr(degeneration, "_application", lambda *fields: RuleApplication(*fields))
    fresh = [enumerate_applications(bl) for bl in lists]
    assert sum(map(len, fresh)) > 500
    for a, b in zip(interned, fresh):
        assert a == b and fields(a) == fields(b)
        assert not any(x is y for x, y in zip(a, b))


def test_each_distinct_application_is_validated_once(monkeypatch, fresh_layout):
    # the first search, on an empty layout, checks no application twice,
    # and the same search again checks none
    checked = []
    real = RuleApplication.__post_init__

    def counting(self):
        checked.append(self)
        real(self)

    target, source = bfs_searches()[0]
    fresh_layout()
    degeneration._application.cache_clear()
    monkeypatch.setattr(RuleApplication, "__post_init__", counting)
    assert closure_reachable(target, source).status == "yes"
    assert len(checked) == len(set(checked)) > 0
    del checked[:]
    assert closure_reachable(target, source).status == "yes"
    assert checked == []
