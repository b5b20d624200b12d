"""Every rule application the library builds comes from the step table or the public enumeration.

The rule generator `degeneration._applications` yields each application as
the tuple of its eight fields. The closure search's packed layout keys its
step table by that tuple and builds one validated `RuleApplication` per
distinct tuple (`_PackedStates.step`), so the dataclass `__init__` and the
field type check run once per application and layout, and no application
outlives its layout. `enumerate_applications` builds one per yield. The
public constructor keeps its checks, on every call.
"""

import ast
import dataclasses
import gc
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import skewstruct
from skewstruct import degeneration
from skewstruct.blocks import BlockList, SkewBlock, skew_to_general
from skewstruct.degeneration import RuleApplication, closure_reachable, enumerate_applications
from skewstruct.errors import InvalidBlock
from skewstruct.generic import generic_pencil_structure
from skewstruct.points import SymbolicPoint

SRC = Path(skewstruct.__file__).resolve().parent
ALLOWED = {"degeneration._PackedStates.step", "degeneration.enumerate_applications"}


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

def fields():
    yield 1, 1, 1, None, None, None, None, None
'''
    assert _construction_sites("m", ast.parse(source)) == {"m.direct", "m.by_attribute", "m.Search.step", "m"}


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


def typed(app):
    return [(value, type(value)) for value in dataclasses.astuple(app)]


def test_equal_applications_are_one_object(monkeypatch, fresh_layout):
    # two searches on one layout: the generator yields equal field tuples
    # from different states and from both searches, and each distinct tuple
    # is one application object, in the step table and in every memo entry
    real = degeneration._applications
    per_search = []

    def recording(counts, pool, raise_rank):
        for fields in real(counts, pool, raise_rank):
            per_search[-1].append(fields)
            yield fields

    slot = fresh_layout()
    monkeypatch.setattr(degeneration, "_applications", recording)
    kept = {}
    layouts = []
    for target, source in bfs_searches():
        per_search.append([])
        assert closure_reachable(target, source).status == "yes"
        layouts.append(slot.states)
        for fields, (app, _) in slot.states.steps.items():
            assert kept.setdefault(fields, app) is app
    monkeypatch.undo()
    states, again = layouts
    first, second = per_search
    assert states is again
    assert len(first) > len(set(first)) and set(first) & set(second)
    assert set(states.steps) == set(first) | set(second) == set(kept)
    objects = {id(app) for app in kept.values()}
    assert len(objects) == len(kept)
    # every memo entry holds the table's object, and the table's
    # applications are the public enumeration's, field by field, type by
    # type and in order (rules 1-5 only where rule 6 is not generated)
    compared = 0
    for (packed, pool, raise_rank), successors in states.memo.items():
        assert all(id(app) in objects for app, _ in successors) and pool == ()
        counts = states.counts(packed)
        public = enumerate_applications(BlockList.general(b for b, c in counts.items() for _ in range(c)))
        public = [app for app in public if raise_rank or app.rule != 6]
        assert [typed(app) for app, _ in successors] == [typed(app) for app in public]
        compared += len(public)
    assert compared > 100


@pytest.mark.parametrize(
    "exact, inexact",
    [
        ((1, 1, 1, None, None, None, None, None), (1, True, 1, None, None, None, None, None)),
        ((3, 0, 1, None, None, Fraction(2), None, None), (3, 0, 1, None, None, 2.0, None, None)),
        ((6, None, None, 0, 0, None, (1,), (Fraction(2),)), (6, None, None, 0, 0, None, [1], (Fraction(2),))),
    ],
)
def test_inexact_fields_raise_on_every_call(exact, inexact):
    # True == 1 and 2.0 == Fraction(2), and [1] holds what (1,) does, but
    # only the exact fields make an application: the public constructor
    # raises on every call
    assert dataclasses.astuple(RuleApplication(*exact)) == exact
    for _ in range(2):
        with pytest.raises(InvalidBlock):
            RuleApplication(*inexact)


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
    monkeypatch.setattr(RuleApplication, "__post_init__", counting)
    assert closure_reachable(target, source).status == "yes"
    assert len(checked) == len(set(checked)) > 0
    del checked[:]
    assert closure_reachable(target, source).status == "yes"
    assert checked == []


def test_no_application_outlives_a_dropped_layout(monkeypatch, fresh_layout):
    # the n = 15 zero-polynomial search, cut short at 150 states, fills its
    # layout's memo and drops the layout; with it go the step table and
    # every application the search built, so none is left alive
    built = []
    real = RuleApplication.__post_init__

    def tracked(self):
        real(self)
        built.append(weakref.ref(self))

    monkeypatch.setattr(degeneration, "MAX_STATES", 150)
    monkeypatch.setattr(RuleApplication, "__post_init__", tracked)
    slot = fresh_layout()
    target = skew_to_general(generic_pencil_structure(15, 7, 2))
    source = skew_to_general(BlockList.skew([SkewBlock.m(1)] * 5))
    result = closure_reachable(target, source)
    assert (result.status, result.states_explored) == ("no_within_bound", 150)
    assert not hasattr(slot, "states") and len(built) > 50
    del result
    gc.collect()
    assert [ref for ref in built if ref() is not None] == []
