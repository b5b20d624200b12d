"""The library API that the benchmark in bench/ relies on still works.

Runs the warm-up op of each benchmark workload with its own output check,
and resolves every function the span tracer wraps, so a change that breaks
what bench/ calls fails here rather than only in a benchmark run.
"""

import hashlib
import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("workloads"), importlib.import_module("spans")
    finally:
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("name", ["mc_generic", "lin_generic", "structured_cli", "closure_bfs"])
def test_warmup_op_passes_its_check(bench_modules, tmp_path, name):
    workloads, _ = bench_modules
    workload = workloads.WORKLOADS[name](seed=1, workdir=tmp_path)
    op = workload.warmup()
    out = op.run()
    assert op.check(out, False)
    # the negative control must catch a wrong reference
    assert not op.check(out, True)
    workload.cleanup()


def test_traced_functions_resolve(bench_modules):
    _, spans = bench_modules
    for module, attribute in spans.TRACED.values():
        assert callable(getattr(importlib.import_module(module), attribute))
    from skewstruct import exact

    assert callable(exact.normal_rank.cache_info)


# (steps, source label) -> (status, states_explored, sha256 of the certificate
# JSON or None) of the breadth-first search of every closure_bfs op. The
# statuses and certificates were recorded before the search ran on block
# counts alone, the state counts once it pruned by Hom vectors; any change to
# the rules, their order or the BFS shows here
CLOSURE_BFS_GOLDEN = {
    (6, "K2 + M0 + M0"): ("no_within_bound", 4, None),
    (6, "H2(a) + M0 + M0"): ("no_within_bound", 4, None),
    (6, "H1(a) + K1 + M0 + M0"): ("no_within_bound", 7, None),
    (6, "H1(a) + H1(a) + M0 + M0"): ("no_within_bound", 4, None),
    (6, "H1(a) + H1(b) + M0 + M0"): ("no_within_bound", 4, None),
    (6, "K1 + M0 + M1"): ("no_within_bound", 6, None),
    (6, "H1(a) + M0 + M1"): ("no_within_bound", 6, None),
    (6, "M0 + M2"): ("no_within_bound", 3, None),
    (6, "M1 + M1"): ("no_within_bound", 1, None),
    (7, "K3 + M0"): ("yes", 31, "7aef2e7cea59cd97274a46f098d10e680a125c9877b9fc448fb7683ec52729dd"),
    (7, "H3(a) + M0"): ("no_within_bound", 4, None),
    (7, "K1 + K2 + M0"): ("yes", 42, "4d2e6ffd6ba959f899d9497658f8860b1f9934137759e35e66a90c1934587f98"),
    (7, "H1(a) + K2 + M0"): ("yes", 64, "f7478e16ad90d4fe7a4832e8c78fba3db359e8295d1dd121ac960018aaf71b2d"),
    (7, "H2(a) + K1 + M0"): ("yes", 53, "ccf460f2ecab87207030947f0d7609a7fadcb122c8c222f024d0e57644d9018c"),
    (7, "H1(a) + H2(a) + M0"): ("no_within_bound", 8, None),
    (7, "H1(a) + H2(b) + M0"): ("no_within_bound", 7, None),
    (7, "K1 + K1 + K1 + M0"): ("yes", 27, "ecc90079c76a26d928e94219e2d962a16873f8e2a3dbe7a72a0e6edfb2eb160c"),
    (7, "H1(a) + K1 + K1 + M0"): ("yes", 62, "6c5dd655262a58f5ed7d918dddeff27c062bdab0d33f88b2c029a402f8163faa"),
    (7, "H1(a) + H1(a) + K1 + M0"): ("yes", 53, "5adcca01462121388db73625a5c0f2493a1ebfc602491d36dcd5a210cd24cd5a"),
    (7, "H1(a) + H1(b) + K1 + M0"): ("yes", 56, "042d4d213fa9baa47fa5d9967ccd4b1f59a0c0cb5119983a1151ab649eb3be56"),
    (7, "H1(a) + H1(a) + H1(a) + M0"): ("no_within_bound", 4, None),
    (7, "H1(a) + H1(a) + H1(b) + M0"): ("no_within_bound", 7, None),
    (7, "K2 + M1"): ("yes", 8, "2ae044973b871040a8ac8fca91523c2bfb542ffdd04628589e5c78e49bb576ee"),
    (7, "H2(a) + M1"): ("no_within_bound", 4, None),
    (7, "K1 + K1 + M1"): ("yes", 6, "b9ad99ace2291bb3d63e033e1cc9385831eaf674ead7229d5344c3b48c0c5dcb"),
    (7, "H1(a) + K1 + M1"): ("yes", 10, "ccf82bc649184d090759f9c28d75733f449c54910a4453ca828beb8a4ce2b160"),
    (7, "H1(a) + H1(a) + M1"): ("no_within_bound", 4, None),
    (7, "H1(a) + H1(b) + M1"): ("no_within_bound", 4, None),
    (7, "H1(a) + M2"): ("no_within_bound", 4, None),
}


# (steps, source label) -> the Hom witness (block, direction, source and target
# dimensions) that closure_reachable answers "no" with, before any search; it
# runs the search of every other op, whose pin above it keeps
CLOSURE_BFS_WITNESSES = {
    (6, "K2 + M0 + M0"): ("E_1(inf)", "Hom(X, -)", 4, 6),
    (6, "H2(a) + M0 + M0"): ("E_1(inf)", "Hom(X, -)", 2, 6),
    (6, "H1(a) + K1 + M0 + M0"): ("E_1(inf)", "Hom(X, -)", 4, 6),
    (6, "H1(a) + H1(a) + M0 + M0"): ("E_1(inf)", "Hom(X, -)", 2, 6),
    (6, "H1(a) + H1(b) + M0 + M0"): ("E_1(inf)", "Hom(X, -)", 2, 6),
    (6, "K1 + M0 + M1"): ("L_0", "Hom(X, -)", 1, 2),
    (6, "H1(a) + M0 + M1"): ("L_0", "Hom(X, -)", 1, 2),
    (6, "M0 + M2"): ("L_0", "Hom(X, -)", 1, 2),
    (6, "M1 + M1"): ("L_0", "Hom(X, -)", 0, 2),
    (7, "H3(a) + M0"): ("E_1(inf)", "Hom(X, -)", 1, 3),
    (7, "H1(a) + H2(a) + M0"): ("E_1(inf)", "Hom(X, -)", 1, 3),
    (7, "H1(a) + H2(b) + M0"): ("E_1(inf)", "Hom(X, -)", 1, 3),
    (7, "H1(a) + H1(a) + H1(a) + M0"): ("E_1(inf)", "Hom(X, -)", 1, 3),
    (7, "H1(a) + H1(a) + H1(b) + M0"): ("E_1(inf)", "Hom(X, -)", 1, 3),
    (7, "H2(a) + M1"): ("E_1(inf)", "Hom(X, -)", 1, 3),
    (7, "H1(a) + H1(a) + M1"): ("E_1(inf)", "Hom(X, -)", 1, 3),
    (7, "H1(a) + H1(b) + M1"): ("E_1(inf)", "Hom(X, -)", 1, 3),
    (7, "H1(a) + M2"): ("E_1(inf)", "Hom(X, -)", 1, 3),
}


def pinned(res):
    """(status, states_explored, sha256 of the certificate JSON or None) of a ClosureResult."""
    cert = None if res.certificate is None else [app.to_json_dict() for app in res.certificate]
    digest = None if cert is None else hashlib.sha256(json.dumps(cert).encode()).hexdigest()
    return res.status, res.states_explored, digest


def test_closure_bfs_searches_are_pinned(bench_modules, prechecks):
    from skewstruct import degeneration

    workloads, _ = bench_modules
    got = {}
    for op in workloads.ClosureBfs(seed=1, workdir=None).population:
        res = degeneration._breadth_first(op.target, op.source, prechecks(op.target, op.source), op.steps)
        got[op.steps, op.label] = pinned(res)
    assert got == CLOSURE_BFS_GOLDEN


def test_closure_bfs_ops_are_pinned(bench_modules):
    workloads, _ = bench_modules
    got, witnesses = {}, {}
    for op in workloads.ClosureBfs(seed=1, workdir=None).population:
        res = op.run()
        got[op.steps, op.label] = pinned(res)
        if res.witness is not None:
            w = res.witness
            witnesses[op.steps, op.label] = (str(w.block), w.direction, w.source_dim, w.target_dim)
    assert witnesses == CLOSURE_BFS_WITNESSES
    assert got == {
        key: ("no", 1, None) if key in CLOSURE_BFS_WITNESSES else pinned_result
        for key, pinned_result in CLOSURE_BFS_GOLDEN.items()
    }
    assert sum(explored for _, explored, _ in got.values()) == 430


def test_closure_bfs_ops_stay_on_packed_states(bench_modules, monkeypatch):
    # The search keys, applies and Hom-tests its successors on packed ints.
    # The dict-based reference functions run a fixed number of times per
    # op, never once per successor: `_hom_vector` once per list in
    # closure_reachable, whose vectors the search starts from,
    # `_key_from_counts` for the source's and the target's keys in
    # closure_reachable, `_apply_to_counts` not at all. The searched ops key
    # up to 64 states each, so a per-successor call shows at once.
    # closure_reachable compares the keys only after the rank and the
    # witness pass, so the 18 ops that a witness refutes (and any that the
    # rank would) build no key. Under the default step bound a searched op
    # reads the lists the same way and searches once. The ops' lists are
    # general, and each read its counts, shape and rank when it was built,
    # so no op builds a BlockList
    from skewstruct import blocks, degeneration

    workloads, _ = bench_modules
    bounds = {"_key_from_counts": 2, "_apply_to_counts": 0, "_hom_vector": 2}
    calls = dict.fromkeys([*bounds, "_breadth_first"], 0)
    built = []
    real_post_init = blocks.BlockList.__post_init__

    def building(self):
        built.append(self)
        real_post_init(self)

    monkeypatch.setattr(blocks.BlockList, "__post_init__", building)

    def counting(name):
        real = getattr(degeneration, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(degeneration, name, counting(name))
    most = dict.fromkeys(bounds, 0)
    explored, refuted, searched = [], 0, []
    population = workloads.ClosureBfs(seed=1, workdir=None).population
    built.clear()
    for op in population:
        calls.update(dict.fromkeys(calls, 0))
        result = op.run()
        explored.append(result.states_explored)
        most = {name: max(most[name], calls[name]) for name in bounds}
        if result.witness is not None or op.source.rank > op.target.rank:
            refuted += 1
            assert calls["_key_from_counts"] == calls["_breadth_first"] == 0, op.label
        else:
            searched.append(op)
    calls.update(dict.fromkeys(calls, 0))
    degeneration.closure_reachable(searched[0].target, searched[0].source)
    assert (calls["_hom_vector"], calls["_breadth_first"]) == (2, 1)
    assert built == []
    assert most == bounds
    assert (len(explored), max(explored), refuted) == (29, 64, 18)


def test_lin_generic_staircase_reduces_each_row_once(bench_modules, monkeypatch):
    # The staircase keeps one echelon basis for all its stages: it reduces
    # the n rows of x, which carry P_0, once and each window vector once, at
    # the stage after the vector first appears. A pencil's window lies in an
    # n-dimensional space, so an op on an n x n pencil reduces at most 2n
    # rows. A staircase that re-reduces every window vector at every stage
    # makes 27 to 135 reductions per op here, more than 2n on every op
    from skewstruct import eigenstructure, linearize

    workloads, _ = bench_modules
    real_extend = eigenstructure._extend_basis
    calls = []

    def counted_extend(basis, vec):
        calls.append(1)
        return real_extend(basis, vec)

    monkeypatch.setattr(eigenstructure, "_extend_basis", counted_extend)
    sizes, counts = [], []
    for op in workloads.LinGeneric(seed=1, workdir=None).round(0):
        sizes.append(linearize.build_linearization(linearize.pad_grade(op.sample)).pencil.rows)
        calls.clear()
        assert op.check(op.run(), False)
        counts.append(len(calls))
    assert sizes == [9, 18, 25, 25, 30, 40]
    assert all(n < count <= 2 * n for n, count in zip(sizes, counts)), counts
