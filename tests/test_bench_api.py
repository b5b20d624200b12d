"""The library API that the benchmark in bench/ relies on still works.

Runs the warm-up op of each benchmark workload with its own output check,
and resolves every function the span tracer wraps, so a change that breaks
what bench/ calls fails here rather than only in a benchmark run.
"""

import importlib
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
