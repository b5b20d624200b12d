"""Span tracing of the library's layers, installed from outside the library.

Each traced function is replaced, at every module attribute that holds it,
by a wrapper that records a span (name, start, end, parent span, op id).
``from .exact import rank_exact`` binds a separate name in each importing
module, and callers look the name up in their own module, so every binding
gets its own wrapper; the wrappers share the span name and count calls per
binding. ``normal_rank`` is wrapped outside its ``lru_cache``, so
``cache_info()`` on the original still reads. ``missed_bindings`` then
confirms that nothing but the wrappers still holds an original. Spans are
recorded only inside an op, kept in flat arrays, and written out by ``save``.
"""

from __future__ import annotations

import gc
import sys
import time
import types
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

# span name -> (home module, attribute); the span name is also the metric prefix
TRACED = {
    "sampling.sample_bounded_rank": ("skewstruct.sampling", "sample_bounded_rank"),
    "exact.normal_rank": ("skewstruct.exact", "normal_rank"),
    "exact.rank_exact": ("skewstruct.exact", "rank_exact"),
    "exact.nullspace_exact": ("skewstruct.exact", "nullspace_exact"),
    "exact.skew_smith": ("skewstruct.exact", "skew_smith"),
    "eigenstructure.analyze": ("skewstruct.eigenstructure", "analyze"),
    "eigenstructure.infinite_structure": ("skewstruct.eigenstructure", "infinite_structure"),
    "eigenstructure.minimal_indices": ("skewstruct.eigenstructure", "minimal_indices"),
    "eigenstructure.factor": ("skewstruct.eigenstructure", "_factor_rational"),
    "linearize.pad_grade": ("skewstruct.linearize", "pad_grade"),
    "linearize.build_linearization": ("skewstruct.linearize", "build_linearization"),
    "degeneration.canonical_key": ("skewstruct.degeneration", "canonical_key"),
    "degeneration.enumerate_applications": ("skewstruct.degeneration", "enumerate_applications"),
    "degeneration.apply_rule": ("skewstruct.degeneration", "apply_rule"),
    "cli.main": ("skewstruct.cli", "main"),
    "fileio.read_polynomial": ("skewstruct.fileio", "read_polynomial"),
    "fileio.dump_json": ("skewstruct.fileio", "dump_json"),
}

OP_SPAN = "op"


class Tracer:
    """In-memory span store plus the counters measured at the same boundaries."""

    def __init__(self):
        self.names = [OP_SPAN]
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.stack = []
        self.op_id = -1
        self.binding_calls = Counter()
        self.applications = 0
        self.analyze_results = 0
        self.analyze_deficit = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self._cached = None
        self.wrappers = []

    def _open(self, name_id):
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name, binding, fn):
        name_id = len(self.names)
        self.names.append(name)

        def on_result(result):
            if name == "degeneration.enumerate_applications":
                self.applications += len(result)
            elif name == "eigenstructure.analyze":
                self.analyze_results += 1
                self.analyze_deficit += result.index_sums()[0] > 0

        def wrapper(*args, **kwargs):
            if self.op_id < 0:
                return fn(*args, **kwargs)
            self.binding_calls[binding] += 1
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            on_result(result)
            return result

        wrapper.__wrapped__ = fn
        self.wrappers.append((name, wrapper))
        return wrapper

    def install(self):
        """Replace every skewstruct binding of each traced function."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "skewstruct"]
        for name, (home, attr) in TRACED.items():
            original = getattr(sys.modules[home], attr)
            if name == "exact.normal_rank":
                self._cached = original
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        label = f"{module.__name__.removeprefix('skewstruct.')}.{binding}"
                        setattr(module, binding, self._wrap(name, label, original))

    def missed_bindings(self):
        """Objects other than the wrappers that still hold a traced original.

        A binding that ``install`` did not replace (a default argument, a
        class attribute, a dispatch table) would run the function untraced
        and bill its time to the caller's self time.
        """
        own = {id(self)}
        for _, wrapper in self.wrappers:
            own.add(id(wrapper.__dict__))
            own.update(id(cell) for cell in wrapper.__closure__)
        missed = []
        for name in dict(self.wrappers):
            # looked up afresh, so no container of this method holds it
            original = getattr(sys.modules[TRACED[name][0]], TRACED[name][1]).__wrapped__
            missed += [
                f"{name} held by a {type(ref).__name__}"
                for ref in gc.get_referrers(original)
                if id(ref) not in own and not isinstance(ref, types.FrameType)
            ]
        return missed

    @contextmanager
    def op_span(self, op_id):
        """Root span of one op; spans of traced calls are recorded only inside it."""
        before = self._cached.cache_info()
        self.op_id = op_id
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)
            self.op_id = -1
            after = self._cached.cache_info()
            self.cache_hits += after.hits - before.hits
            self.cache_misses += after.misses - before.misses

    def arrays(self):
        return np.array(self.name), np.array(self.start), np.array(self.end), np.array(self.parent)

    def self_times(self):
        """(span name ids, durations, self times): self = span minus direct children."""
        name, start, end, parent = self.arrays()
        duration = end - start
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
        return name, duration, duration - children

    def save(self, path):
        name, start, end, parent = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=name,
            start=start,
            end=end,
            parent=parent,
            op=np.array(self.op),
        )

    def layer_metrics(self):
        """Calls and self seconds per traced function, plus the op totals."""
        name, duration, own = self.self_times()
        n_names = len(self.names)
        calls = np.bincount(name, minlength=n_names)
        self_s = np.bincount(name, weights=own, minlength=n_names)
        per_name = {}
        for i, label in enumerate(self.names):
            entry = per_name.setdefault(label, {"calls": 0, "self_s": 0.0})
            entry["calls"] += int(calls[i])
            entry["self_s"] += float(self_s[i])
        op_spans = name == 0
        return {
            "functions": per_name,
            "op_wall_s": float(duration[op_spans].sum()),
            "unwrapped_s": float(own[op_spans].sum()),
        }
