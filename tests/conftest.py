"""Fixtures shared by the test modules."""

import threading

import pytest

from skewstruct import degeneration


@pytest.fixture
def fresh_layout(monkeypatch):
    """A reset of the closure search's per-thread packed layout, for tests that watch one search.

    The search keeps one `_PackedStates` per thread and reuses it for every
    search of the same pencil shape, memoized expansions included, so a
    test that records what a search generates or validates must start the
    search on an empty layout. Each call installs a new empty slot and
    returns it; after the search the slot's `states` is the layout that
    search used. The process's own slot comes back when the test ends (or
    at `monkeypatch.undo()`), untouched.
    """

    def reset():
        slot = threading.local()
        monkeypatch.setattr(degeneration, "_layout", slot)
        return slot

    return reset


@pytest.fixture
def prechecks():
    """The two packed Hom vectors `closure_reachable` builds before it searches, for the seams that take them.

    Returns a function of two general lists of one shape, (target, source),
    that gives (target Hom vector, source Hom vector), each built from the
    counts, rows and columns the list read when it was built. That pair is
    the `homs` argument of `degeneration._breadth_first`, and
    `degeneration._hom_witness` takes the two vectors, then rows and cols.
    """

    def read(target, source):
        rows, cols = target.total_rows, target.total_cols
        return degeneration._hom_vector(target.counts(), rows, cols), degeneration._hom_vector(source.counts(), rows, cols)

    return read
