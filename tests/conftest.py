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
    """What `closure_reachable` reads of two lists' counts before it searches, for the seams that take it.

    Returns a function of (target counts, source counts) that gives
    (rows, cols, (target rank, source rank), (target Hom vector, source Hom
    vector)), each list read once as `closure_reachable` reads it: the
    arguments `degeneration._breadth_first` takes between the counts and the
    step bound. `degeneration._hom_witness` takes the two vectors, then
    rows and cols.
    """

    def read(target_counts, source_counts):
        rows, cols, target_rank = degeneration._shape_and_rank(target_counts)
        source_rank = degeneration._shape_and_rank(source_counts)[2]
        homs = degeneration._hom_vector(target_counts, rows, cols), degeneration._hom_vector(source_counts, rows, cols)
        return rows, cols, (target_rank, source_rank), homs

    return read
