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
