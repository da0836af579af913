"""pool.ordered_map: results in order from the calling thread and its pool
of min(cpu_count(), count) threads, and an item's error raised to the
caller."""

import threading

import pytest

from cellfree_maxmin import pool


def test_caller_runs_the_last_items_while_the_pool_runs_the_first(monkeypatch):
    """Item 0 holds the one pool thread until the last item has run, so the
    caller must run that item itself; results still come back in order."""
    count, ran, last_done = 6, {}, threading.Event()

    def fn(i):
        ran[i] = threading.get_ident()
        if i == 0:
            assert last_done.wait(timeout=30)
        if i == count - 1:
            last_done.set()
        return i * i

    monkeypatch.setattr(pool, "cpu_count", lambda: 2)
    threads_before = threading.active_count()
    assert list(pool.ordered_map(fn, count)) == [i * i for i in range(count)]
    assert threading.active_count() == threads_before
    assert ran[count - 1] == threading.get_ident()
    assert len(set(ran.values())) == 2


def test_raising_item_reaches_caller(monkeypatch):
    """Inline the map stops at the raising item; on threads its error still
    reaches the caller and no pool thread outlives the call."""
    started = []

    def fn(i):
        started.append(i)
        if i == 3:
            raise RuntimeError("item 3 failed")
        return i

    threads_before = threading.active_count()
    monkeypatch.setattr(pool, "cpu_count", lambda: 1)
    with pytest.raises(RuntimeError, match="item 3 failed"):
        list(pool.ordered_map(fn, 8))
    assert started == [0, 1, 2, 3]
    monkeypatch.setattr(pool, "cpu_count", lambda: 3)
    with pytest.raises(RuntimeError, match="item 3 failed"):
        list(pool.ordered_map(fn, 40))
    assert threading.active_count() == threads_before
