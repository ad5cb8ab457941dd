"""Tests for the event loop's heap: flat entries, order, cancel."""

import pytest

from repro.errors import ClockError
from repro.sim.loop import EventLoop


def collect(loop):
    """Fire every event, returning the times they fired at."""
    order = []
    while loop.step():
        order.append(loop.now)
    return order


class TestOrdering:
    def test_orders_by_time(self):
        loop = EventLoop()
        seen = []
        loop.call_at(20, seen.append, "b")
        loop.call_at(10, seen.append, "a")
        loop.call_at(30, seen.append, "c")
        assert collect(loop) == [10, 20, 30]
        assert seen == ["a", "b", "c"]

    def test_fifo_at_same_time(self):
        loop = EventLoop()
        seen = []
        entries = [loop.call_at(5, seen.append, tag) for tag in range(10)]
        collect(loop)
        assert seen == list(range(10))
        # The key is the FIFO sequence number: unique, increasing.
        assert [entry[1] for entry in entries] == list(range(10))

    def test_interleaved_push_pop(self):
        loop = EventLoop()
        seen = []
        loop.call_at(1, seen.append, 1)
        assert loop.step()
        loop.call_at(2, seen.append, 2)
        assert loop.step()
        assert seen == [1, 2]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        loop = EventLoop()
        seen = []
        entry = loop.call_at(5, seen.append, "x")
        loop.cancel(entry)
        assert entry[2] is None
        assert not loop.step()
        assert seen == []

    def test_cancel_is_idempotent(self):
        loop = EventLoop()
        entry = loop.call_at(5, lambda: None)
        loop.call_at(6, lambda: None)
        loop.cancel(entry)
        loop.cancel(entry)
        assert entry[2] is None
        assert loop.pending_events == 1

    def test_len_reflects_live_events(self):
        loop = EventLoop()
        loop.call_at(1, lambda: None)
        entry = loop.call_at(2, lambda: None)
        assert loop.pending_events == 2
        loop.cancel(entry)
        assert loop.pending_events == 1


class TestPeek:
    def test_peek_time_of_next_event(self):
        loop = EventLoop()
        loop.call_at(42, lambda: None)
        assert loop.next_event_time() == 42

    def test_peek_skips_cancelled(self):
        loop = EventLoop()
        early = loop.call_at(1, lambda: None)
        loop.call_at(2, lambda: None)
        loop.cancel(early)
        assert loop.next_event_time() == 2
        assert collect(loop) == [2]

    def test_peek_empty_is_none(self):
        assert EventLoop().next_event_time() is None


class TestValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ClockError):
            EventLoop().call_at(-1, lambda: None)

    def test_args_are_passed(self):
        loop = EventLoop()
        seen = []

        def callback(a, b):
            seen.append((a, b))

        entry = loop.call_at(0, callback, 1, 2)
        assert entry == [0, 0, callback, (1, 2)]
        assert loop.step()
        assert seen == [(1, 2)]
