"""Tests for the deterministic event queue and its flat heap entries."""

import pytest

from repro.errors import ClockError
from repro.sim.events import EventQueue


def fire(entry):
    """Run one popped ``[time, key, callback, args]`` entry."""
    _, _, callback, args = entry
    callback(*args)


def collect(queue):
    order = []
    while True:
        entry = queue.pop()
        if entry is None:
            return order
        order.append(entry[0])
        fire(entry)


class TestOrdering:
    def test_orders_by_time(self):
        queue = EventQueue()
        seen = []
        queue.push(20, seen.append, ("b",))
        queue.push(10, seen.append, ("a",))
        queue.push(30, seen.append, ("c",))
        assert collect(queue) == [10, 20, 30]
        assert seen == ["a", "b", "c"]

    def test_fifo_at_same_time(self):
        queue = EventQueue()
        seen = []
        entries = [queue.push(5, seen.append, (tag,)) for tag in range(10)]
        collect(queue)
        assert seen == list(range(10))
        # The key is the FIFO sequence number: unique, increasing.
        assert [entry[1] for entry in entries] == list(range(10))

    def test_interleaved_push_pop(self):
        queue = EventQueue()
        seen = []
        queue.push(1, seen.append, (1,))
        fire(queue.pop())
        queue.push(2, seen.append, (2,))
        fire(queue.pop())
        assert seen == [1, 2]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        queue = EventQueue()
        seen = []
        entry = queue.push(5, seen.append, ("x",))
        queue.cancel(entry)
        assert entry[2] is None
        assert queue.pop() is None
        assert seen == []

    def test_cancel_is_idempotent(self):
        queue = EventQueue()
        entry = queue.push(5, lambda: None)
        queue.push(6, lambda: None)
        queue.cancel(entry)
        queue.cancel(entry)
        assert entry[2] is None
        assert len(queue) == 1

    def test_len_reflects_live_events(self):
        queue = EventQueue()
        queue.push(1, lambda: None)
        entry = queue.push(2, lambda: None)
        assert len(queue) == 2
        queue.cancel(entry)
        assert len(queue) == 1


class TestPeek:
    def test_peek_time_of_next_event(self):
        queue = EventQueue()
        queue.push(42, lambda: None)
        assert queue.peek_time() == 42

    def test_peek_skips_cancelled(self):
        queue = EventQueue()
        early = queue.push(1, lambda: None)
        queue.push(2, lambda: None)
        queue.cancel(early)
        assert queue.peek_time() == 2
        assert queue.pop()[0] == 2

    def test_peek_empty_is_none(self):
        assert EventQueue().peek_time() is None


class TestValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ClockError):
            EventQueue().push(-1, lambda: None)

    def test_args_are_passed(self):
        queue = EventQueue()
        seen = []

        def callback(a, b):
            seen.append((a, b))

        entry = queue.push(0, callback, (1, 2))
        assert entry == [0, 0, callback, (1, 2)]
        fire(queue.pop())
        assert seen == [(1, 2)]
