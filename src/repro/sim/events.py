"""The event queue underlying the discrete-event engine.

An event is one heap entry, the list ``[time, key, callback, args]``,
and the list itself is the handle a scheduler returns.  Entries are
ordered by ``(time, key)``: the key is unique per loop (a monotone
sequence number here, a packed tie-break int on the keyed loop), so
two events scheduled for the same instant fire in the order their keys
say and list comparison never reaches the callback — sift comparisons
resolve on two ints in C, which keeps every run bit-for-bit
reproducible and never calls back into Python.

Cancelling writes ``None`` into the callback slot; the queue skips such
entries when popping instead of paying O(n) removal.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable

from repro.errors import ClockError

#: A scheduled event: ``[time, key, callback, args]``, callback ``None``
#: once cancelled.  Hot paths index the slots by number (``entry[2]``
#: is the callback).
Event = list


class EventQueue:
    """A deterministic priority queue of :data:`Event` entries."""

    __slots__ = ("_heap", "_next_seq", "_live")

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._next_seq = 0
        self._live = 0

    def __len__(self) -> int:
        """Number of live (non-cancelled) events."""
        return self._live

    def push(
        self,
        time: int,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
    ) -> Event:
        """Schedule *callback(*args)* at simulated time *time*."""
        if time < 0:
            raise ClockError(f"cannot schedule event at negative time {time}")
        seq = self._next_seq
        self._next_seq = seq + 1
        entry = [time, seq, callback, args]
        heappush(self._heap, entry)
        self._live += 1
        return entry

    def cancel(self, entry: Event) -> None:
        """Prevent *entry* from firing.  Idempotent."""
        if entry[2] is not None:
            entry[2] = None
            self._live -= 1

    def peek_time(self) -> int | None:
        """Time of the next live event, or ``None`` if the queue is empty."""
        heap = self._heap
        while heap and heap[0][2] is None:
            heappop(heap)
        if not heap:
            return None
        return heap[0][0]

    def pop(self) -> Event | None:
        """Remove and return the next live event, or ``None`` if empty."""
        heap = self._heap
        while heap:
            entry = heappop(heap)
            if entry[2] is not None:
                self._live -= 1
                return entry
        return None
