"""The discrete-event loop that drives every simulated machine.

A single :class:`EventLoop` hosts the whole distributed system: kernels,
network channels, and workload generators all schedule callbacks here.
Determinism is guaranteed by the integer clock and FIFO tie-breaking in
:class:`~repro.sim.events.EventQueue`.
"""

from __future__ import annotations

from typing import Any, Callable

from heapq import heappop, heappush

from repro.errors import ClockError, SimulationError
from repro.sim.clock import SimClock
from repro.sim.events import EventQueue, ScheduledEvent


class EventLoop:
    """Deterministic discrete-event executor.

    Typical use::

        loop = EventLoop()
        loop.call_after(10, lambda: print("at t=10us"))
        loop.run()
    """

    def __init__(self, start: int = 0) -> None:
        self.clock = SimClock(start)
        self._queue = EventQueue()
        self._running = False
        self._events_fired = 0

    @property
    def now(self) -> int:
        """Current simulated time in microseconds."""
        # Reads the clock's slot directly: this property is called from
        # every hot path and the extra SimClock.now property hop showed
        # up in cluster-scale profiles.
        return self.clock._now

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far (for diagnostics)."""
        return self._events_fired

    @property
    def pending_events(self) -> int:
        """Number of live events still scheduled."""
        return len(self._queue)

    def next_event_time(self) -> int | None:
        """Time of the earliest live event, or None when the queue is
        empty.

        The sharded executor uses this between ``run_until`` calls to
        agree on how far a shard may safely run; pure peek, no state
        change.
        """
        return self._queue.peek_time()

    def call_at(
        self,
        time: int,
        callback: Callable[..., None],
        *args: Any,
    ) -> ScheduledEvent:
        """Schedule *callback* at absolute simulated time *time*."""
        if time < self.clock.now:
            raise ClockError(
                f"cannot schedule at {time}, clock already at {self.clock.now}"
            )
        return self._queue.push(time, callback, args)

    def call_after(
        self,
        delay: int,
        callback: Callable[..., None],
        *args: Any,
    ) -> ScheduledEvent:
        """Schedule *callback* *delay* microseconds from now."""
        if delay < 0:
            raise ClockError(f"negative delay {delay}")
        # now + delay can never be in the past (nor negative), so build
        # and push the event inline instead of chaining through call_at
        # and EventQueue.push — this is the hottest scheduling entry
        # point in the simulator, called once per future event.
        queue = self._queue
        seq = queue._next_seq
        queue._next_seq = seq + 1
        time = self.clock._now + delay
        event = ScheduledEvent(time, seq, callback, args)
        heappush(queue._heap, (time, seq, event))
        queue._live += 1
        return event

    def call_soon(
        self,
        callback: Callable[..., None],
        *args: Any,
    ) -> ScheduledEvent:
        """Schedule *callback* at the current instant (after queued peers)."""
        queue = self._queue
        seq = queue._next_seq
        queue._next_seq = seq + 1
        time = self.clock._now
        event = ScheduledEvent(time, seq, callback, args)
        heappush(queue._heap, (time, seq, event))
        queue._live += 1
        return event

    def cancel(self, event: ScheduledEvent) -> None:
        """Cancel a scheduled event.  Idempotent."""
        if not event.cancelled:
            event.cancel()
            self._queue.note_cancelled()

    def step(self) -> bool:
        """Execute the next event.  Returns False when the queue is empty."""
        event = self._queue.pop()
        if event is None:
            return False
        self.clock.advance_to(event.time)
        self._events_fired += 1
        event.fire()
        return True

    def run(self, max_events: int | None = None) -> int:
        """Run until the queue drains (or *max_events* fire).

        Returns the number of events executed by this call.  A
        *max_events* bound is the standard guard against accidental
        infinite event cascades in tests.

        The heap is popped here, not through :class:`EventQueue` (and
        not through :meth:`step`): this loop executes every event of
        every benchmark, and the heap already yields events in
        non-decreasing time order, so the clock write needs no
        backwards-motion check.  A cancelled entry was uncounted from
        ``_live`` when it was cancelled; it is dropped unfired.
        """
        if self._running:
            raise SimulationError("event loop is already running")
        self._running = True
        fired = 0
        limit = None if max_events is None else max(max_events, 0)
        queue = self._queue
        heap = queue._heap
        clock = self.clock
        try:
            while heap and fired != limit:
                time, _, event = heappop(heap)
                if event.cancelled:
                    continue
                queue._live -= 1
                clock._now = time
                fired += 1
                self._events_fired += 1
                event.callback(*event.args)
        finally:
            self._running = False
        return fired

    def run_until(self, deadline: int, max_events: int | None = None) -> int:
        """Run events with time <= *deadline*, then set the clock there.

        Events scheduled beyond the deadline stay queued, so simulation can
        be resumed with further ``run_until`` calls.
        """
        if deadline < self.clock.now:
            raise ClockError(
                f"deadline {deadline} is before current time {self.clock.now}"
            )
        if self._running:
            raise SimulationError("event loop is already running")
        self._running = True
        fired = 0
        limit = None if max_events is None else max(max_events, 0)
        queue = self._queue
        heap = queue._heap
        clock = self.clock
        try:
            while heap and fired != limit:
                time, _, event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    continue
                if time > deadline:
                    break
                heappop(heap)
                queue._live -= 1
                clock._now = time
                fired += 1
                self._events_fired += 1
                event.callback(*event.args)
            self.clock.advance_to(deadline)
        finally:
            self._running = False
        return fired

    def __repr__(self) -> str:
        return (
            f"EventLoop(now={self.clock.now}, pending={self.pending_events},"
            f" fired={self._events_fired})"
        )


class KeyedEventLoop(EventLoop):
    """An event loop whose same-tick tie-break is data, not call order.

    The classic loop orders same-tick events by a monotone sequence
    number, so the interleaving of injected hop records with locally
    scheduled events would depend on *when* records are injected.  The
    sharded engine injects records whenever a shard pair happens to
    meet (see :mod:`repro.sim.barrier`), so it needs a tie-break that
    is a pure function of the simulation state instead:

    - a **local** event scheduled while the clock sits in grid window
      ``g`` gets key ``(g, 0, n)`` with ``n`` a per-loop monotone
      counter — same relative order the classic loop would assign;
    - a **hop record** produced in grid window ``g`` gets key
      ``(g, 1, src, dst, wire_seq)``, slotted after window-``g``
      locals and before window-``g + 1`` events — where a barrier at
      the end of every window would have injected it.

    With these keys the heap order is independent of injection timing
    (a record may arrive one window early or five windows late and
    still lands in the same slot), which is what lets shard pairs meet
    as rarely as causality allows without perturbing a single
    tie-break.
    """

    def __init__(self, grid: int, start: int = 0) -> None:
        if grid < 1:
            raise ValueError(f"grid must be >= 1, got {grid}")
        super().__init__(start)
        self._grid = grid

    @property
    def grid(self) -> int:
        """The window-grid length keys are computed against."""
        return self._grid

    def call_at(
        self,
        time: int,
        callback: Callable[..., None],
        *args: Any,
    ) -> ScheduledEvent:
        if time < self.clock.now:
            raise ClockError(
                f"cannot schedule at {time}, clock already at {self.clock.now}"
            )
        queue = self._queue
        n = queue._next_seq
        queue._next_seq = n + 1
        seq = (self.clock._now // self._grid, 0, n)
        event = ScheduledEvent(time, seq, callback, args)
        heappush(queue._heap, (time, seq, event))
        queue._live += 1
        return event

    def call_after(
        self,
        delay: int,
        callback: Callable[..., None],
        *args: Any,
    ) -> ScheduledEvent:
        if delay < 0:
            raise ClockError(f"negative delay {delay}")
        queue = self._queue
        n = queue._next_seq
        queue._next_seq = n + 1
        now = self.clock._now
        seq = (now // self._grid, 0, n)
        event = ScheduledEvent(now + delay, seq, callback, args)
        heappush(queue._heap, (now + delay, seq, event))
        queue._live += 1
        return event

    def call_soon(
        self,
        callback: Callable[..., None],
        *args: Any,
    ) -> ScheduledEvent:
        queue = self._queue
        n = queue._next_seq
        queue._next_seq = n + 1
        now = self.clock._now
        seq = (now // self._grid, 0, n)
        event = ScheduledEvent(now, seq, callback, args)
        heappush(queue._heap, (now, seq, event))
        queue._live += 1
        return event

    def schedule_record(
        self,
        record: Any,
        callback: Callable[..., None],
        *args: Any,
    ) -> ScheduledEvent:
        """Schedule a hop-record delivery under its canonical key.

        *record* is a :class:`~repro.sim.barrier.HopRecord` (duck-typed
        to avoid the import cycle); the key is derived entirely from
        its fields, so injecting the same records in any order — or at
        any barrier — yields the same heap order.
        """
        time = record.arrival
        if time < self.clock._now:
            raise ClockError(
                f"cannot schedule at {time}, clock already at {self.clock.now}"
            )
        queue = self._queue
        seq = (record.gen, 1, record.src, record.dst, record.wire_seq)
        event = ScheduledEvent(time, seq, callback, args)
        heappush(queue._heap, (time, seq, event))
        queue._live += 1
        return event
