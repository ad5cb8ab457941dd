"""The discrete-event loop that drives every simulated machine.

A single :class:`EventLoop` hosts the whole distributed system: kernels,
network channels, and workload generators all schedule callbacks here.
Determinism is guaranteed by the integer clock and FIFO tie-breaking in
:class:`~repro.sim.events.EventQueue`.  Every ``call_*`` returns the
event's heap entry (:data:`~repro.sim.events.Event`), which is also the
handle :meth:`EventLoop.cancel` takes.
"""

from __future__ import annotations

from typing import Any, Callable, Container, Iterable

from heapq import heappop, heappush

from repro.errors import ClockError, ConfigError, SimulationError
from repro.sim.clock import SimClock
from repro.sim.events import Event, EventQueue


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
    ) -> Event:
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
    ) -> Event:
        """Schedule *callback* *delay* microseconds from now."""
        if delay < 0:
            raise ClockError(f"negative delay {delay}")
        # now + delay can never be in the past (nor negative), so build
        # and push the entry inline instead of chaining through call_at
        # and EventQueue.push — this is the hottest scheduling entry
        # point in the simulator, called once per future event.
        queue = self._queue
        seq = queue._next_seq
        queue._next_seq = seq + 1
        entry = [self.clock._now + delay, seq, callback, args]
        heappush(queue._heap, entry)
        queue._live += 1
        return entry

    def call_soon(
        self,
        callback: Callable[..., None],
        *args: Any,
    ) -> Event:
        """Schedule *callback* at the current instant (after queued peers)."""
        queue = self._queue
        seq = queue._next_seq
        queue._next_seq = seq + 1
        entry = [self.clock._now, seq, callback, args]
        heappush(queue._heap, entry)
        queue._live += 1
        return entry

    def hop_lander(
        self, src: int, dst: int, callback: Callable[..., None]
    ) -> Callable[[int, Any], None]:
        """A one-frame scheduler for the hops of wire ``src -> dst``.

        ``land(delay, packet)`` numbers the hop with the wire's own
        counter (from 1) and files ``callback(src, dst, wire_seq,
        packet, gen)`` *delay* from now, where ``call_after`` would
        file it: under the next FIFO sequence number.  This loop has no
        window grid, so *gen* is the tick the hop was produced at.
        *delay* is never negative (a wire delay), so it is not checked.
        """
        queue = self._queue
        heap = queue._heap
        clock = self.clock
        wire_seq = 0

        def land(delay: int, packet: Any) -> None:
            nonlocal wire_seq
            wire_seq += 1
            seq = queue._next_seq
            queue._next_seq = seq + 1
            now = clock._now
            args = (src, dst, wire_seq, packet, now)
            heappush(heap, [now + delay, seq, callback, args])
            queue._live += 1

        return land

    def pending_calls(self, callbacks: Container[Any]) -> int:
        """Live events whose callback is one of *callbacks*.

        A diagnostic scan of the whole queue (the networks' in-flight
        counts), so the hop path keeps no counter of its own.
        """
        return sum(1 for entry in self._queue._heap if entry[2] in callbacks)

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event.  Idempotent."""
        # EventQueue.cancel inlined: every settled retransmission timer
        # is cancelled here, twice per remote round trip.
        if event[2] is not None:
            event[2] = None
            self._queue._live -= 1

    def step(self) -> bool:
        """Execute the next event.  Returns False when the queue is empty."""
        entry = self._queue.pop()
        if entry is None:
            return False
        time, _, callback, args = entry
        self.clock.advance_to(time)
        self._events_fired += 1
        callback(*args)
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
                time, _, callback, args = heappop(heap)
                if callback is None:
                    continue
                queue._live -= 1
                clock._now = time
                fired += 1
                self._events_fired += 1
                callback(*args)
        finally:
            self._running = False
        return fired

    def run_until(self, deadline: int, max_events: int | None = None) -> int:
        """Run events with time <= *deadline*, then set the clock there.

        Events scheduled beyond the deadline stay queued, so simulation can
        be resumed with further ``run_until`` calls.  A run that spends
        *max_events* while an event at or before the deadline is still
        due leaves the clock at the last event it fired: moving it to
        the deadline would put the clock past that event, which a
        resumed run must still fire at its own time.
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
            while heap:
                time, _, callback, args = heap[0]
                if callback is None:
                    heappop(heap)
                    continue
                if time > deadline:
                    break
                if fired == limit:
                    return fired
                heappop(heap)
                queue._live -= 1
                clock._now = time
                fired += 1
                self._events_fired += 1
                callback(*args)
            clock.advance_to(deadline)
        finally:
            self._running = False
        return fired

    def __repr__(self) -> str:
        return (
            f"EventLoop(now={self.clock.now}, pending={self.pending_events},"
            f" fired={self._events_fired})"
        )


#: Bits a machine id may use in a keyed loop's packed hop key.
MACHINE_ID_BITS = 20


def check_machine_ids(machines: Iterable[int]) -> None:
    """Refuse, before anything runs, a machine id that the packed hop
    key of :class:`KeyedEventLoop` cannot hold (it would wrap into the
    neighbouring field and silently reorder events mid-run)."""
    limit = 1 << MACHINE_ID_BITS
    for machine in machines:
        if not 0 <= machine < limit:
            raise ConfigError(
                f"machine id {machine} does not fit the keyed loop's "
                f"{MACHINE_ID_BITS}-bit hop-key field (0..{limit - 1})"
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
      ``g`` ranks as ``(g, 0, n)`` with ``n`` a per-loop monotone
      counter — same relative order the classic loop would assign;
    - a **hop** produced in grid window ``g`` ranks as
      ``(g, 1, src, dst, wire_seq)``, slotted after window-``g``
      locals and before window-``g + 1`` events — where a barrier at
      the end of every window would have injected it.

    With these keys the heap order is independent of injection timing
    (a record may arrive one window early or five windows late and
    still lands in the same slot), which is what lets shard pairs meet
    as rarely as causality allows without perturbing a single
    tie-break.

    Each rank is packed into one int that sorts exactly like the tuple:
    ``(g << 1 | tag) << 80`` above 80 low bits that hold ``n`` for a
    local event and ``src << 60 | dst << 40 | wire_seq`` for a hop.
    Machine ids get 20 bits, refused at build time beyond that
    (:func:`check_machine_ids`); ``n`` gets 80 and ``wire_seq`` 40 bits
    (a trillion transmits on one wire).
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
    ) -> Event:
        now = self.clock._now
        if time < now:
            raise ClockError(
                f"cannot schedule at {time}, clock already at {now}"
            )
        queue = self._queue
        n = queue._next_seq
        queue._next_seq = n + 1
        entry = [time, (now // self._grid) << 81 | n, callback, args]
        heappush(queue._heap, entry)
        queue._live += 1
        return entry

    def call_after(
        self,
        delay: int,
        callback: Callable[..., None],
        *args: Any,
    ) -> Event:
        if delay < 0:
            raise ClockError(f"negative delay {delay}")
        queue = self._queue
        n = queue._next_seq
        queue._next_seq = n + 1
        now = self.clock._now
        entry = [now + delay, (now // self._grid) << 81 | n, callback, args]
        heappush(queue._heap, entry)
        queue._live += 1
        return entry

    def call_soon(
        self,
        callback: Callable[..., None],
        *args: Any,
    ) -> Event:
        queue = self._queue
        n = queue._next_seq
        queue._next_seq = n + 1
        now = self.clock._now
        entry = [now, (now // self._grid) << 81 | n, callback, args]
        heappush(queue._heap, entry)
        queue._live += 1
        return entry

    def hop_lander(
        self, src: int, dst: int, callback: Callable[..., None]
    ) -> Callable[[int, Any], None]:
        """A one-frame scheduler for the hops of wire ``src -> dst``.

        ``land(delay, packet)`` numbers the hop with the wire's own
        counter (from 1) and files ``callback(src, dst, wire_seq,
        packet, gen)`` *delay* from now, under the key
        :meth:`schedule_record` gives that hop (*gen* is the grid
        window it was produced in).
        """
        queue = self._queue
        heap = queue._heap
        clock = self.clock
        grid = self._grid
        wire = src << 60 | dst << 40
        wire_seq = 0

        def land(delay: int, packet: Any) -> None:
            nonlocal wire_seq
            wire_seq += 1
            now = clock._now
            gen = now // grid
            heappush(
                heap,
                [
                    now + delay,
                    (gen << 1 | 1) << 80 | wire | wire_seq,
                    callback,
                    (src, dst, wire_seq, packet, gen),
                ],
            )
            queue._live += 1

        return land

    def schedule_record(
        self,
        record: Any,
        callback: Callable[..., None],
        *args: Any,
    ) -> Event:
        """Schedule a hop record's delivery at its arrival tick under
        the hop's canonical key.

        *record* is a :class:`~repro.sim.barrier.HopRecord` (duck-typed
        to avoid the import cycle).  The key is derived entirely from
        the hop's data — the grid window it was produced in, its wire
        ``src -> dst`` and the wire's transmit counter — so scheduling
        the same hops in any order, or at any barrier, yields the same
        heap order.  Hop keys are built here and in :meth:`hop_lander`,
        nowhere else.
        """
        time = record.arrival
        if time < self.clock._now:
            raise ClockError(
                f"cannot schedule at {time}, clock already at {self.clock.now}"
            )
        queue = self._queue
        entry = [
            time,
            (record.gen << 1 | 1) << 80
            | record.src << 60
            | record.dst << 40
            | record.wire_seq,
            callback,
            args,
        ]
        heappush(queue._heap, entry)
        queue._live += 1
        return entry
