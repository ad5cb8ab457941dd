"""The discrete-event loop that drives every simulated machine.

A single :class:`EventLoop` hosts the whole distributed system: kernels,
network channels, and workload generators all schedule callbacks here.
The loop owns the integer clock (``_now``) and the event heap
(``_heap``) as plain state; collaborators on hot paths read
``loop._now`` directly.

An event is one heap entry, the list ``[time, key, callback, args]``,
and the list itself is the handle every ``call_*`` returns and
:meth:`EventLoop.cancel` takes.  Entries are ordered by
``(time, key)``: the key is a unique int per loop, so two events
scheduled for the same instant fire in the order their keys say and
list comparison never reaches the callback — sift comparisons resolve
on two ints in C, which keeps every run bit-for-bit reproducible and
never calls back into Python.  Cancelling writes ``None`` into the
callback slot; the loop skips such entries when popping instead of
paying O(n) removal, and ``_live`` counts the entries not cancelled.

Both loops build a local event's key the same way, ``(now // grid) <<
81 | n`` with ``n`` the FIFO sequence number ``_seq``, and pop events in
one place, :meth:`EventLoop.run_until`.  The classic loop's grid is one
endless window, so its local key is ``n`` itself.  The two loops differ
in exactly one thing, the key of a hop (:meth:`EventLoop.hop_lander`).
"""
from __future__ import annotations

from typing import Any, Callable, Container, Iterable

from heapq import heappop, heappush

from repro.errors import ClockError, ConfigError, SimulationError

#: A scheduled event: ``[time, key, callback, args]``, callback ``None``
#: once cancelled.  Hot paths index the slots by number (``entry[2]``
#: is the callback).
Event = list

#: A tick no simulation reaches (about 5 * 10**24 years of microseconds):
#: the classic loop's one grid window, and the horizon of a drain.
FOREVER = 1 << 127


class EventLoop:
    """Deterministic discrete-event executor.

    Typical use::

        loop = EventLoop()
        loop.call_after(10, lambda: print("at t=10us"))
        loop.run()
    """

    def __init__(self, start: int = 0) -> None:
        if start < 0:
            raise ClockError(f"clock cannot start at negative time {start}")
        self._now = start
        self._heap: list[Event] = []
        self._grid = FOREVER
        self._seq = 0
        self._live = 0
        self._running = False
        self._events_fired = 0

    @property
    def now(self) -> int:
        """Current simulated time in microseconds."""
        return self._now

    def advance_to(self, t: int) -> None:
        """Move the clock forward to time *t* without firing anything.

        Raises :class:`ClockError` if *t* is in the past; simulated time
        never runs backwards.
        """
        if t < self._now:
            raise ClockError(
                f"cannot move clock backwards from {self._now} to {t}"
            )
        self._now = t

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far (for diagnostics)."""
        return self._events_fired

    @property
    def pending_events(self) -> int:
        """Number of live events still scheduled."""
        return self._live

    def next_event_time(self) -> int | None:
        """Time of the earliest live event, or None when the queue is
        empty.

        The sharded executor uses this between ``run_until`` calls to
        agree on how far a shard may safely run; pure peek, no state
        change (beyond dropping cancelled entries off the top).
        """
        heap = self._heap
        while heap and heap[0][2] is None:
            heappop(heap)
        return heap[0][0] if heap else None

    def call_at(
        self,
        time: int,
        callback: Callable[..., None],
        *args: Any,
    ) -> Event:
        """Schedule *callback* at absolute simulated time *time*."""
        now = self._now
        if time < now:
            raise ClockError(
                f"cannot schedule at {time}, clock already at {now}"
            )
        n = self._seq
        self._seq = n + 1
        entry = [time, (now // self._grid) << 81 | n, callback, args]
        heappush(self._heap, entry)
        self._live += 1
        return entry

    def call_after(
        self,
        delay: int,
        callback: Callable[..., None],
        *args: Any,
    ) -> Event:
        """Schedule *callback* *delay* microseconds from now."""
        if delay < 0:
            raise ClockError(f"negative delay {delay}")
        # now + delay can never be in the past, so build and push the
        # entry inline instead of chaining through call_at — this is
        # the hottest scheduling entry point in the simulator, called
        # once per future event.
        n = self._seq
        self._seq = n + 1
        now = self._now
        entry = [now + delay, (now // self._grid) << 81 | n, callback, args]
        heappush(self._heap, entry)
        self._live += 1
        return entry

    def call_soon(
        self,
        callback: Callable[..., None],
        *args: Any,
    ) -> Event:
        """Schedule *callback* at the current instant (after queued peers)."""
        n = self._seq
        self._seq = n + 1
        now = self._now
        entry = [now, (now // self._grid) << 81 | n, callback, args]
        heappush(self._heap, entry)
        self._live += 1
        return entry

    def hop_lander(
        self, src: int, dst: int, callback: Callable[..., None]
    ) -> Callable[[int, Any], None]:
        """A one-frame scheduler for the hops of wire ``src -> dst``.

        ``land(delay, packet)`` numbers the hop with the wire's own
        counter (from 1) and files ``callback(src, dst, wire_seq,
        packet, gen)`` *delay* from now, where ``call_after`` would
        file it: under the next local key, which on one endless grid
        window is the FIFO sequence number.  *gen* is the tick the hop
        was produced at.
        *delay* is never negative (a wire delay), so it is not checked.
        """
        heap = self._heap
        wire_seq = 0

        def land(delay: int, packet: Any) -> None:
            nonlocal wire_seq
            wire_seq += 1
            seq = self._seq
            self._seq = seq + 1
            now = self._now
            args = (src, dst, wire_seq, packet, now)
            heappush(heap, [now + delay, seq, callback, args])
            self._live += 1

        return land

    def pending_calls(self, callbacks: Container[Any]) -> int:
        """Live events whose callback is one of *callbacks*.

        A diagnostic scan of the whole queue (the networks' in-flight
        counts), so the hop path keeps no counter of its own.
        """
        return sum(1 for entry in self._heap if entry[2] in callbacks)

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event.  Idempotent."""
        if event[2] is not None:
            event[2] = None
            self._live -= 1

    def step(self) -> bool:
        """Execute the next event.  Returns False when the queue is empty."""
        return self.run_until(None, 1) == 1

    def run(self, max_events: int | None = None) -> int:
        """Run until the queue drains (or *max_events* fire)."""
        return self.run_until(None, max_events)

    def run_until(
        self, deadline: int | None = None, max_events: int | None = None
    ) -> int:
        """Run events with time <= *deadline*, then set the clock there.

        Returns the number of events executed by this call; a
        *max_events* bound is the standard guard against accidental
        infinite event cascades in tests.  A *deadline* of None drains
        the queue and leaves the clock at the last event fired.

        This is the only loop that pops events.  It pops first and
        pushes back the first live entry past the deadline, or past the
        budget: keys are unique, so the push changes no pop order.  The
        heap yields events in non-decreasing time order, so the clock
        write needs no backwards-motion check.  A cancelled entry was
        uncounted from ``_live`` when it was cancelled; it is dropped
        unfired.

        Events scheduled beyond the deadline stay queued, so simulation
        can be resumed with further calls.  A run that spends
        *max_events* while an event at or before the deadline is still
        due leaves the clock at the last event it fired: moving it to
        the deadline would put the clock past that event, which a
        resumed run must still fire at its own time.
        """
        if deadline is None:
            horizon = FOREVER
        elif deadline < self._now:
            raise ClockError(
                f"deadline {deadline} is before current time {self._now}"
            )
        else:
            horizon = deadline
        if self._running:
            raise SimulationError("event loop is already running")
        self._running = True
        fired = 0
        limit = max_events if max_events is None or max_events > 0 else 0
        heap = self._heap
        try:
            while heap:
                entry = heappop(heap)
                time, _, callback, args = entry
                if callback is None:
                    continue
                if time > horizon:
                    heappush(heap, entry)
                    break
                if fired == limit:
                    heappush(heap, entry)
                    return fired
                self._live -= 1
                self._now = time
                fired += 1
                self._events_fired += 1
                callback(*args)
            if deadline is not None:
                # Checked above: the deadline is not behind the clock,
                # and every event fired here was at or before it.
                self._now = deadline
        finally:
            self._running = False
        return fired

    def __repr__(self) -> str:
        return (
            f"EventLoop(now={self._now}, pending={self._live},"
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
      counter — same relative order the classic loop would assign
      (this is :class:`EventLoop`'s own key, on a finite grid);
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
    (a trillion transmits on one wire).  This class adds nothing to
    :class:`EventLoop` but the grid and that hop key.
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
        heap = self._heap
        grid = self._grid
        wire = src << 60 | dst << 40
        wire_seq = 0

        def land(delay: int, packet: Any) -> None:
            nonlocal wire_seq
            wire_seq += 1
            now = self._now
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
            self._live += 1

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
        if time < self._now:
            raise ClockError(
                f"cannot schedule at {time}, clock already at {self._now}"
            )
        entry = [
            time,
            (record.gen << 1 | 1) << 80
            | record.src << 60
            | record.dst << 40
            | record.wire_seq,
            callback,
            args,
        ]
        heappush(self._heap, entry)
        self._live += 1
        return entry
