"""Conservative run-ahead synchronisation for sharded execution.

The sharded engine (:mod:`repro.sim.shard`) partitions the machine set
into shards, each with its own event loop.  Machines only interact
through the network, and every wire has a non-zero latency, so a
packet put on a wire at time ``t`` cannot affect any machine before
``t + L``, where ``L`` (the *lookahead*) is the smallest wire latency
in the topology — the classic conservative-PDES argument.

Two rules make the result not merely *equivalent* but *byte-identical*
for every shard count (the repo's determinism gate diffs ``shards=1``
against ``shards=4``):

- **Every** inter-machine hop — including hops whose source and
  destination land in the same shard — is filed by the keyed event
  loop (:class:`~repro.sim.loop.KeyedEventLoop`) under the pure-data
  key ``(gen, 1, src, dst, wire_seq)``, where ``gen`` is the window of
  the ``L`` grid the hop was *produced* in; a hop that crosses a shard
  boundary travels as a :class:`HopRecord` carrying those fields.
  The ``(time, key)`` order of deliveries on any one machine's loop is
  therefore a function of the simulation state alone, not of how
  machines were grouped into shards or of when a record was handed
  over.
- The grid is the minimum latency over **all** wires, not the minimum
  over wires that happen to cross a shard boundary.  A boundary
  minimum would be a function of the partition (and undefined at
  ``shards=1``); the global minimum is never larger, so it is still a
  sound lookahead, and it makes every key identical for every shard
  count.

Because injection timing is irrelevant to ordering, shards synchronise
only as often as causality demands.  Each wire-connected shard *pair*
``(i, j)`` has a period — the largest grid multiple not exceeding the
minimum latency over wires crossing that pair: a record produced after
one rendezvous cannot arrive before the next, so handing it over at
the next rendezvous is conservatively early.  Pairs no wire crosses
never rendezvous before the drain (hops traverse physical wires, so no
record can be addressed to such a pair).

The rendezvous schedule is event-driven.  At each meeting the two
sides exchange, alongside their records, their next pending event time
and the earliest rendezvous of any *other* incident pair; from those
both compute the same *activity bound* — the earliest instant either
shard can possibly execute anything new (its own head, a record just
injected, or an injection by a third shard, whose records never arrive
before the meeting that delivers them).  Any record produced by an
event at ``p >= act`` arrives at ``>= p + period``, so the pair's next
meeting is pushed out to ``min(act_i, act_j) + period`` snapped down
to the period grid, and each shard free-runs the whole range in
between.  A pair with no wake source at all *parks* (meets again only
when re-armed).  Two clamps keep the meeting-before-arrival invariant
when new work appears from outside the simulation: entering ``run()``
re-arms every pair to its first period multiple after the resumed
clock (driver code may have scheduled anything), and firing a barrier
action re-arms every pair to its first period multiple after the
action tick (the action may have scheduled events or emitted
records).  Extra meetings are always safe; late ones never happen.
Quiescence is a global property, undetectable on a sparse exchange
graph, so the drain phase after the horizon uses all-pairs rounds,
each striding by the shard's minimum incident period
(:func:`drain_step`).

:class:`SerialRunner` drives every shard in one process (the reference
executor, also used for ``shards=1``) and hands live records across;
:class:`WorkerBarrier` drives one shard inside a forked worker and
meets its peers over pairwise pipes.  Both compute every meeting from
the same exchanged data, so they follow the same schedule and fill
:class:`SyncStats` with the same rounds, record counts and
``windows_elided``; bytes are counted where they are shipped, at the
pipe.  A record is packed as its worker builds the pipe frame
(:func:`pack_record`); a payload that cannot pickle (a live process
generator mid-migration) crosses shards untouched in the serial
runner, and packs as a :class:`CapturedPayload` stand-in that the
receiving worker refuses.
"""

from __future__ import annotations

import functools
import io
import pickle
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Any, Protocol

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from multiprocessing.connection import Connection


@dataclass(slots=True)
class HopRecord:
    """One packet hop travelling along one wire, barrier-to-barrier.

    ``wire_seq`` is a per-directed-wire monotone counter owned by the
    wire's source shard; together with ``(arrival, src, dst)`` it gives
    every record pending at a barrier a total order that does not
    depend on the shard layout.  ``gen`` is the grid window the hop was
    *produced* in — the slot the keyed event loop files it under, so a
    record can be injected at any barrier without moving in the order.

    Not declared frozen — one is minted per hop, and a frozen
    dataclass's ``__init__`` costs three times a plain one — but
    treated so: nothing assigns to a record after ``__init__`` /
    ``__setstate__``.
    """

    arrival: int  #: simulated time the hop completes at ``dst``
    src: int  #: machine the hop leaves from
    dst: int  #: machine the hop arrives at (next hop, not final dest)
    wire_seq: int  #: per-wire transmit counter (duplicates get their own)
    packet: Any  #: the in-flight :class:`~repro.net.packet.Packet`
    gen: int = 0  #: grid window of production (keyed-loop slot)

    def __getstate__(self) -> tuple:
        """Positional wire state: every record blob repeats this class,
        so field-name dict keys would be pure overhead on the pipe."""
        return (
            self.arrival, self.src, self.dst, self.wire_seq,
            self.packet, self.gen,
        )

    def __setstate__(self, state: tuple) -> None:
        (
            self.arrival, self.src, self.dst, self.wire_seq,
            self.packet, self.gen,
        ) = state


#: Pipes carry pre-pickled blobs (one per peer per round) so each
#: rendezvous is a single send/recv syscall pair and its size is
#: countable; the protocol is pinned so byte counts are deterministic
#: across interpreter versions.
WIRE_PICKLE_PROTOCOL = min(pickle.HIGHEST_PROTOCOL, 5)


def pack_blob(payload: Any) -> bytes:
    """Pickle one barrier message into the blob the pipe carries."""
    return pickle.dumps(payload, WIRE_PICKLE_PROTOCOL)


@dataclass(frozen=True, slots=True)
class CapturedPayload:
    """Wire stand-in for a packet that cannot pickle (capture envelope).

    A live process generator mid-migration has no byte form, so a
    worker asked to ship one puts this pure-data surrogate in the frame
    instead (same declared sizes, so the frame's bytes stay
    deterministic) and survives; the worker that rehydrates it refuses
    the run — there is no live object on its side of the pipe.  The
    serial runner hands the live record across and never sees one.
    """

    kind: str  #: class name of the packet that could not pickle
    size_bytes: int  #: the packet's declared wire size


@functools.cache
def _wire_atoms() -> tuple[Any, ...]:
    """The identity-stable objects every record blob references — the
    classes and enum members of the wire vocabulary.  Packing each
    record standalone loses the memo sharing a whole-outbox pickle
    gets, so these are replaced by short persistent-id tokens instead
    of repeating ``module.QualName`` boilerplate in every blob.  Built
    on first use: the kernel and net modules import this one."""
    from repro.kernel.ids import ProcessAddress, ProcessId
    from repro.kernel.links import (
        DataArea,
        Link,
        LinkAttribute,
        LinkSnapshot,
    )
    from repro.kernel.messages import Message, MessageKind
    from repro.net.packet import Packet, PacketKind

    return (
        HopRecord, CapturedPayload,
        Packet, PacketKind, *PacketKind,
        Message, MessageKind, *MessageKind,
        ProcessId, ProcessAddress,
        LinkSnapshot, LinkAttribute, *LinkAttribute,
        DataArea, Link,
    )


@functools.cache
def _wire_atom_tokens() -> dict[int, int]:
    return {id(atom): token for token, atom in enumerate(_wire_atoms())}


class _RecordPickler(pickle.Pickler):
    """Record pickler with the wire vocabulary tokenised."""

    def persistent_id(self, obj: Any) -> int | None:
        return _wire_atom_tokens().get(id(obj))


class _RecordUnpickler(pickle.Unpickler):
    """Inverse of :class:`_RecordPickler`."""

    def persistent_load(self, pid: int) -> Any:
        return _wire_atoms()[pid]


def unpack_record(blob: bytes) -> HopRecord:
    """One record back from its :func:`pack_record` wire blob."""
    return _RecordUnpickler(io.BytesIO(blob)).load()


def pack_record(record: HopRecord) -> bytes:
    """One cross-shard record's wire blob, packed by the worker that
    ships it.  Payloads that cannot pickle are captured (see
    :class:`CapturedPayload`)."""
    try:
        return _pack_record_blob(record)
    except Exception:
        packet = record.packet
        surrogate = HopRecord(
            record.arrival,
            record.src,
            record.dst,
            record.wire_seq,
            CapturedPayload(
                type(packet).__name__,
                getattr(packet, "size_bytes", 0),
            ),
            record.gen,
        )
        return _pack_record_blob(surrogate)


def _pack_record_blob(record: HopRecord) -> bytes:
    buffer = io.BytesIO()
    _RecordPickler(buffer, WIRE_PICKLE_PROTOCOL).dump(record)
    return buffer.getvalue()


def window_end(time: int, lookahead: int) -> int:
    """End of the grid-aligned window containing *time*."""
    return (time // lookahead + 1) * lookahead


@dataclass(frozen=True, slots=True)
class BarrierAction:
    """One global action pinned to a barrier on the window grid.

    ``key`` is pure data (kind string + machine ids) and totally orders
    same-tick actions the way a hop record's key orders it on the keyed
    loop: the firing order is a function of the schedule alone, never
    of the shard layout or of registration order.
    """

    at: int  #: fire time; must be a multiple of the window grid
    key: tuple  #: pure-data tie-break among same-tick actions
    callback: Any
    args: tuple


class BarrierActionQueue:
    """Pending global actions for a sharded run (fail-stop crashes).

    A crash mutates state on several shards at once, so it cannot be a
    loop event — it fires *between* windows, at a barrier where every
    shard has finished all events strictly before the action time.
    Restricting action times to the window grid makes that barrier
    exist by construction: windows are grid-aligned half-open
    intervals, so no window ever straddles a grid point.
    """

    def __init__(self, lookahead: int) -> None:
        if lookahead < 1:
            raise ValueError(f"lookahead must be >= 1, got {lookahead}")
        self.lookahead = lookahead
        self._pending: list[BarrierAction] = []
        self.fired = 0

    def add(self, at: int, key: tuple, callback: Any, *args: Any) -> None:
        """Register *callback* to fire at the barrier at time *at*."""
        if at < 0 or at % self.lookahead:
            raise ValueError(
                f"barrier action at t={at} is not aligned to the "
                f"{self.lookahead}us window grid (a mid-window global "
                f"action has no barrier to fire at)"
            )
        self._pending.append(BarrierAction(at, key, callback, args))

    def pending(self) -> int:
        """Actions registered but not yet fired."""
        return len(self._pending)

    def next_time(self) -> int | None:
        """Earliest pending action time, or None."""
        if not self._pending:
            return None
        return min(action.at for action in self._pending)

    def take_due(self, at: int) -> list[BarrierAction]:
        """Pop every action scheduled for *at*, in key order."""
        due = [a for a in self._pending if a.at == at]
        self._pending = [a for a in self._pending if a.at != at]
        due.sort(key=lambda a: a.key)
        self.fired += len(due)
        return due


class SyncStats:
    """Synchronisation-overhead counters for one shard.

    Rounds, record counts and ``windows_elided`` follow the
    (deterministic) schedule and are the same under every executor;
    byte counts measure the pipe frames with a pinned pickle protocol,
    so they too repeat exactly — and read 0 under the serial executor,
    which ships no bytes.  Benchmarks gate these numbers exactly, per
    artifact.  They are *not* part of the shard-count parity set: a
    ``shards=1`` run has no peers and therefore no synchronisation
    traffic at all.
    """

    __slots__ = (
        "rounds",
        "records_sent",
        "records_received",
        "bytes_sent",
        "bytes_received",
        "windows_elided",
    )

    def __init__(self) -> None:
        self.rounds = 0  #: pairwise exchanges this shard took part in
        self.records_sent = 0
        self.records_received = 0
        self.bytes_sent = 0  #: pickled frame bytes shipped to peers
        self.bytes_received = 0
        #: grid windows crossed between rendezvous without a barrier
        self.windows_elided = 0

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain dict (benchmark artifacts)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def note_exchange(
        self, sent: int, received: int, skipped: int = 0
    ) -> None:
        """One pairwise exchange; a horizon-phase rendezvous also says
        how many grid windows it *skipped* since the pair last met."""
        self.rounds += 1
        self.records_sent += sent
        self.records_received += received
        if skipped > 0:
            self.windows_elided += skipped


def drain_step(
    pair_periods: dict[tuple[int, int], int], shard: int, lookahead: int
) -> int:
    """How far *shard* may run past a drain exchange's global floor.

    After an all-pairs exchange every worker knows the global
    next-event time ``nxt`` and holds every already-produced record;
    any *new* cross-shard influence originates at an event >= ``nxt``
    and must traverse a wire crossing one of the shard's incident
    pairs, so it cannot arrive before ``nxt + period(pair)``.  The
    minimum incident period is therefore a sound per-round stride —
    the drain-phase analogue of the rendezvous cadence (a shard with
    no incident pairs strides one grid window; it receives nothing
    either way).
    """
    incident = [
        period
        for (i, j), period in pair_periods.items()
        if shard in (i, j)
    ]
    return min(incident, default=lookahead)


def rendezvous_schedule(
    pair_periods: dict[tuple[int, int], int], horizon: int
) -> list[tuple[int, int, int]]:
    """Every ``(time, i, j)`` rendezvous up to *horizon*, globally sorted.

    The *static* cadence: pair ``(i, j)`` meets at every multiple of
    its period.  The dynamic schedule the runners actually walk only
    ever *skips* meetings from this set forward along the period grid,
    so this is its upper bound — benchmarks compare the two to measure
    rounds saved.  The sorted order is the processing order on every
    worker: each worker walks its own pairs' events in this order, and
    because the globally least unprocessed rendezvous is the least
    *local* rendezvous of both its participants, some pair can always
    meet — no deadlock (the same argument covers the dynamic schedule:
    both members of a pair agree on its next meeting time, so the
    total ``(t, i, j)`` order is still shared).
    """
    events = [
        (t, i, j)
        for (i, j), period in pair_periods.items()
        for t in range(period, horizon + 1, period)
    ]
    events.sort()
    return events


def first_multiple_after(period: int, time: int) -> int:
    """Smallest multiple of *period* strictly after *time*."""
    return (time // period + 1) * period


def agree_next_meeting(
    t: int, period: int, act_a: int | None, act_b: int | None
) -> int | None:
    """The next rendezvous both sides of a pair commit to at meeting *t*.

    ``act_*`` is one side's earliest possible future activity: its next
    pending event, the earliest arrival this meeting just injected into
    it, or the soonest rendezvous of any *other* incident pair — third
    shards only influence it at meetings, and a record is always
    delivered at or before its arrival time, so nothing woken by that
    meeting runs earlier than the meeting itself.  Any record produced
    by an event at ``p >= act`` arrives at ``>= p + period``, so the
    partner may run unsynchronised through ``min(act) + period - 1``;
    the next meeting is that ceiling snapped *down* to the period grid
    (meetings stay on the grid so ``windows_elided`` accounting and the
    re-arm clamps compose), never earlier than ``t + period``.  Both
    sides with no wake source at all park the pair (``None``): each is
    provably idle until a ``run()`` re-entry or barrier action re-arms
    every pair.
    """
    act = _next_time(act_a, act_b)
    if act is None:
        return None
    aligned = (act + period) // period * period
    return max(aligned, t + period)


class ShardPeer(Protocol):
    """What a barrier runner needs from one shard's runtime."""

    def next_event_time(self) -> int | None:
        """Earliest pending event on this shard's loop, or None."""
        ...  # pragma: no cover

    def events_fired(self) -> int:
        """Events this shard's loop has executed (the runner's budget)."""
        ...  # pragma: no cover

    def run_window(self, deadline: int) -> None:
        """Execute all events with ``time <= deadline``."""
        ...  # pragma: no cover

    def run_events(self, deadline: int | None, max_events: int | None) -> None:
        """Execute pending events in order — through *deadline*, then
        moving the clock there, when one is given — at most
        *max_events* of them.  A run that leaves nothing pending ends
        with the clock at the end of its last event's grid window."""
        ...  # pragma: no cover

    def advance_to(self, time: int) -> None:
        """Move the clock to *time* (no events there by contract)."""
        ...  # pragma: no cover

    def freeze_at(self, time: int) -> None:
        """Pin the clock at *time* without executing events there.

        Used before firing barrier actions: every event strictly before
        *time* has run, and events *at* *time* must still be pending —
        a barrier action fires before the window that contains it.
        """
        ...  # pragma: no cover

    def drain_outboxes(self) -> dict[int, list[HopRecord]]:
        """Take (and clear) pending records, keyed by dest shard, in
        any order (the keyed loop makes hand-over order invisible)."""
        ...  # pragma: no cover

    def take_outbox(self, dest: int) -> list[HopRecord]:
        """Take (and clear) pending records for one destination shard
        — the pairwise-rendezvous flavour of :meth:`drain_outboxes`."""
        ...  # pragma: no cover

    def inject(self, records: list[HopRecord]) -> None:
        """Schedule *records* on this shard's loop."""
        ...  # pragma: no cover


def _next_time(*candidates: int | None) -> int | None:
    """Minimum of the non-None candidates (None when all are None)."""
    live = [c for c in candidates if c is not None]
    return min(live) if live else None


def _min_arrival(outboxes: dict[int, list[HopRecord]]) -> int | None:
    """Earliest arrival among everything one shard is handing over."""
    return _next_time(
        *(r.arrival for records in outboxes.values() for r in records)
    )


def _check_no_stray_outboxes(shard: int, outboxes: dict) -> None:
    if outboxes:
        raise RuntimeError(
            f"shard {shard} produced records for unknown "
            f"shards {sorted(outboxes)}"
        )


class _Rendezvous:
    """The dynamic meeting schedule of a set of shard pairs.

    One instance holds every pair (the serial runner) or one worker's
    incident pairs (its slice of the schedule); the state persists
    across ``run`` calls so a resumed horizon never replays a meeting.
    """

    def __init__(
        self, pair_periods: dict[tuple[int, int], int], lookahead: int
    ) -> None:
        if lookahead < 1:
            raise ValueError(f"lookahead must be >= 1, got {lookahead}")
        self.lookahead = lookahead
        self.pair_periods = dict(pair_periods)
        #: last rendezvous time completed per pair
        self._last_met = dict.fromkeys(self.pair_periods, 0)
        #: each pair's agreed next meeting time (None == parked)
        self._next_meet: dict[tuple[int, int], int | None] = dict.fromkeys(
            self.pair_periods
        )
        #: clock every shard has been advanced to by completed runs
        self._completed_through = 0

    def _rearm(
        self, after: int, horizon: int, heap: list[tuple[int, int, int]]
    ) -> None:
        """Clamp every pair to its first period multiple after *after*.

        Whatever appeared at *after* from outside the schedule — driver
        code between runs, a barrier action — starts there, so its
        influence cannot arrive before ``after + period``: meeting then
        restores meeting-before-arrival.  Extra meetings are always
        safe.
        """
        next_meet = self._next_meet
        for pair, period in self.pair_periods.items():
            clamp = first_multiple_after(period, after)
            agreed = next_meet[pair]
            if agreed is None or clamp < agreed:
                next_meet[pair] = clamp
                if clamp <= horizon:
                    heappush(heap, (clamp, *pair))

    def _open(self, horizon: int) -> list[tuple[int, int, int]]:
        """The meeting heap for a run to *horizon*, re-armed at entry."""
        heap = [
            (t, *pair)
            for pair, t in self._next_meet.items()
            if t is not None and t <= horizon
        ]
        heapify(heap)
        self._rearm(self._completed_through, horizon, heap)
        return heap

    def _due(self, t: int, pair: tuple[int, int]) -> int | None:
        """Grid windows skipped since *pair* last met, if a meeting
        popped at *t* is still the agreed one (None: superseded by a
        re-arm clamp)."""
        if t != self._next_meet[pair]:
            return None
        last = self._last_met[pair]
        if t <= last:
            raise SimulationError(
                f"rendezvous replay: pair {pair} met at {last}, "
                f"scheduled again at {t}"
            )
        self._last_met[pair] = t
        return (t - last) // self.lookahead - 1

    def _other_pair_bound(
        self, shard: int, exclude: tuple[int, int]
    ) -> int | None:
        """Earliest *other* rendezvous of *shard* — the soonest any
        third shard can inject new work into it (records injected at a
        meeting never have arrivals before the meeting time)."""
        return _next_time(
            *(
                t
                for pair, t in self._next_meet.items()
                if pair != exclude and shard in pair
            )
        )

    def _agree(
        self,
        t: int,
        pair: tuple[int, int],
        acts: tuple[int | None, int | None],
        horizon: int,
        heap: list[tuple[int, int, int]],
    ) -> None:
        nxt = agree_next_meeting(t, self.pair_periods[pair], *acts)
        self._next_meet[pair] = nxt
        if nxt is not None and nxt <= horizon:
            heappush(heap, (nxt, *pair))


class SerialRunner(_Rendezvous):
    """All shards in one process on the run-ahead rendezvous schedule.

    The horizon phase walks the meeting heap: only wire-connected
    shard pairs ever exchange, each meeting agrees on the pair's next
    one (:func:`agree_next_meeting`), and every shard free-runs through
    the whole safe range between its rendezvous.  Barrier actions are
    supported: every shard is driven to the action tick, frozen, the
    due actions fire in key order, and all pairs re-arm.  The drain
    phase keeps all-pairs rounds but strides them by each shard's
    :func:`drain_step`.

    This is both the ``shards=1`` executor (no pairs, so no meetings)
    and the reference the forked executor must match.  Per-shard
    :class:`SyncStats` are filled the way the forked workers fill
    theirs — the same meetings, computed from data both executors see
    identically — except for bytes: records are handed over as the
    live objects (this process shares one address space), which is
    also what lets a live generator migrate across shards.
    """

    def __init__(
        self,
        peers: list[ShardPeer],
        lookahead: int,
        pair_periods: dict[tuple[int, int], int],
        syncs: list[SyncStats] | None = None,
        actions: BarrierActionQueue | None = None,
    ) -> None:
        super().__init__(pair_periods, lookahead)
        self.peers = peers
        self.syncs = (
            syncs if syncs is not None else [SyncStats() for _ in peers]
        )
        #: global (cross-shard) actions fired between meetings
        self.actions = actions
        self._drain_steps = [
            drain_step(pair_periods, s, lookahead)
            for s in range(len(peers))
        ]

    def run(
        self, horizon: int | None = None, max_events: int | None = None
    ) -> None:
        """Rendezvous schedule up to *horizon*; strided drain without.

        With *max_events*, stop once the shards have fired that many
        events: checked before each drain round (the run ends between
        rounds, resumable) and before each meeting (the run ends as if
        its horizon were the tick before that meeting).
        """
        budget = None
        if max_events is not None:
            budget = self._events_fired() + max_events
        if horizon is None:
            self._drain(budget)
            return
        peers = self.peers
        heap = self._open(horizon)
        # Tick each shard has already executed through (run_until is
        # inclusive, so a rendezvous at t needs execution through t-1).
        frontier = [self._completed_through] * len(peers)
        while True:
            at = self._next_action_time(horizon)
            bound = horizon if at is None else at
            while heap and heap[0][0] <= bound:
                if budget is not None and self._events_fired() >= budget:
                    # No shard has run past the next meeting's tick - 1,
                    # so a horizon there is legal and the meeting stays
                    # agreed for whichever run resumes.
                    horizon, at = heap[0][0] - 1, None
                    break
                t, i, j = heappop(heap)
                self._meet(t, i, j, frontier, heap, horizon)
            if at is None:
                break
            for s, peer in enumerate(peers):
                if at - 1 > frontier[s]:
                    peer.run_window(at - 1)
                    frontier[s] = at - 1
            self._fire_actions(at)
            self._rearm(at, horizon, heap)
        for s, peer in enumerate(peers):
            if horizon > frontier[s]:
                peer.run_window(horizon)
            peer.advance_to(horizon)
        self._completed_through = horizon

    def _events_fired(self) -> int:
        return sum(peer.events_fired() for peer in self.peers)

    def _next_action_time(self, horizon: int | None = None) -> int | None:
        if self.actions is None:
            return None
        at = self.actions.next_time()
        if at is not None and horizon is not None and at > horizon:
            return None
        return at

    def _fire_actions(self, at: int) -> None:
        """Freeze every shard at *at* and fire the actions due there:
        every event strictly before *at* has run, events at *at* are
        still pending — the "crash runs first at its tick" semantics
        the classic engine gets from scheduling the crash callback at
        install time."""
        for peer in self.peers:
            peer.freeze_at(at)
        for action in self.actions.take_due(at):
            action.callback(*action.args)

    def _meet(
        self,
        t: int,
        i: int,
        j: int,
        frontier: list[int],
        heap: list[tuple[int, int, int]],
        horizon: int,
    ) -> None:
        """One rendezvous of pair ``(i, j)`` at time *t*: run both
        sides to ``t - 1``, exchange, and agree on the next meeting."""
        peers = self.peers
        pair = (i, j)
        skipped = self._due(t, pair)
        if skipped is None:
            return
        for s in pair:
            if t - 1 > frontier[s]:
                peers[s].run_window(t - 1)
                frontier[s] = t - 1
        out_ij = peers[i].take_outbox(j)
        out_ji = peers[j].take_outbox(i)
        self.syncs[i].note_exchange(len(out_ij), len(out_ji), skipped)
        self.syncs[j].note_exchange(len(out_ji), len(out_ij), skipped)
        # Both sides' activity bounds read the state *before* either
        # injection, as two workers swapping frames would.
        acts = (
            _next_time(
                peers[i].next_event_time(),
                self._other_pair_bound(i, pair),
                *(r.arrival for r in out_ji),
            ),
            _next_time(
                peers[j].next_event_time(),
                self._other_pair_bound(j, pair),
                *(r.arrival for r in out_ij),
            ),
        )
        if out_ij:
            peers[j].inject(out_ij)
        if out_ji:
            peers[i].inject(out_ji)
        self._agree(t, pair, acts, horizon, heap)

    def _drain(self, budget: int | None = None) -> None:
        """All-pairs rounds to global quiescence, strided per shard —
        the rounds every :class:`WorkerBarrier` walks in its drain
        phase.  Barrier actions registered past the horizon fire here,
        between rounds; the rounds stop early once the shards' fired
        events reach *budget*."""
        if len(self.peers) == 1:
            self._drain_alone(budget)
            return
        peers = self.peers
        syncs = self.syncs
        count = len(peers)
        lookahead = self.lookahead
        while True:
            outs = [peer.drain_outboxes() for peer in peers]
            heads = [peer.next_event_time() for peer in peers]
            nxt = _next_time(*heads, *(_min_arrival(out) for out in outs))
            inbound: list[list[HopRecord]] = [
                out.pop(s, []) for s, out in enumerate(outs)
            ]
            for i in range(count):
                for j in range(i + 1, count):
                    sent_ij = outs[i].pop(j, [])
                    sent_ji = outs[j].pop(i, [])
                    syncs[i].note_exchange(len(sent_ij), len(sent_ji))
                    syncs[j].note_exchange(len(sent_ji), len(sent_ij))
                    inbound[j] += sent_ij
                    inbound[i] += sent_ji
            for s, out in enumerate(outs):
                _check_no_stray_outboxes(s, out)
                if inbound[s]:
                    peers[s].inject(inbound[s])
            at = self._next_action_time()
            if at is not None and (nxt is None or nxt >= at):
                self._fire_actions(at)
                continue
            if nxt is None:
                break
            if budget is not None and self._events_fired() >= budget:
                break
            # Per-shard stride: nothing new can cross into shard s
            # before nxt + its minimum incident pair period, so each
            # round covers period/lookahead grid windows, not one —
            # clamped under a pending action, which must fire before
            # any shard executes events at its tick.
            floor = window_end(nxt, lookahead) - 1
            for s, peer in enumerate(peers):
                deadline = floor + self._drain_steps[s] - lookahead
                if at is not None:
                    deadline = min(deadline, at - 1)
                peer.run_window(deadline)

    def _drain_alone(self, budget: int | None) -> None:
        """The drain of a lone shard, which has no pair to meet: no
        exchange can wake it, so in place of one round per grid window
        it is one loop run up to each barrier action, stopped exactly
        at *budget*.  A run to quiescence leaves the clock at the end
        of its last event's window, where the rounds left it."""
        peer = self.peers[0]
        while True:
            head = peer.next_event_time()
            at = self._next_action_time()
            if at is not None and (head is None or head >= at):
                self._fire_actions(at)
                continue
            if head is None:
                return
            left = None
            if budget is not None:
                left = budget - peer.events_fired()
                if left <= 0:
                    return
            peer.run_events(None if at is None else at - 1, left)


class WorkerBarrier(_Rendezvous):
    """One forked shard on the run-ahead rendezvous schedule.

    The horizon phase walks this worker's slice of the meeting heap:
    only wire-connected pairs, each meeting agreeing on the pair's next
    one from data both sides exchange, so every worker computes the
    identical schedule the serial runner does — and the worker touches
    its pipes *only* at meetings (a dead peer therefore surfaces at
    the next rendezvous).  The drain phase is an all-pairs exchange,
    each round striding by this shard's :func:`drain_step`.

    Pipes are used in index order (lower index sends first), so the
    rendezvous pattern is deterministic and deadlock-free for the small
    worker counts the engine targets.  Each exchange is one frame per
    direction (:func:`pack_blob`): the outbound records, each packed by
    :func:`pack_record`, and two schedule words.  Frame sizes feed
    :class:`SyncStats`.
    """

    def __init__(
        self,
        index: int,
        peer_conns: dict[int, "Connection"],
        lookahead: int,
        pair_periods: dict[tuple[int, int], int],
        sync: SyncStats | None = None,
    ) -> None:
        super().__init__(
            {
                pair: period
                for pair, period in pair_periods.items()
                if index in pair
            },
            lookahead,
        )
        self.index = index
        self.peer_conns = peer_conns
        self.sync = sync if sync is not None else SyncStats()
        self._drain_step = drain_step(self.pair_periods, index, lookahead)

    def _swap(
        self,
        other: int,
        records: list[HopRecord],
        head: int | None,
        bound: int | None,
    ) -> tuple[list[HopRecord], int | None, int | None]:
        """One pipe round trip with worker *other*: ship *records* and
        this side's two schedule words, return the other side's."""
        frame = pack_blob(([pack_record(r) for r in records], head, bound))
        conn = self.peer_conns[other]
        if self.index < other:
            conn.send_bytes(frame)
            data = conn.recv_bytes()
        else:
            data = conn.recv_bytes()
            conn.send_bytes(frame)
        their_blobs, their_head, their_bound = pickle.loads(data)
        self.sync.bytes_sent += len(frame)
        self.sync.bytes_received += len(data)
        inbound = [unpack_record(blob) for blob in their_blobs]
        for record in inbound:
            if isinstance(record.packet, CapturedPayload):
                raise SimulationError(
                    f"shard {self.index} received a captured "
                    f"{record.packet.kind} payload from shard {other}: "
                    "a live cross-shard payload (e.g. a migrating "
                    "process generator) cannot cross a fork boundary — "
                    "run this scenario on the serial executor"
                )
        return inbound, their_head, their_bound

    def _exchange(self, peer: ShardPeer) -> int | None:
        """One all-pairs drain round; injects inbound records and
        returns the global next-event time (None == quiescence)."""
        outboxes = peer.drain_outboxes()
        head = peer.next_event_time()
        min_out = _min_arrival(outboxes)
        inbound: list[HopRecord] = outboxes.pop(self.index, [])
        nxt = _next_time(head, min_out)
        for j in sorted(self.peer_conns):
            sending = outboxes.pop(j, [])
            theirs, their_head, their_min_out = self._swap(
                j, sending, head, min_out
            )
            self.sync.note_exchange(len(sending), len(theirs))
            inbound += theirs
            nxt = _next_time(nxt, their_head, their_min_out)
        _check_no_stray_outboxes(self.index, outboxes)
        if inbound:
            peer.inject(inbound)
        return nxt

    def run(self, peer: ShardPeer, horizon: int | None = None) -> None:
        """Rendezvous schedule up to *horizon*; strided drain without."""
        if horizon is None:
            lookahead = self.lookahead
            while (nxt := self._exchange(peer)) is not None:
                floor = window_end(nxt, lookahead) - 1
                peer.run_window(floor + self._drain_step - lookahead)
            return
        index = self.index
        heap = self._open(horizon)
        frontier = self._completed_through
        while heap:
            t, i, j = heappop(heap)
            pair = (i, j)
            skipped = self._due(t, pair)
            if skipped is None:
                continue
            if t - 1 > frontier:
                peer.run_window(t - 1)
                frontier = t - 1
            other = j if index == i else i
            out = peer.take_outbox(other)
            head = peer.next_event_time()
            bound = self._other_pair_bound(index, pair)
            inbound, their_head, their_bound = self._swap(
                other, out, head, bound
            )
            self.sync.note_exchange(len(out), len(inbound), skipped)
            if inbound:
                peer.inject(inbound)
            acts = (
                _next_time(head, bound, *(r.arrival for r in inbound)),
                _next_time(
                    their_head, their_bound, *(r.arrival for r in out)
                ),
            )
            self._agree(t, pair, acts, horizon, heap)
        if horizon > frontier:
            peer.run_window(horizon)
        peer.advance_to(horizon)
        self._completed_through = horizon
