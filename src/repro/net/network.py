"""The network facade kernels talk to.

``Network`` wires together the topology, lossy per-wire channels, and one
:class:`~repro.net.reliable.ReliableTransport` endpoint per machine.
Packets are routed hop-by-hop along latency-weighted shortest paths; fault
injection (if configured) applies independently on every hop.

Kernels use exactly two operations:

- :meth:`Network.send` — reliably deliver an opaque payload to a machine;
- :meth:`Network.register_receiver` — claim a machine's inbound payloads.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.errors import SimulationError, UnknownMachineError
from repro.net.channel import Channel, FaultPlan
from repro.net.packet import Packet
from repro.net.reliable import DEFAULT_RTO, ReliableTransport
from repro.net.stats import NetworkStats
from repro.net.topology import MachineId, Topology
from repro.sim.barrier import HopRecord, SyncStats
from repro.sim.loop import EventLoop
from repro.sim.rng import RandomStreams
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry

Receiver = Callable[[MachineId, Any], None]


class Network:
    """All inter-machine communication for one simulated system."""

    def __init__(
        self,
        loop: EventLoop,
        topology: Topology,
        tracer: Tracer | None = None,
        rngs: RandomStreams | None = None,
        faults: FaultPlan | None = None,
        rto: int = DEFAULT_RTO,
        metrics: "MetricsRegistry | None" = None,
        machines: list[MachineId] | None = None,
    ) -> None:
        self.loop = loop
        self.topology = topology
        self.tracer = tracer
        self.stats = NetworkStats()
        if metrics is not None:
            metrics.register_collector(self.stats.publish)
        self._rngs = rngs or RandomStreams(0)
        self._default_faults = faults or FaultPlan()
        self._channels: dict[tuple[MachineId, MachineId], Channel] = {}
        self._transports: dict[MachineId, ReliableTransport] = {}
        #: fail-stop takeover: traffic addressed to a crashed machine is
        #: carried to (and accepted by) its executor, modelling the
        #: published-communications recovery the paper defers to (§4)
        self._redirects: dict[MachineId, MachineId] = {}
        # A sharded system builds one facade per shard, with transports
        # only for the machines that shard owns (packets to everyone
        # else leave as hop records, see ShardNetwork below).
        for machine in (
            topology.machines if machines is None else machines
        ):
            self._transports[machine] = ReliableTransport(
                machine,
                loop,
                # Route from the transport's physical machine, not from
                # packet.src: an executor acks with the dead machine's
                # address in the src field.
                transmit_fn=partial(self._forward_from, machine),
                stats=self.stats,
                tracer=tracer,
                rto=rto,
            )

    # ------------------------------------------------------------------
    # Kernel-facing API
    # ------------------------------------------------------------------

    def register_receiver(
        self, machine: MachineId, receiver: Receiver
    ) -> None:
        """Deliver in-order payloads arriving at *machine* to *receiver*."""
        transport = self._transport(machine)
        transport.deliver_fn = receiver

    def send(
        self,
        src: MachineId,
        dst: MachineId,
        payload: Any,
        payload_bytes: int,
        category: str = "user",
    ) -> None:
        """Reliably send *payload* from machine *src* to machine *dst*."""
        if src == dst:
            raise UnknownMachineError(
                f"machine {src} tried to use the network to reach itself; "
                "local delivery never touches the wire"
            )
        transport = self._transports.get(src) or self._transport(src)
        transport.send(dst, payload, payload_bytes, category)

    def set_faults(
        self,
        faults: FaultPlan,
        a: MachineId | None = None,
        b: MachineId | None = None,
    ) -> None:
        """Apply a fault plan to one wire pair (both directions) or, with no
        machines given, to every current and future channel."""
        if a is None and b is None:
            self._default_faults = faults
            for channel in self._channels.values():
                channel.faults = faults
            return
        if a is None or b is None:
            raise UnknownMachineError(
                "set_faults needs both machines or neither"
            )
        for pair in ((a, b), (b, a)):
            self._channel(*pair).faults = faults

    def cut_pairs(
        self, group_a: Iterable[MachineId], group_b: Iterable[MachineId]
    ) -> list[tuple[MachineId, MachineId]]:
        """The wire pairs whose endpoints straddle the two groups.

        Only physically adjacent pairs count: routing still follows the
        (unchanged) shortest paths, so faulting exactly these wires is
        what stops — or degrades — all traffic that must cross the cut.
        """
        b_set = set(group_b)
        return [
            (a, b)
            for a in sorted(group_a)
            for b in self.topology.neighbors(a)
            if b in b_set
        ]

    def partition(
        self,
        group_a: Iterable[MachineId],
        group_b: Iterable[MachineId],
        plan: FaultPlan | None = None,
    ) -> int:
        """Sever (or degrade) every wire between the two machine groups.

        With no *plan*, the cut wires drop everything — a clean network
        partition.  The reliable transport keeps retransmitting across
        the cut, so traffic resumes exactly-once after :meth:`heal`.
        Returns the number of wire pairs affected.
        """
        plan = plan if plan is not None else FaultPlan(drop_probability=1.0)
        pairs = self.cut_pairs(group_a, group_b)
        for a, b in pairs:
            self.set_faults(plan, a, b)
        return len(pairs)

    def heal(
        self,
        group_a: Iterable[MachineId],
        group_b: Iterable[MachineId],
    ) -> int:
        """Restore the cut wires to the network's default fault plan."""
        pairs = self.cut_pairs(group_a, group_b)
        for a, b in pairs:
            self.set_faults(self._default_faults, a, b)
        return len(pairs)

    def install_redirect(
        self, dead: MachineId, executor: MachineId
    ) -> None:
        """Deliver all traffic addressed to *dead* at *executor* instead.

        The routing half of fail-stop takeover: the executor's transport
        accepts the dead machine's packets (and acks them), so senders'
        outstanding retransmissions settle instead of looping forever.
        :meth:`repro.core.cluster.Cluster.crash_transport` calls this on
        **every** network of the cluster at one barrier, so all of them
        flip their (pure-data) routing view together; no transport
        validation here — a shard's network usually owns neither
        machine, and the cluster validated both before fanning out.
        """
        if dead == executor:
            raise UnknownMachineError("a machine cannot execute itself")
        self._redirects[dead] = executor
        # Chase chains: anything previously redirected to `dead` now
        # lands on the executor too.
        for original, target in list(self._redirects.items()):
            if target == dead:
                self._redirects[original] = executor

    def effective_destination(self, machine: MachineId) -> MachineId:
        """Where traffic addressed to *machine* is actually delivered."""
        return self._redirects.get(machine, machine)

    def in_flight(self) -> int:
        """Packets currently on some wire (diagnostics)."""
        return sum(c.in_flight for c in self._channels.values())

    def unacked(self) -> int:
        """Packets awaiting acknowledgement across all machines."""
        return sum(t.unacked_count for t in self._transports.values())

    def quiescent(self) -> bool:
        """True when nothing is in flight and nothing awaits an ack."""
        return self.in_flight() == 0 and self.unacked() == 0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _transport(self, machine: MachineId) -> ReliableTransport:
        try:
            return self._transports[machine]
        except KeyError:
            raise UnknownMachineError(f"unknown machine {machine}") from None

    def _channel(self, a: MachineId, b: MachineId) -> Channel:
        channel = self._channels.get((a, b))
        if channel is None:
            wire = self.topology.wire(a, b)
            channel = Channel(
                self.loop,
                wire,
                deliver=partial(self._forward_from, b),
                faults=self._default_faults,
                # A stream is a function of its name alone, so taking it
                # at the first draw gives the sequence taking it here would.
                make_rng=partial(self._rngs.stream, f"channel/{a}->{b}"),
                on_drop=self._note_drop,
                on_duplicate=self._note_duplicate,
                land=self._lander(a, b),
            )
            self._channels[(a, b)] = channel
        return channel

    def _lander(
        self, a: MachineId, b: MachineId
    ) -> Callable[[int, Packet], None] | None:
        """What becomes of each copy that survives wire ``a -> b``;
        None keeps the channel's own arrival event on this loop."""
        return None

    def _forward_from(self, here: MachineId, packet: Packet) -> None:
        """A packet is at *here* (just sent, or off a wire): hand it to
        the transport if this is where it is delivered, else put it on
        the next wire.  The only forwarding function; once per hop."""
        destination = packet.dst
        if self._redirects:
            destination = self._redirects.get(destination, destination)
        if here == destination:
            transport = self._transports.get(here) or self._transport(here)
            transport.on_packet(packet)
            return
        next_hop = self.topology.next_hop(here, destination)
        channel = self._channels.get((here, next_hop))
        if channel is None:
            channel = self._channel(here, next_hop)
        channel.transmit(packet)

    def _note_drop(self, packet: Packet) -> None:
        self.stats.note_drop()
        if self.tracer is not None:
            self.tracer.record(
                "net",
                "drop",
                src=packet.src,
                dst=packet.dst,
                seq=packet.seq,
            )

    def _note_duplicate(self, packet: Packet) -> None:
        self.stats.note_duplicate()
        if self.tracer is not None:
            self.tracer.record(
                "net",
                "duplicate",
                src=packet.src,
                dst=packet.dst,
                seq=packet.seq,
            )


class ShardNetwork(Network):
    """The network facade for one shard of a sharded system.

    Same kernel-facing API as :class:`Network`, but it owns transports
    only for the shard's machines, and every wire transmit becomes a
    :class:`~repro.sim.barrier.HopRecord` tagged with the grid window
    it was produced in.  The loop is a
    :class:`~repro.sim.loop.KeyedEventLoop`, which files each record
    under its canonical key, so when a record is injected is invisible
    in the event order: a hop whose next stop is in this shard is
    scheduled at once, and one bound for another shard waits in that
    shard's outbox for the pair's next rendezvous (see
    :mod:`repro.sim.barrier`).  Either way the order of deliveries on
    any one machine is identical for every shard count.

    Per-wire state — the serialisation horizon, the hop counter and the
    fault-injection stream — lives in the wire's
    :class:`~repro.net.channel.Channel`, which belongs to the wire's
    *source* shard, so it is touched by exactly one worker and its
    evolution is shard-layout independent.

    Fail-stop takeover goes through
    :meth:`~repro.core.cluster.Cluster.crash_transport`, which
    replicates the redirect onto every shard's routing view at a global
    barrier (one shard flipping alone would desynchronise routing).
    Retroactive ``set_faults`` stays unsupported (the default plan from
    the config applies to every wire from the start).
    """

    def __init__(
        self,
        loop: EventLoop,
        topology: Topology,
        shard_index: int,
        shard_of: Callable[[MachineId], int],
        machines: list[MachineId],
        tracer: Tracer | None = None,
        rngs: RandomStreams | None = None,
        faults: FaultPlan | None = None,
        rto: int = DEFAULT_RTO,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        super().__init__(
            loop,
            topology,
            tracer=tracer,
            rngs=rngs,
            faults=faults,
            rto=rto,
            metrics=metrics,
            machines=machines,
        )
        if not hasattr(loop, "schedule_record"):
            raise SimulationError(
                "a shard network needs a KeyedEventLoop (record keys "
                "are the loop's tie-break)"
            )
        self.shard_index = shard_index
        self.shard_of = shard_of
        self.machines = list(machines)
        #: sync-overhead counters the barrier runner fills in
        self.sync = SyncStats()
        #: test hook: called with each delivered HopRecord (or None)
        self.on_record_delivered: Callable[[HopRecord], None] | None = None
        self._outboxes: dict[int, list[HopRecord]] = {}
        self._inbound_pending = 0

    # -- barrier handoff ------------------------------------------------

    def take_outboxes(self) -> dict[int, list[HopRecord]]:
        """Pending hop records keyed by destination shard (clears
        them), in production order: the keyed loop files each under its
        own key, so hand-over order is invisible."""
        outboxes = self._outboxes
        self._outboxes = {}
        return outboxes

    def take_outbox(self, dest: int) -> list[HopRecord]:
        """Pending hop records for one destination shard (clears just
        that outbox) — the pairwise-rendezvous drain."""
        return self._outboxes.pop(dest, [])

    def receive_record(self, record: HopRecord) -> None:
        """Schedule one hop at its arrival tick, under its own key —
        the call order does not matter."""
        self._inbound_pending += 1
        self.loop.schedule_record(record, self._record_arrived, record)

    def _record_arrived(self, record: HopRecord) -> None:
        self._inbound_pending -= 1
        if self.on_record_delivered is not None:
            self.on_record_delivered(record)
        self._forward_from(record.dst, record.packet)

    def _lander(
        self, a: MachineId, b: MachineId
    ) -> Callable[[int, Packet], None]:
        """Wire ``a -> b`` lands its copies as hop records, numbered by
        a per-wire counter (duplicates get their own number)."""
        clock = self.loop.clock
        grid = self.loop.grid
        schedule_record = self.loop.schedule_record
        arrived = self._record_arrived
        dest_shard = self.shard_of(b)
        direct = dest_shard == self.shard_index
        wire_seq = 0

        def land(delay: int, packet: Packet) -> None:
            nonlocal wire_seq
            wire_seq += 1
            now = clock._now
            record = HopRecord(
                now + delay, a, b, wire_seq, packet, now // grid
            )
            if direct:
                self._inbound_pending += 1
                schedule_record(record, arrived, record)
            else:
                self._outboxes.setdefault(dest_shard, []).append(record)

        return land

    # -- diagnostics -----------------------------------------------------

    def in_flight(self) -> int:
        """Hops waiting in outboxes plus injected-but-not-arrived ones."""
        queued = sum(len(box) for box in self._outboxes.values())
        return queued + self._inbound_pending

    # -- unsupported under sharding --------------------------------------

    def set_faults(
        self,
        faults: FaultPlan,
        a: MachineId | None = None,
        b: MachineId | None = None,
    ) -> None:
        raise SimulationError(
            "set_faults is not supported on a sharded network; configure "
            "SystemConfig.faults before building the system"
        )
