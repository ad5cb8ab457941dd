"""The network facade kernels talk to.

``Network`` wires together the topology, lossy per-wire channels, and one
:class:`~repro.net.reliable.ReliableTransport` endpoint per machine.
Packets are routed hop-by-hop along latency-weighted shortest paths; fault
injection (if configured) applies independently on every hop.

A kernel uses one operation, :meth:`Network.register_receiver`: it
claims a machine's inbound payloads and returns the machine's transport,
whose ``send`` reliably delivers an opaque payload to another machine.
Any other caller sends through :meth:`Network.send`.

One class serves both engines.  A single-loop ``System`` builds one
network that owns every machine; a sharded system builds one per shard,
each owning its shard's machines.  Every copy that survives a wire lands
the same way: through its loop's ``hop_lander`` when the next stop is in
this shard, as a :class:`~repro.sim.barrier.HopRecord` in the other
shard's outbox otherwise (see :mod:`repro.sim.barrier`).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import UnknownMachineError
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


def _one_shard(machine: MachineId) -> int:
    """The default shard map: one shard owns every machine."""
    return 0


class Network:
    """All inter-machine communication for one shard of a system (by
    default, the only shard: it owns every machine).

    Per-wire state — the serialisation horizon, the hop counter, the
    fault plan and the fault-injection stream — lives in the wire's
    :class:`~repro.net.channel.Channel`, which belongs to the network
    owning the wire's *source* machine, so its evolution does not
    depend on how machines are split into shards.

    Both cross-shard mutations run at a global barrier and reach every
    network of a cluster: fail-stop takeover through
    :meth:`~repro.core.cluster.Cluster.crash_transport`, which
    replicates the redirect onto every routing view, and chaos wire
    surgery, which hands one plan to every network's :meth:`set_faults`
    — each rewrites only the wires it owns, so every wire changes
    exactly once.
    """

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
        shard_index: int = 0,
        shard_of: Callable[[MachineId], int] = _one_shard,
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
        #: the forwarding table: (here, effective destination) -> the
        #: channel to the next hop, filled on a miss from
        #: Topology.next_hop (the only routing function).  It cannot go
        #: stale: the topology is frozen below, a fault plan changes a
        #: channel in place, and redirects resolve before the lookup.
        self._forward: dict[tuple[MachineId, MachineId], Channel] = {}
        self._transports: dict[MachineId, ReliableTransport] = {}
        #: fail-stop takeover: traffic addressed to a crashed machine is
        #: carried to (and accepted by) its executor, modelling the
        #: published-communications recovery the paper defers to (§4)
        self._redirects: dict[MachineId, MachineId] = {}
        topology.freeze()
        self.shard_index = shard_index
        self.shard_of = shard_of
        #: the machines this network owns a transport for
        self.machines = list(
            topology.machines if machines is None else machines
        )
        #: sync-overhead counters the barrier runner fills in
        self.sync = SyncStats()
        #: test hook: called with a HopRecord for each delivered hop
        #: (minted for a shard-internal hop only while a hook is set)
        self.on_record_delivered: Callable[[HopRecord], None] | None = None
        self._outboxes: dict[int, list[HopRecord]] = {}
        for machine in self.machines:
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
    ) -> ReliableTransport:
        """Deliver in-order payloads arriving at *machine* to *receiver*.

        Returns the machine's transport: a kernel binds its ``send``
        once, so a remote message goes kernel -> transport with no
        facade frame in between.
        """
        transport = self._transport(machine)
        transport.deliver_fn = receiver
        return transport

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
        machines given, to every current and future channel.

        Only wires leaving a machine this network owns are touched: a
        wire's state lives with its source machine's network, so a
        sharded cluster rewrites a wire by handing the same plan to
        every shard's network.
        """
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
            if pair[0] in self._transports:
                self._channel(*pair).faults = faults

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
        """Hops waiting in outboxes plus scheduled-but-not-arrived ones
        (diagnostics)."""
        queued = sum(len(box) for box in self._outboxes.values())
        return queued + self.loop.pending_calls(
            (self._hop_arrived, self._record_arrived)
        )

    def unacked(self) -> int:
        """Packets awaiting acknowledgement across all machines."""
        return sum(t.unacked_count for t in self._transports.values())

    def quiescent(self) -> bool:
        """True when nothing is in flight and nothing awaits an ack."""
        return self.in_flight() == 0 and self.unacked() == 0

    # ------------------------------------------------------------------
    # Barrier handoff
    # ------------------------------------------------------------------

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
        self.loop.schedule_record(record, self._record_arrived, record)

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
            # Each copy that survives the wire is a hop: filed straight
            # onto this loop when b is in this shard, shipped to b's
            # shard as a hop record otherwise.
            dest_shard = self.shard_of(b)
            if dest_shard == self.shard_index:
                land = self.loop.hop_lander(a, b, self._hop_arrived)
            else:
                land = self._record_shipper(a, b, dest_shard)
            channel = Channel(
                self.loop,
                self.topology.wire(a, b),
                land,
                faults=self._default_faults,
                # A stream is a function of its name alone, so taking it
                # at the first draw gives the sequence taking it here would.
                make_rng=partial(self._rngs.stream, f"channel/{a}->{b}"),
                on_drop=self._note_drop,
                on_duplicate=self._note_duplicate,
            )
            self._channels[(a, b)] = channel
        return channel

    def _record_shipper(
        self, a: MachineId, b: MachineId, dest_shard: int
    ) -> Callable[[int, Packet], None]:
        """Land the copies of wire ``a -> b`` as hop records in
        *dest_shard*'s outbox, numbered by the wire's own counter
        (duplicates get their own number) as ``hop_lander`` numbers
        them, and tagged with the grid window they were produced in."""
        clock = self.loop.clock
        grid = self.loop.grid
        wire_seq = 0

        def ship(delay: int, packet: Packet) -> None:
            nonlocal wire_seq
            wire_seq += 1
            now = clock._now
            self._outboxes.setdefault(dest_shard, []).append(
                HopRecord(now + delay, a, b, wire_seq, packet, now // grid)
            )

        return ship

    def _hop_arrived(
        self, src: MachineId, dst: MachineId, wire_seq: int,
        packet: Packet, gen: int,
    ) -> None:
        if self.on_record_delivered is not None:
            self.on_record_delivered(
                HopRecord(self.loop.now, src, dst, wire_seq, packet, gen)
            )
        self._forward_from(dst, packet)

    def _record_arrived(self, record: HopRecord) -> None:
        if self.on_record_delivered is not None:
            self.on_record_delivered(record)
        self._forward_from(record.dst, record.packet)

    def _forward_from(self, here: MachineId, packet: Packet) -> None:
        """A packet is at *here* (just sent, or off a wire): hand it to
        the transport if this is where it is delivered, else put it on
        the next wire.  The only forwarding function; once per hop."""
        destination = packet.dst
        if self._redirects:
            destination = self._redirects.get(destination, destination)
        if here == destination:
            try:
                transport = self._transports[here]
            except KeyError:
                transport = self._transport(here)  # raises: not ours
            transport.on_packet(packet)
            return
        try:
            channel = self._forward[here, destination]
        except KeyError:
            channel = self._forward[here, destination] = self._channel(
                here, self.topology.next_hop(here, destination)
            )
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
