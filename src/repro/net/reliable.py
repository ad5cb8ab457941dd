"""Reliable, ordered inter-machine delivery.

DEMOS/MP assumes "any message sent will eventually be delivered" and cites
*published communications* [Powell & Presotto 83] as the mechanism.  This
module provides the equivalent guarantee with a classic positive-ack /
retransmission / duplicate-suppression protocol:

- every payload gets a per-(source, addressed-destination) sequence
  number;
- the receiver acks each data packet and delivers payloads **in order**
  per stream (out-of-order arrivals are buffered);
- the sender retransmits unacknowledged packets with exponential backoff,
  forever — under any drop probability < 1 delivery is eventually certain.

Streams are identified by the *addressed* destination, not the physical
receiver: after a fail-stop crash, the dead machine's executor accepts
and acks its streams (the network redirects them) without them colliding
with the executor's own, which is the delivery-level half of the paper's
"the same recovery mechanism that works for processes works for
forwarding addresses".

In-order per-stream delivery also models the paper's note that move-data
packets are "sent to the receiving kernel in a continuous stream".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.net.packet import ACK_PAYLOAD_BYTES, Packet, PacketKind
from repro.net.stats import NetworkStats
from repro.net.topology import MachineId
from repro.sim.events import ScheduledEvent
from repro.sim.loop import EventLoop
from repro.sim.trace import Tracer

#: Default initial retransmission timeout, microseconds.
DEFAULT_RTO = 5_000
#: Multiplicative backoff applied on every retransmission.
RTO_BACKOFF = 2
#: Cap on the backed-off timeout so recovery stays bounded.
MAX_RTO = 200_000

_DATA = PacketKind.DATA
_ACK = PacketKind.ACK

#: A receive stream: (source machine, machine the packets were addressed
#: to — usually the receiver itself, or a dead machine it executes).
StreamKey = tuple[MachineId, MachineId]


@dataclass(slots=True)
class _Outstanding:
    """A data packet awaiting acknowledgement.

    Carries its retransmission *deadline* instead of a dedicated timer
    event: the send state runs one shared timer at the earliest deadline
    of all its unacked packets, so acking a packet never has to cancel
    anything and a burst of sends arms a single heap entry instead of
    one per packet.
    """

    packet: Packet
    deadline: int
    rto: int
    attempts: int = 1


@dataclass(slots=True)
class _SendState:
    """Per-addressed-destination sender state."""

    next_seq: int = 0
    unacked: dict[int, _Outstanding] = field(default_factory=dict)
    #: the one armed timer for this destination (None when idle)
    timer: ScheduledEvent | None = None
    #: simulated time the armed timer fires at
    timer_deadline: int = 0


@dataclass
class _RecvState:
    """Per-stream receiver state."""

    next_deliver_seq: int = 0
    reorder_buffer: dict[int, Packet] = field(default_factory=dict)


class ReliableTransport:
    """The reliable endpoint living on one machine.

    ``transmit_fn`` pushes a raw packet toward its destination (the network
    routes it); ``deliver_fn`` hands an in-order payload to the kernel.
    """

    def __init__(
        self,
        machine: MachineId,
        loop: EventLoop,
        transmit_fn: Callable[[Packet], None],
        stats: NetworkStats,
        tracer: Tracer | None = None,
        rto: int = DEFAULT_RTO,
    ) -> None:
        self.machine = machine
        self._loop = loop
        self._clock = loop.clock
        self._transmit = transmit_fn
        self._stats = stats
        self._tracer = tracer
        self._base_rto = rto
        self._send_states: dict[MachineId, _SendState] = {}
        self._recv_states: dict[StreamKey, _RecvState] = {}
        self.deliver_fn: Callable[[MachineId, Any], None] | None = None

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send(
        self,
        dst: MachineId,
        payload: Any,
        payload_bytes: int,
        category: str = "user",
    ) -> None:
        """Reliably send *payload* to machine *dst*."""
        sender = self._send_states.get(dst)
        if sender is None:
            sender = self._send_states[dst] = _SendState()
        seq = sender.next_seq
        sender.next_seq = seq + 1
        packet = Packet(
            self.machine, dst, _DATA, seq, payload, payload_bytes, category
        )
        self._stats.note_send(packet)
        deadline = self._clock._now + self._base_rto
        sender.unacked[seq] = _Outstanding(packet, deadline, self._base_rto)
        timer = sender.timer
        if (
            timer is None
            or timer.cancelled
            or sender.timer_deadline > deadline
        ):
            self._arm_timer(dst, sender, deadline)
        self._transmit(packet)

    def _arm_timer(
        self, dst: MachineId, sender: _SendState, deadline: int
    ) -> None:
        """Make sure the destination's timer fires by *deadline*.

        Lazy re-arm: an already armed timer that fires earlier is left
        alone (its wakeup re-arms for whatever is still pending); one
        that fires later is cancelled and brought forward.
        """
        if sender.timer is not None and not sender.timer.cancelled:
            if sender.timer_deadline <= deadline:
                return
            self._loop.cancel(sender.timer)
        # call_after is call_at's inlined twin: the same time and the
        # same tie-break key, without the checks a deadline never fails.
        sender.timer = self._loop.call_after(
            deadline - self._clock._now, self._on_timer, dst
        )
        sender.timer_deadline = deadline

    def _on_timer(self, dst: MachineId) -> None:
        """Retransmit every packet to *dst* whose deadline has passed.

        Transmits can loop straight back into this transport: when this
        machine executes a crashed *dst*, the network delivers the packet
        locally and the resulting ack pops ``sender.unacked`` before
        ``_transmit`` returns.  So the scan collects expired entries from
        a snapshot, transmits afterwards (skipping anything acked
        mid-burst), and recomputes the next deadline from the live dict.
        """
        sender = self._send_states[dst]
        sender.timer = None
        if not sender.unacked:
            return
        now = self._clock._now
        expired = [
            (seq, entry)
            for seq, entry in sender.unacked.items()
            if entry.deadline <= now
        ]
        for seq, entry in expired:
            if seq not in sender.unacked:
                continue  # acked by a synchronous loop-back transmit
            entry.attempts += 1
            entry.rto = min(entry.rto * RTO_BACKOFF, MAX_RTO)
            entry.deadline = now + entry.rto
            self._stats.note_send(entry.packet, retransmit=True)
            if self._tracer is not None:
                self._tracer.record(
                    "net",
                    "retransmit",
                    src=self.machine,
                    dst=dst,
                    seq=seq,
                    attempt=entry.attempts,
                )
            self._transmit(entry.packet)
        if sender.unacked:
            self._arm_timer(
                dst,
                sender,
                min(e.deadline for e in sender.unacked.values()),
            )

    @property
    def unacked_count(self) -> int:
        """Total packets awaiting acknowledgement across all peers."""
        return sum(len(s.unacked) for s in self._send_states.values())

    # ------------------------------------------------------------------
    # Fail-stop takeover (crash recovery support)
    # ------------------------------------------------------------------

    def export_recv_states(self) -> dict[StreamKey, _RecvState]:
        """The receive streams, for an executor to absorb (the published
        state a backup would hold)."""
        return dict(self._recv_states)

    def absorb_recv_states(
        self, states: dict[StreamKey, _RecvState]
    ) -> None:
        """Adopt a crashed machine's receive streams.

        Keys carry the addressed destination, so a dead machine's streams
        never collide with the executor's own.
        """
        for key, state in states.items():
            if key not in self._recv_states:
                self._recv_states[key] = state

    def abandon_sends(self) -> int:
        """Cancel every retransmission timer (the machine is dead).

        Unacknowledged packets are lost, which is exactly fail-stop
        semantics: a crashed sender's in-flight messages may or may not
        have been delivered.  Returns how many were abandoned.
        """
        abandoned = 0
        for sender in self._send_states.values():
            abandoned += len(sender.unacked)
            sender.unacked.clear()
            if sender.timer is not None:
                self._loop.cancel(sender.timer)
                sender.timer = None
        return abandoned

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------

    def on_packet(self, packet: Packet) -> None:
        """Handle a raw packet arriving at (or executed by) this machine."""
        if packet.kind is not _ACK:
            self._on_data(packet)
            return
        # The ack's source is the machine the data was *addressed* to
        # (its executor echoes that address), matching our send state.
        sender = self._send_states.get(packet.src)
        if sender is None:
            return  # nothing was ever sent there: nothing to settle
        sender.unacked.pop(packet.payload, None)
        if not sender.unacked and sender.timer is not None:
            self._loop.cancel(sender.timer)
            sender.timer = None

    def _on_data(self, packet: Packet) -> None:
        key = (packet.src, packet.dst)
        stream = self._recv_states.get(key)
        if stream is None:
            stream = self._recv_states[key] = _RecvState()
        # Ack every copy.  Acks carry the *addressed* destination as
        # their source so the original sender finds its send state even
        # when an executor is answering for a crashed machine.
        seq = packet.seq
        ack = Packet(
            packet.dst, packet.src, _ACK, seq, seq, ACK_PAYLOAD_BYTES, "ack"
        )
        self._stats.note_send(ack)
        self._transmit(ack)
        if seq < stream.next_deliver_seq:
            return  # duplicate of something already delivered
        buffer = stream.reorder_buffer
        if seq in buffer:
            return  # duplicate of something already buffered
        buffer[seq] = packet
        while stream.next_deliver_seq in buffer:
            ready = buffer.pop(stream.next_deliver_seq)
            stream.next_deliver_seq += 1
            self._stats.note_delivery(ready)
            if self.deliver_fn is not None:
                self.deliver_fn(ready.src, ready.payload)
