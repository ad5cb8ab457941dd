"""Network accounting.

Counters are kept per packet kind and per category so benchmarks can report
exactly what the paper reports: how many administrative messages a
migration used, how many bytes of process state moved, how many forwarded
messages a stale link generated.

Only the per-category counters and the retransmission counters are
stored; the totals (packets and bytes sent, packets delivered) are
derived from them, so the transport's per-packet work is two counter
bumps on a send and one on a delivery.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.net.packet import PACKET_HEADER_BYTES, Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry


@dataclass
class NetworkStats:
    """Mutable counters updated by the transport layer."""

    packets_dropped: int = 0
    packets_duplicated: int = 0
    retransmissions: int = 0
    #: payload bytes of the retransmitted copies
    retransmitted_payload_bytes: int = 0
    #: first transmissions (retransmits not included), per category
    sends_by_category: Counter = field(default_factory=Counter)
    payload_bytes_by_category: Counter = field(default_factory=Counter)
    delivered_by_category: Counter = field(default_factory=Counter)

    @property
    def packets_sent(self) -> int:
        """Packets that left a transport, retransmits included."""
        return sum(self.sends_by_category.values()) + self.retransmissions

    @property
    def payload_bytes_sent(self) -> int:
        """Payload bytes of every packet sent, retransmits included."""
        return (
            sum(self.payload_bytes_by_category.values())
            + self.retransmitted_payload_bytes
        )

    @property
    def bytes_sent(self) -> int:
        """Wire bytes of every packet sent: payload plus headers."""
        return (
            self.payload_bytes_sent + PACKET_HEADER_BYTES * self.packets_sent
        )

    @property
    def packets_delivered(self) -> int:
        """Packets accepted (post-dedup) by a receiving transport."""
        return sum(self.delivered_by_category.values())

    def note_retransmit(self, packet: Packet) -> None:
        """Record a retransmitted copy leaving a transport.

        A first transmission is two category-counter bumps, made inline
        at the transport's data-send and ack-send sites.
        """
        self.retransmissions += 1
        self.retransmitted_payload_bytes += packet.payload_bytes

    def note_drop(self) -> None:
        """Record a packet lost by fault injection."""
        self.packets_dropped += 1

    def note_duplicate(self) -> None:
        """Record a packet duplicated by fault injection."""
        self.packets_duplicated += 1

    def snapshot(self) -> dict[str, int]:
        """A flat copy of the scalar counters (for report deltas)."""
        return {
            "packets_sent": self.packets_sent,
            "packets_delivered": self.packets_delivered,
            "packets_dropped": self.packets_dropped,
            "packets_duplicated": self.packets_duplicated,
            "retransmissions": self.retransmissions,
            "bytes_sent": self.bytes_sent,
            "payload_bytes_sent": self.payload_bytes_sent,
        }

    def publish(self, registry: "MetricsRegistry") -> None:
        """Mirror every counter into a metrics registry.

        Registered by :class:`~repro.net.network.Network` as a registry
        collector, so snapshots always see current values without the
        transport paying per-packet registry costs.
        """
        for name, value in self.snapshot().items():
            registry.counter(f"net.{name}").set_total(value)
        for cat, count in self.sends_by_category.items():
            registry.counter("net.sends", category=cat).set_total(count)
        for cat, nbytes in self.payload_bytes_by_category.items():
            registry.counter("net.payload_bytes", category=cat).set_total(
                nbytes
            )
        for cat, count in self.delivered_by_category.items():
            registry.counter("net.delivered", category=cat).set_total(count)

    def category_snapshot(self) -> dict[str, tuple[int, int]]:
        """Per-category ``(sends, payload_bytes)`` pairs."""
        return {
            cat: (
                self.sends_by_category[cat],
                self.payload_bytes_by_category[cat],
            )
            for cat in self.sends_by_category
        }
