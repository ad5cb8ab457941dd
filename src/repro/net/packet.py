"""Packet framing and size accounting.

The paper's cost analysis counts messages and bytes, so every packet knows
its payload size and the fixed header overhead.  Payloads are opaque Python
objects; the simulator never serialises them — the *declared* byte size is
what travels on the simulated wire.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from repro.net.topology import MachineId

#: Fixed framing overhead per packet: src(2) dst(2) seq(4) kind(1)
#: length(2) checksum(1) — 12 bytes, in the spirit of a Z8000-era LAN frame.
PACKET_HEADER_BYTES = 12

#: Size of a transport-level acknowledgement (header only + 4-byte seq echo).
ACK_PAYLOAD_BYTES = 4

_packet_serial = itertools.count(1)


class PacketKind(Enum):
    """Transport-level packet classification (for stats and traces)."""

    DATA = "data"  #: carries a payload from the layer above
    ACK = "ack"  #: transport acknowledgement


@dataclass(slots=True)
class Packet:
    """One frame on the simulated wire."""

    src: MachineId
    dst: MachineId
    kind: PacketKind
    seq: int
    payload: Any
    payload_bytes: int
    #: category tag from the layer above ("admin", "user", "datamove", ...);
    #: used only for accounting, never for routing.
    category: str = "user"
    serial: int = field(default_factory=_packet_serial.__next__)

    @property
    def size_bytes(self) -> int:
        """Total bytes on the wire, header included."""
        return PACKET_HEADER_BYTES + self.payload_bytes

    def __getstate__(self) -> tuple:
        """Positional wire form: every field except ``serial``.

        The serial is an address-space-local diagnostic id; a forked
        shard's counter diverges from the serial executor's shared one,
        so keeping it out of the pickle makes cross-shard blob bytes
        identical under every executor.  Unpickling mints a fresh local
        serial, preserving uniqueness within the receiving process.
        Positional (not a dict) because per-record wire blobs cannot
        share pickle memos — field-name keys would be repeated bytes on
        every record.
        """
        return (
            self.src, self.dst, self.kind, self.seq,
            self.payload, self.payload_bytes, self.category,
        )

    def __setstate__(self, state: tuple) -> None:
        (
            self.src, self.dst, self.kind, self.seq,
            self.payload, self.payload_bytes, self.category,
        ) = state
        self.serial = next(_packet_serial)

    def __repr__(self) -> str:
        return (
            f"Packet(#{self.serial} {self.src}->{self.dst}"
            f" {self.kind.value} seq={self.seq} {self.payload_bytes}B"
            f" cat={self.category})"
        )
