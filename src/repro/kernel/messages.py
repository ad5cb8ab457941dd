"""Messages: the universal unit of interaction in DEMOS/MP.

Everything — user requests, kernel control traffic, migration
administration, data-move chunks, link updates — is a message sent to a
process address.  A message snapshots the link it was sent over (the
destination address and the DELIVERTOKERNEL bit); from then on the only
field the system ever rewrites is the destination's last-known machine,
which forwarding addresses patch en route.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any

from repro.kernel.ids import PROCESS_ADDRESS_BYTES, ProcessAddress
from repro.kernel.links import LINK_WIRE_BYTES, LinkSnapshot

#: Fixed message header modelled on the wire: destination address (6) +
#: sender address (6) + kind/op tag (3) + link count (1).
MESSAGE_HEADER_BYTES = 2 * PROCESS_ADDRESS_BYTES + 4


class MessageKind(Enum):
    """Coarse classification of message traffic."""

    USER = "user"  #: process-to-process requests and replies
    CONTROL = "control"  #: kernel-to-kernel administration
    DATA_MOVE = "datamove"  #: bulk data chunks from the move-data facility
    LINK_UPDATE = "linkupdate"  #: forwarder -> sender's kernel fix-ups
    NACK = "nack"  #: undeliverable notice (return-to-sender mode)


@dataclass(slots=True)
class Message:
    """One message in flight or queued.

    ``dest`` starts as a snapshot of the sending link's address and is
    rewritten by forwarding addresses as the message chases the process.
    ``sender`` records who sent it *and from which machine*, which is what
    the link-update mechanism uses to find the stale link table.
    """

    dest: ProcessAddress
    sender: ProcessAddress
    kind: MessageKind
    op: str
    payload: Any = None
    payload_bytes: int = 0
    links: tuple[LinkSnapshot, ...] = ()
    deliver_to_kernel: bool = False
    #: incremented every time a forwarding address redirects this message
    forward_count: int = 0
    #: accounting category for the network layer ("user", "admin", ...)
    category: str = "user"
    #: minted by the sending kernel (:attr:`Kernel.next_serial`); with
    #: the sender's machine it names the message cluster-wide
    serial: int = 0
    #: local link ids minted in the receiver's table at delivery time
    delivered_link_ids: tuple[int, ...] = ()

    @property
    def wire_bytes(self) -> int:
        """Bytes this message occupies as a network payload."""
        links = self.links
        return (
            MESSAGE_HEADER_BYTES
            + self.payload_bytes
            + (LINK_WIRE_BYTES * len(links) if links else 0)
        )

    def redirect(self, machine: int) -> None:
        """Point the message at the process's new machine (forwarding)."""
        self.dest = self.dest.moved_to(machine)
        self.forward_count += 1

    def __getstate__(self) -> tuple:
        """Positional wire form: every field except receiver-local state.

        ``delivered_link_ids`` is minted by the *receiver* at delivery
        time; a message in flight has none, but the serial executor
        shares one live object between sender and receiver, so a
        transport retransmission after first delivery would otherwise
        pickle the receiver's mutation — making blob bytes
        executor-dependent.  Positional because per-record wire blobs
        cannot share pickle memos.
        """
        return (
            self.dest, self.sender, self.kind, self.op, self.payload,
            self.payload_bytes, self.links, self.deliver_to_kernel,
            self.forward_count, self.category, self.serial,
        )

    def __setstate__(self, state: tuple) -> None:
        (
            self.dest, self.sender, self.kind, self.op, self.payload,
            self.payload_bytes, self.links, self.deliver_to_kernel,
            self.forward_count, self.category, self.serial,
        ) = state
        self.delivered_link_ids = ()

    def __repr__(self) -> str:
        flags = " D2K" if self.deliver_to_kernel else ""
        fwd = f" fwd={self.forward_count}" if self.forward_count else ""
        return (
            f"Message(#{self.serial} {self.sender}->{self.dest}"
            f" {self.kind.value}/{self.op} {self.payload_bytes}B"
            f"{flags}{fwd})"
        )

