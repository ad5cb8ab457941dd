"""Link updating (paper §5, Figure 5-1).

"As it forwards the message, the forwarding machine sends another special
message to the kernel of the process that sent the original message.  This
special message contains the process identifier of the sender of the
original message, the process identifier of the intended receiver (the
migrated process), and the new location of the receiver.  All links in the
sending process's link table that point to the migrated process are then
updated to point to the new location."

This module defines the update payload (10 bytes on the wire: two pids of
4 bytes and a 2-byte machine id — inside the paper's 6-12 byte control-
message range) and the receiving-kernel application logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.kernel.ids import PROCESS_ID_BYTES, ProcessAddress, ProcessId
from repro.kernel.messages import Message, MessageKind
from repro.net.topology import MachineId

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel

#: sender pid (4) + receiver pid (4) + new machine (2).
LINK_UPDATE_PAYLOAD_BYTES = 2 * PROCESS_ID_BYTES + 2

#: The message op used for link updates.
OP_LINK_UPDATE = "link-update"


@dataclass(frozen=True)
class LinkUpdate:
    """The content of a link-update message."""

    sender_pid: ProcessId  #: whose link table should be patched
    target_pid: ProcessId  #: the migrated process
    new_machine: MachineId  #: where it lives now


def build_link_update(
    forwarder: ProcessAddress,
    update: LinkUpdate,
    sender_kernel: ProcessAddress,
    serial: int = 0,
) -> Message:
    """The special message the forwarding machine sends (Figure 5-1).

    It goes from the forwarding kernel's address *forwarder* to
    *sender_kernel*, the kernel of the machine the original message
    came from — the sender's machine as recorded in the forwarded
    message (:func:`sender_machine_of`).  *serial* is the forwarding
    kernel's next message serial.
    """
    # Positional, in field order (see Kernel.send_from_process).
    return Message(
        sender_kernel,
        forwarder,
        MessageKind.LINK_UPDATE,
        OP_LINK_UPDATE,
        update,
        LINK_UPDATE_PAYLOAD_BYTES,
        (),
        False,
        0,
        "linkupdate",
        serial,
    )


def sender_machine_of(message: Message) -> MachineId:
    """Which machine the stale-link sender was on when it sent *message*."""
    sender: ProcessAddress = message.sender
    return sender.last_known_machine


def apply_link_update(kernel: "Kernel", message: Message) -> None:
    """The sender's kernel patches every link of the sending process that
    points at the migrated one (the receiving end of Figure 5-1)."""
    update: LinkUpdate = message.payload
    state = kernel.processes.get(update.sender_pid)
    if state is None:
        kernel.tracer.record(
            "linkupd", "no-process", sender=str(update.sender_pid),
        )
        return
    changed = state.link_table.retarget_all(
        update.target_pid, update.new_machine
    )
    kernel.stats.link_updates_applied += 1
    kernel.stats.links_retargeted += changed
    if kernel._trace_wants("linkupd"):
        kernel.tracer.record(
            "linkupd", "applied", sender=str(update.sender_pid),
            target=str(update.target_pid),
            new_machine=update.new_machine, changed=changed,
        )
