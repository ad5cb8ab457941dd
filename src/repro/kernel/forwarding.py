"""Forwarding addresses (paper §4, Figure 4-1).

"A forwarding address is a degenerate process state, whose only contents
are the (last known) machine to which the process was migrated."  It costs
8 bytes and lives in the kernel's process namespace: the normal message
delivery system finds it exactly where the process used to be and, instead
of queueing, rewrites the message's destination machine and resubmits it.

Forwarding addresses are garbage-collected when the process dies, by
pointers backwards along the path of migration (the process state carries
its residence history).  A message with neither a process nor a
forwarding address here is undeliverable (:class:`UndeliverablePolicy`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import TYPE_CHECKING

from repro.kernel.ids import ProcessId
from repro.kernel.linkupdate import (
    LinkUpdate,
    OP_LINK_UPDATE,
    apply_link_update,
    build_link_update,
    sender_machine_of,
)
from repro.kernel.messages import Message, MessageKind
from repro.kernel.ops import (
    OP_FORWARD_GC,
    OP_NACK,
    OP_UNDELIVERABLE,
    OP_WHERE_IS_REPLY,
)
from repro.net.topology import MachineId

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel

#: Paper §4: "In the current implementation, it uses 8 bytes of storage."
FORWARDING_ADDRESS_BYTES = 8


class UndeliverablePolicy(Enum):
    """What to do with a message whose destination is not here.

    FORWARD is the paper's design: leave a forwarding address behind.
    RETURN_TO_SENDER is the §4 alternative the paper rejects; it is
    implemented as an ablation (experiment E7).
    """

    FORWARD = "forward"
    RETURN_TO_SENDER = "return-to-sender"


@dataclass
class ForwardingAddress:
    """A degenerate process state: pid -> machine it migrated to."""

    pid: ProcessId
    machine: MachineId
    created_at: int
    #: messages this entry has forwarded (diagnostics / GC heuristics)
    forwards: int = 0

    @property
    def size_bytes(self) -> int:
        """Storage used on the source machine."""
        return FORWARDING_ADDRESS_BYTES


class ForwardingTable:
    """All forwarding addresses held by one kernel."""

    def __init__(self) -> None:
        self._entries: dict[ProcessId, ForwardingAddress] = {}
        self.total_forwards = 0
        self.collected = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, pid: ProcessId) -> bool:
        return pid in self._entries

    def install(self, pid: ProcessId, machine: MachineId, now: int) -> None:
        """Leave a forwarding address after migration step 7.

        Re-installing for the same pid (the process migrated away, came
        back, and left again) simply replaces the old pointer.
        """
        self._entries[pid] = ForwardingAddress(pid, machine, now)

    def lookup(self, pid: ProcessId) -> ForwardingAddress | None:
        """The forwarding address for *pid*, if any."""
        return self._entries.get(pid)

    def forward_target(self, pid: ProcessId) -> MachineId | None:
        """Record a forward through *pid*'s entry and return the target."""
        entry = self._entries.get(pid)
        if entry is None:
            return None
        entry.forwards += 1
        self.total_forwards += 1
        return entry.machine

    def collect(self, pid: ProcessId) -> bool:
        """Drop *pid*'s forwarding address (process died).  Idempotent."""
        if self._entries.pop(pid, None) is not None:
            self.collected += 1
            return True
        return False

    def sweep(self, now: int, max_age: int) -> list[ForwardingAddress]:
        """Collect entries older than *max_age* (paper §4: "Given a long
        running system ... some form of garbage collection will
        eventually have to be used").

        Returns the collected entries.  Sweeping is safe only to the
        extent that links have converged: a message sent later on a
        still-stale link becomes undeliverable and falls back to the
        kernel's undeliverable policy (sender notice / return-to-sender).
        """
        victims = [
            entry for entry in self._entries.values()
            if now - entry.created_at > max_age
        ]
        for entry in victims:
            del self._entries[entry.pid]
            self.collected += 1
        return victims

    @property
    def storage_bytes(self) -> int:
        """Total residual storage these entries occupy (8 bytes each)."""
        return FORWARDING_ADDRESS_BYTES * len(self._entries)

    def entries(self) -> list[ForwardingAddress]:
        """All entries, sorted by pid (diagnostics)."""
        return sorted(self._entries.values(), key=lambda e: e.pid)


class Forwarder:
    """One kernel's §4 rules for a message whose process is not here:
    :meth:`forward` (with the §5 link update) and :meth:`undeliverable`."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        #: hop-count distribution of messages this kernel forwarded
        #: (paper §4: chains are the cost of lazy link updating)
        self._hops = kernel.metrics.histogram(
            "kernel.forward_hops",
            buckets=(1, 2, 4, 8, 16, 32, 64),
            machine=kernel.machine,
        )
        #: return-to-sender: messages parked while their target is located
        self._awaiting_location: dict[ProcessId, list[Message]] = {}
        register = kernel.register_control
        register(OP_LINK_UPDATE, partial(apply_link_update, kernel))
        register(OP_FORWARD_GC, self._on_forward_gc)
        register(OP_NACK, self._on_nack)
        register(OP_WHERE_IS_REPLY, self._on_where_is_reply)

    def forward(self, message: Message, forward_to: MachineId) -> None:
        """Redirect through a forwarding address (paper Figure 4-1), and
        send the link-update special message (Figure 5-1)."""
        kernel = self.kernel
        original_sender = message.sender
        message.redirect(forward_to)
        kernel.stats.messages_forwarded += 1
        self._hops.observe(message.forward_count)
        if kernel._trace_wants("forward"):
            kernel.tracer.record(
                "forward", "hit", pid=str(message.dest.pid), op=message.op,
                serial=message.serial, to=forward_to,
                hop=message.forward_count,
            )
        kernel.route_message(message)
        # "As a byproduct of forwarding, an attempt may be made to fix up
        # the link of the sending process."  Only process senders hold
        # link tables; kernel-originated traffic has nothing to patch.
        if (
            kernel.config.send_link_updates
            and not original_sender.pid.is_kernel
            and message.kind is not MessageKind.LINK_UPDATE
        ):
            update = LinkUpdate(
                sender_pid=original_sender.pid,
                target_pid=message.dest.pid,
                new_machine=forward_to,
            )
            dest = kernel._peers[sender_machine_of(message)]
            update_msg = build_link_update(
                kernel.address, update, dest, kernel.next_serial()
            )
            kernel.stats.link_updates_sent += 1
            if kernel._trace_wants("linkupd"):
                kernel.tracer.record(
                    "linkupd", "sent", sender=str(update.sender_pid),
                    target=str(update.target_pid), new_machine=forward_to,
                )
            kernel.route_message(update_msg)

    def undeliverable(self, message: Message) -> None:
        """No process and no forwarding address here: FORWARD vs
        RETURN_TO_SENDER."""
        kernel = self.kernel
        kernel.stats.undeliverable += 1
        pid = message.dest.pid
        kernel.tracer.record(
            "kernel", "undeliverable", pid=str(pid), op=message.op,
            dead=pid in kernel.dead, serial=message.serial,
        )
        if kernel.transfers.claim_undeliverable(message):
            return
        if message.kind in (MessageKind.LINK_UPDATE, MessageKind.NACK):
            return  # best-effort traffic is silently dropped
        policy = kernel.config.undeliverable_policy
        if (
            policy is UndeliverablePolicy.RETURN_TO_SENDER
            and pid not in kernel.dead
        ):
            self._nack(message)
            return
        # FORWARD mode, or the process is genuinely dead: tell the sending
        # process its link is no longer usable so it can take recovery
        # action (paper §4).
        self._notify_sender_undeliverable(message)

    def _nack(self, message: Message) -> None:
        """Return a message to its sender's kernel as not deliverable."""
        kernel = self.kernel
        kernel.stats.nacks_sent += 1
        nack = Message(
            dest=kernel._peers[message.sender.last_known_machine],
            sender=kernel.address,
            kind=MessageKind.NACK,
            op=OP_NACK,
            payload=message,
            payload_bytes=message.wire_bytes,
            category="nack",
            serial=kernel.next_serial(),
        )
        kernel.route_message(nack)

    def _notify_sender_undeliverable(self, message: Message) -> None:
        if message.sender.pid.is_kernel:
            return
        kernel = self.kernel
        notice = Message(
            dest=message.sender,
            sender=kernel.address,
            kind=MessageKind.NACK,
            op=OP_UNDELIVERABLE,
            payload={
                "op": message.op,
                "dest": message.dest.pid,
                "dead": message.dest.pid in kernel.dead,
            },
            payload_bytes=8,
            category="nack",
            serial=kernel.next_serial(),
        )
        kernel.route_message(notice)

    def _on_nack(self, nack: Message) -> None:
        """Return-to-sender mode: find the process's new home via the
        process manager, then re-send the original message (paper §4's
        rejected alternative, kept as the E7 ablation)."""
        original: Message = nack.payload
        pid = original.dest.pid
        parked = self._awaiting_location.setdefault(pid, [])
        parked.append(original)
        if len(parked) > 1:
            return  # a location query is already outstanding
        kernel = self.kernel
        pm = kernel.well_known.get("process_manager")
        if pm is None:
            self._notify_sender_undeliverable(original)
            self._awaiting_location.pop(pid, None)
            return
        kernel.send_to_process(
            pm, "where-is", {"pid": pid, "reply_machine": kernel.machine},
            payload_bytes=8, category="locate", kind=MessageKind.USER,
        )

    def _on_where_is_reply(self, message: Message) -> None:
        kernel = self.kernel
        payload = message.payload
        pid: ProcessId = payload["pid"]
        machine: MachineId | None = payload.get("machine")
        parked = self._awaiting_location.pop(pid, [])
        for original in parked:
            if machine is None:
                self._notify_sender_undeliverable(original)
                continue
            original.redirect(machine)
            sender_state = kernel.processes.get(original.sender.pid)
            if sender_state is not None:
                kernel.stats.links_retargeted += (
                    sender_state.link_table.retarget_all(pid, machine)
                )
            kernel.route_message(original)

    def _on_forward_gc(self, message: Message) -> None:
        pid: ProcessId = message.payload["pid"]
        if self.kernel.forwarding.collect(pid):
            self.kernel.tracer.record("forward", "collected", pid=str(pid))
