"""Per-migration cost ledger (paper §6), and the one account of its steps.

The paper separates the cost of moving a process into the *state transfer
cost* (three data moves: program, resident state, swappable state, plus
forwarding the pending message queue) and the *administrative cost*
(nine 6-12 byte control messages).  Every migration fills in one
:class:`MigrationCostRecord`, which benchmark E1 and the policies read
back.

The source kernel also stamps every protocol event of Figure 3-1 on the
record, so it is the whole story of one migration on any engine, traced
or not; spans and the text timeline are views of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.kernel.ids import ProcessId
from repro.net.topology import MachineId

#: The three data moves of §6, in transfer order.
SEGMENTS = ("resident", "swappable", "program")

#: Figure 3-1, one row per protocol event a record stamps: ``migrate``
#: tracer event -> (span event name, protocol step or None, timeline
#: label or None).
PROTOCOL_EVENTS: dict[str, tuple[str, int | None, str | None]] = {
    "step1-freeze": ("FREEZE", 1, "1 freeze (source)"),
    "step2-request": ("REQUEST", 2, "2 request -> destination"),
    "accepted": ("ACCEPT", None, None),
    "step3-allocate": ("ALLOCATE", 3, "3 allocate state (destination)"),
    "step4-state": ("SEGMENT_MOVE", 4, "4 transfer state"),
    "step5-program": ("SEGMENT_MOVE", 5, "5 transfer program"),
    "segment-stream": ("SEGMENT_STREAM", None, None),
    "transfer-complete": ("TRANSFER_COMPLETE", None, None),
    "step6-forward-pending": (
        "FORWARD_PENDING", 6, "6 forward pending messages (source)",
    ),
    "step7-cleanup": (
        "CLEANUP", 7, "7 cleanup + forwarding address (source)",
    ),
    "step8-restart": ("RESTART", 8, "8 restart (destination)"),
    "done": ("RESTART_ACK", None, None),
    "refused": ("REFUSED", None, None),
}


@dataclass(slots=True)
class MigrationCostRecord:
    """Everything one migration cost, as observed from the source kernel."""

    pid: ProcessId
    source: MachineId
    dest: MachineId
    started_at: int  #: steps 1 and 2
    success: bool | None = None
    #: (op, payload_bytes) for each administrative message the source sent
    #: or received; a successful migration logs exactly nine
    admin_messages: list[tuple[str, int]] = field(default_factory=list)
    #: bytes per data move, keyed by segment name
    segment_bytes: dict[str, int] = field(default_factory=dict)
    #: number of move-data packets used for the state transfer
    datamove_chunks: int = 0
    #: messages that were pending in the queue and had to be forwarded
    pending_forwarded: int = 0
    #: simulated time the process restarted on the destination (step 8)
    restarted_at: int | None = None
    #: simulated time the source learned the migration finished
    completed_at: int | None = None
    refusal_reason: str | None = None
    # -- Figure 3-1 as the source learns it (the destination's own times
    # ride back on its admin messages), plus the scalars spans carry
    saved_status: str = "?"  #: the status step 1 froze
    requested_bytes: int = 0  #: what step 2 asks the destination for
    allocated_at: int | None = None  #: step 3
    accepted_at: int | None = None
    requested_at: tuple[int, ...] = ()  #: steps 4/5, one per segment
    streamed_at: tuple[int, ...] = ()  #: the source streaming each one
    segment_chunks: tuple[int, ...] = ()  #: and in how many packets
    transferred_at: int | None = None  #: end of step 5
    cleaned_up_at: int | None = None  #: steps 6 and 7
    forwarding: bool = False  #: step 7 left a forwarding address
    restart_status: str | None = None  #: step 8

    def note_admin(self, op: str, payload_bytes: int) -> None:
        """Log one administrative message."""
        self.admin_messages.append((op, payload_bytes))

    @property
    def admin_message_count(self) -> int:
        """How many administrative messages this migration used."""
        return len(self.admin_messages)

    @property
    def admin_bytes(self) -> int:
        """Total administrative payload bytes."""
        return sum(size for _op, size in self.admin_messages)

    @property
    def state_transfer_bytes(self) -> int:
        """Total bytes of the three data moves."""
        return sum(self.segment_bytes.values())

    @property
    def downtime(self) -> int | None:
        """Microseconds the process was unrunnable (freeze to restart)."""
        if self.restarted_at is None:
            return None
        return self.restarted_at - self.started_at

    @property
    def duration(self) -> int | None:
        """Microseconds from initiation until the source saw completion."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at

    def protocol_events(self) -> list[tuple[int, str, dict[str, Any]]]:
        """The protocol events stamped so far, in time order, as
        ``(time, tracer event, fields)`` — each the ``migrate`` record
        the kernel traced for it, less the pid.  Same-tick events keep
        the protocol's causal order."""
        events = [
            (self.started_at, "step1-freeze", {"machine": self.source,
             "dest": self.dest, "saved": self.saved_status}),
            (self.started_at, "step2-request", {"dest": self.dest}),
            (self.allocated_at, "step3-allocate",
             {"bytes": self.requested_bytes}),
            (self.accepted_at, "accepted", {}),
        ]
        for segment, requested, streamed, chunks in zip(
            SEGMENTS, self.requested_at, self.streamed_at,
            self.segment_chunks,
        ):
            step = "step5-program" if segment == "program" else "step4-state"
            events += [
                (requested, step, {"segment": segment}),
                (streamed, "segment-stream", {
                    "segment": segment,
                    "bytes": self.segment_bytes[segment], "chunks": chunks,
                }),
            ]
        events += [
            (self.transferred_at, "transfer-complete",
             {"bytes": self.requested_bytes, "machine": self.dest}),
            (self.cleaned_up_at, "step6-forward-pending",
             {"count": self.pending_forwarded}),
            (self.cleaned_up_at, "step7-cleanup",
             {"forwarding": self.forwarding}),
            (self.restarted_at, "step8-restart",
             {"status": self.restart_status}),
            (self.completed_at, "done",
             {"admin": self.admin_message_count, "downtime": self.downtime})
            if self.success else
            (self.completed_at, "refused", {"reason": self.refusal_reason}),
        ]
        stamped = [event for event in events if event[0] is not None]
        return sorted(stamped, key=lambda event: event[0])

    def summary(self) -> dict[str, object]:
        """A flat dict suitable for printing as a benchmark row."""
        return {
            "pid": str(self.pid),
            "source": self.source,
            "dest": self.dest,
            "success": self.success,
            "admin_messages": self.admin_message_count,
            "admin_bytes": self.admin_bytes,
            "resident_bytes": self.segment_bytes.get("resident", 0),
            "swappable_bytes": self.segment_bytes.get("swappable", 0),
            "program_bytes": self.segment_bytes.get("program", 0),
            "datamove_chunks": self.datamove_chunks,
            "pending_forwarded": self.pending_forwarded,
            "downtime_us": self.downtime,
            "duration_us": self.duration,
        }
