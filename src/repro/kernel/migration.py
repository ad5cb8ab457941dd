"""The process migration mechanism (paper §3.1, Figure 3-1).

The eight steps, with the machine that drives each:

1. *source*  — remove the process from execution (mark "in migration");
2. *source*  — ask the destination kernel to move the process;
3. *dest*    — allocate an (empty) process state with the same pid;
4. *dest*    — transfer the process state (move-data facility);
5. *dest*    — transfer the program; control returns to the source;
6. *source*  — forward pending messages;
7. *source*  — clean up: reclaim everything, leave a forwarding address;
8. *dest*    — restart the process in whatever state it was in.

Administrative traffic is exactly nine control messages of 6-12 bytes
(§6): request, accept, three segment requests, transfer-complete,
pending-forwarded, cleanup-complete, restart-ack.  The bulk bytes ride
`mig-data` messages accounted in the ``datamove`` category.

§3.2 autonomy is honoured: the destination may refuse (predicate or
memory pressure), in which case the source restores the process and
reports failure so policy can "look elsewhere".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import MigrationError
from repro.kernel.datamove import MAX_DATA_PACKET
from repro.kernel.ids import ProcessId
from repro.kernel.messages import Message
from repro.kernel.ops import (
    ADMIN_PAYLOAD_BYTES,
    OP_CLEANUP_COMPLETE,
    OP_MIGRATE_ACCEPT,
    OP_MIGRATE_DATA,
    OP_MIGRATE_REQUEST,
    OP_PENDING_FORWARDED,
    OP_RESTART_ACK,
    OP_SEG_REQUEST,
    OP_TRANSFER_COMPLETE,
)
from repro.kernel.process_state import ProcessState, ProcessStatus
from repro.net.topology import MachineId
from repro.stats.migration_cost import SEGMENTS, MigrationCostRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel

DoneCallback = Callable[[bool, MigrationCostRecord], None]


#: the process-state property holding each data move's size, in
#: :data:`~repro.stats.migration_cost.SEGMENTS` order
_SEGMENT_BYTES = {
    "resident": "resident_state_bytes",
    "swappable": "swappable_state_bytes",
    "program": "program_bytes",
}


def _segment_sizes(state: ProcessState) -> dict[str, int]:
    """Bytes of each of the three data moves, keyed by segment."""
    return {
        segment: getattr(state, attr)
        for segment, attr in _SEGMENT_BYTES.items()
    }


@dataclass
class _SourceMigration:
    """Source-side record of one outbound migration."""

    pid: ProcessId
    dest: MachineId
    record: MigrationCostRecord
    callbacks: list[DoneCallback] = field(default_factory=list)


@dataclass
class _DestMigration:
    """Destination-side record of one inbound migration."""

    pid: ProcessId
    source: MachineId
    sizes: dict[str, int]
    segment_index: int = 0
    received: int = 0
    state: ProcessState | None = None


class MigrationEngine:
    """One per kernel; both source and destination roles live here."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self._outgoing: dict[ProcessId, _SourceMigration] = {}
        self._incoming: dict[ProcessId, _DestMigration] = {}
        #: finished source-side records, oldest first (benchmark E1 ledger)
        self.completed: list[MigrationCostRecord] = []
        for op, handler in {
            OP_MIGRATE_REQUEST: self._on_request,
            OP_MIGRATE_ACCEPT: self._on_accept,
            OP_SEG_REQUEST: self._on_segment_request,
            OP_MIGRATE_DATA: self._on_data_chunk,
            OP_TRANSFER_COMPLETE: self._on_transfer_complete,
            OP_PENDING_FORWARDED: self._on_pending_forwarded,
            OP_CLEANUP_COMPLETE: self._on_cleanup_complete,
            OP_RESTART_ACK: self._on_restart_ack,
        }.items():
            kernel.register_control(op, handler)

    # ==================================================================
    # Source side
    # ==================================================================

    def start(
        self,
        pid: ProcessId,
        dest: MachineId,
        on_done: DoneCallback | None = None,
    ) -> bool:
        """Begin migrating local process *pid* to machine *dest*.

        Returns True if the migration was initiated.  A False return means
        the process is not here, is already in motion, or the request is a
        no-op (dest == here); callers relying on completion must use
        *on_done*, which fires with (success, cost record).
        """
        kernel = self.kernel
        if pid.is_kernel:
            raise MigrationError("kernels cannot be migrated")
        state = kernel.processes.get(pid)
        if state is None:
            if kernel._trace_wants("migrate"):
                kernel.tracer.record(
                    "migrate", "not-here", pid=str(pid),
                    machine=kernel.machine,
                )
            return False
        if state.status is ProcessStatus.IN_MIGRATION:
            if kernel._trace_wants("migrate"):
                kernel.tracer.record("migrate", "already-moving", pid=str(pid))
            return False
        if dest == kernel.machine:
            if kernel._trace_wants("migrate"):
                kernel.tracer.record("migrate", "noop", pid=str(pid))
            return False
        if not kernel.network.topology.has_machine(dest):
            raise MigrationError(f"no such machine {dest}")

        # -- Step 1: remove the process from execution -----------------
        state.begin_migration()
        kernel.freeze(state)
        sizes = _segment_sizes(state)
        record = MigrationCostRecord(
            pid=pid, source=kernel.machine, dest=dest,
            started_at=kernel.loop.now,
            saved_status=(
                state.saved_status.value if state.saved_status else "?"
            ),
            requested_bytes=sum(sizes.values()),
        )
        entry = _SourceMigration(pid, dest, record)
        if on_done is not None:
            entry.callbacks.append(on_done)
        self._outgoing[pid] = entry
        if kernel._trace_wants("migrate"):
            kernel.tracer.record(
                "migrate", "step1-freeze", pid=str(pid),
                machine=kernel.machine, dest=dest, saved=record.saved_status,
            )

        # -- Step 2: ask the destination kernel to move the process ----
        self._send_admin(
            entry, dest, OP_MIGRATE_REQUEST, {"pid": pid, "sizes": sizes},
        )
        if kernel._trace_wants("migrate"):
            kernel.tracer.record(
                "migrate", "step2-request", pid=str(pid), dest=dest
            )
        return True

    def _send_admin(
        self,
        entry: _SourceMigration | _DestMigration | None,
        dest: MachineId,
        op: str,
        payload: Any,
    ) -> None:
        size = ADMIN_PAYLOAD_BYTES[op]
        if isinstance(entry, _SourceMigration):
            entry.record.note_admin(op, size)
        self.kernel.send_control(dest, op, payload, size, category="admin")

    def _note_admin_received(self, pid: ProcessId, message: Message) -> None:
        entry = self._outgoing.get(pid)
        if entry is not None:
            entry.record.note_admin(message.op, message.payload_bytes)

    def _on_accept(self, message: Message) -> None:
        payload = message.payload
        pid: ProcessId = payload["pid"]
        self._note_admin_received(pid, message)
        entry = self._outgoing.get(pid)
        if entry is None:
            return
        if payload["ok"]:
            entry.record.allocated_at = payload["at"]
            entry.record.accepted_at = self.kernel.loop.now
            if self.kernel._trace_wants("migrate"):
                self.kernel.tracer.record("migrate", "accepted", pid=str(pid))
            return
        if payload["dest"] != entry.dest:
            return  # a stale refusal of a move already given up
        # §3.2: "If the destination machine refuses, the process cannot
        # be migrated."  Restore it and report failure.
        reason = payload.get("reason", "refused")
        if self.kernel._trace_wants("migrate"):
            self.kernel.tracer.record(
                "migrate", "refused", pid=str(pid), reason=reason,
            )
        self.abort(pid, reason)

    def abort(self, pid: ProcessId, reason: str) -> None:
        """Give up the outbound migration of *pid*: restore the process
        here and report failure with *reason*."""
        entry = self._outgoing[pid]
        entry.record.success = False
        entry.record.refusal_reason = reason
        entry.record.completed_at = self.kernel.loop.now
        state = self.kernel.processes.get(pid)
        if state is not None:
            self.restore_aborted_migration(state)
        self._finish_source(entry, success=False)

    def _on_segment_request(self, message: Message) -> None:
        """Steps 4/5, source half: stream one segment's bytes."""
        payload = message.payload
        pid: ProcessId = payload["pid"]
        segment: str = payload["segment"]
        self._note_admin_received(pid, message)
        entry = self._outgoing.get(pid)
        state = self.kernel.processes.get(pid)
        if entry is None or state is None:
            return
        record = entry.record
        nbytes = getattr(state, _SEGMENT_BYTES[segment])
        chunk = MAX_DATA_PACKET
        count = max(1, math.ceil(nbytes / chunk))
        record.segment_bytes[segment] = nbytes
        record.datamove_chunks += count
        record.segment_chunks += (count,)
        record.requested_at += (payload["at"],)
        record.streamed_at += (self.kernel.loop.now,)
        if self.kernel._trace_wants("migrate"):
            self.kernel.tracer.record(
                "migrate", "segment-stream", pid=str(pid), segment=segment,
                bytes=nbytes, chunks=count,
            )
        sent = 0
        for i in range(count):
            size = min(chunk, nbytes - sent)
            sent += size
            chunk_payload: dict[str, Any] = {
                "pid": pid,
                "segment": segment,
                "nbytes": size,
                "final": i == count - 1,
            }
            # The simulation ships the actual state object with the last
            # chunk of the last segment; its bytes were fully accounted by
            # the three data moves.
            if segment == "program" and i == count - 1:
                chunk_payload["state"] = state
            self.kernel.send_control(
                entry.dest, OP_MIGRATE_DATA, chunk_payload, size,
                category="datamove",
            )

    def _on_transfer_complete(self, message: Message) -> None:
        """Steps 6 and 7: forward pending messages, then clean up and
        leave a forwarding address — atomically."""
        payload = message.payload
        pid: ProcessId = payload["pid"]
        self._note_admin_received(pid, message)
        entry = self._outgoing.get(pid)
        state = self.kernel.processes.get(pid)
        if entry is None or state is None:
            return
        kernel = self.kernel
        record = entry.record
        record.transferred_at = payload["at"]
        record.cleaned_up_at = kernel.loop.now

        # -- Step 6: forward pending messages ---------------------------
        pending = list(state.message_queue)
        state.message_queue.clear()
        for queued in pending:
            queued.redirect(entry.dest)
            kernel.route_message(queued)
        record.pending_forwarded = len(pending)
        if kernel._trace_wants("migrate"):
            kernel.tracer.record(
                "migrate", "step6-forward-pending", pid=str(pid),
                count=len(pending),
            )
        self._send_admin(
            entry, entry.dest, OP_PENDING_FORWARDED,
            {"pid": pid, "count": len(pending)},
        )

        # -- Step 7: clean up and leave a forwarding address ------------
        kernel.scheduler.remove(pid)
        kernel._cancel_timer(pid)
        kernel.memory.detach(pid)
        del kernel.processes[pid]
        record.forwarding = kernel.config.leave_forwarding_address
        if record.forwarding:
            kernel.forwarding.install(pid, entry.dest, kernel.loop.now)
        if kernel._trace_wants("migrate"):
            kernel.tracer.record(
                "migrate", "step7-cleanup", pid=str(pid),
                forwarding=record.forwarding,
            )
        self._send_admin(
            entry, entry.dest, OP_CLEANUP_COMPLETE, {"pid": pid},
        )

    def _on_restart_ack(self, message: Message) -> None:
        payload = message.payload
        pid: ProcessId = payload["pid"]
        self._note_admin_received(pid, message)
        entry = self._outgoing.get(pid)
        if entry is None:
            return
        entry.record.success = True
        entry.record.restarted_at = payload["restarted_at"]
        entry.record.restart_status = payload["status"]
        entry.record.completed_at = self.kernel.loop.now
        if self.kernel._trace_wants("migrate"):
            self.kernel.tracer.record(
                "migrate", "done", pid=str(pid),
                admin=entry.record.admin_message_count,
                downtime=entry.record.downtime,
            )
        self._finish_source(entry, success=True)

    def _finish_source(self, entry: _SourceMigration, success: bool) -> None:
        self._outgoing.pop(entry.pid, None)
        self.completed.append(entry.record)
        self._publish_record(entry.record, success)
        for callback in entry.callbacks:
            callback(success, entry.record)

    def _publish_record(
        self, record: MigrationCostRecord, success: bool
    ) -> None:
        """Push this migration's §6 cost figures into the registry."""
        metrics = self.kernel.metrics
        machine = self.kernel.machine
        outcome = "migration.completed" if success else "migration.refused"
        metrics.counter(outcome, machine=machine).inc()
        metrics.counter("migration.admin_messages", machine=machine).inc(
            record.admin_message_count
        )
        metrics.counter("migration.admin_bytes", machine=machine).inc(
            record.admin_bytes
        )
        if not success:
            return
        metrics.counter("migration.state_bytes", machine=machine).inc(
            record.state_transfer_bytes
        )
        metrics.counter("migration.pending_forwarded", machine=machine).inc(
            record.pending_forwarded
        )
        if record.downtime is not None:
            metrics.counter(
                "migration.downtime_us_total", machine=machine
            ).inc(record.downtime)
            metrics.histogram("migration.downtime_us").observe(
                record.downtime
            )
        if record.duration is not None:
            metrics.histogram("migration.duration_us").observe(
                record.duration
            )
        metrics.histogram(
            "migration.admin_bytes_per_message",
            buckets=(6, 8, 10, 12, 16),
        ).observe(record.admin_bytes / max(1, record.admin_message_count))

    # ==================================================================
    # Destination side
    # ==================================================================

    def _on_request(self, message: Message) -> None:
        """Steps 2/3, destination half: accept or refuse, then allocate."""
        payload = message.payload
        pid: ProcessId = payload["pid"]
        sizes: dict[str, int] = payload["sizes"]
        kernel = self.kernel
        source = message.sender.last_known_machine
        total = sum(sizes.values())

        predicate = kernel.accept_migration
        addressed = message.dest.last_known_machine
        if addressed != kernel.machine:
            # Addressed to a crashed machine this kernel executes for:
            # its state is gone, so the move cannot land there.  The
            # reply names that machine, so a source that already gave
            # the move up at the crash ignores it, even once it has
            # started moving the process somewhere else.
            refusal = ("destination crashed", "refuse-crashed")
        elif kernel.draining:
            # Maintenance mode (evacuation): the machine is being emptied
            # and must not accept new residents.
            refusal = ("draining", "refuse-draining")
        elif predicate is not None and not predicate(pid, total):
            refusal = ("destination policy", "refuse-policy")
        elif not kernel.memory.reserve(pid, total):
            refusal = ("no memory", "refuse-memory")
        else:
            refusal = None
        if refusal is not None:
            reason, event = refusal
            self._send_admin(
                None, source, OP_MIGRATE_ACCEPT,
                {"pid": pid, "ok": False, "reason": reason,
                 "dest": addressed},
            )
            if kernel._trace_wants("migrate"):
                kernel.tracer.record("migrate", event, pid=str(pid))
            return

        # -- Step 3: allocate a process state with the same identifier --
        self._incoming[pid] = _DestMigration(pid, source, sizes)
        if kernel._trace_wants("migrate"):
            kernel.tracer.record(
                "migrate", "step3-allocate", pid=str(pid), bytes=total,
            )
        self._send_admin(
            None, source, OP_MIGRATE_ACCEPT,
            {"pid": pid, "ok": True, "at": kernel.loop.now},
        )
        # -- Step 4 begins: pull the first segment ----------------------
        self._request_segment(self._incoming[pid])

    def _request_segment(self, entry: _DestMigration) -> None:
        segment = SEGMENTS[entry.segment_index]
        entry.received = 0
        step = "step4-state" if segment != "program" else "step5-program"
        if self.kernel._trace_wants("migrate"):
            self.kernel.tracer.record(
                "migrate", step, pid=str(entry.pid), segment=segment,
            )
        self._send_admin(
            None, entry.source, OP_SEG_REQUEST,
            {
                "pid": entry.pid,
                "segment": segment,
                "length": entry.sizes[segment],
                "at": self.kernel.loop.now,
            },
        )

    def _on_data_chunk(self, message: Message) -> None:
        payload = message.payload
        pid: ProcessId = payload["pid"]
        entry = self._incoming.get(pid)
        if entry is None:
            return
        entry.received += payload["nbytes"]
        if "state" in payload:
            entry.state = payload["state"]
        segment = SEGMENTS[entry.segment_index]
        if entry.received < entry.sizes[segment]:
            return
        entry.segment_index += 1
        if entry.segment_index < len(SEGMENTS):
            self._request_segment(entry)
            return
        # All three data moves done: install the state (still frozen) and
        # return control to the source (end of step 5).
        assert entry.state is not None, "state must ride the final chunk"
        self.kernel.memory.commit_reservation(pid, entry.state.memory)
        self.kernel.adopt(entry.state)
        if self.kernel._trace_wants("migrate"):
            self.kernel.tracer.record(
                "migrate", "transfer-complete", pid=str(pid),
                bytes=sum(entry.sizes.values()), machine=self.kernel.machine,
            )
        self._send_admin(
            None, entry.source, OP_TRANSFER_COMPLETE,
            {"pid": pid, "at": self.kernel.loop.now},
        )

    def _on_pending_forwarded(self, message: Message) -> None:
        """Step 6's notice: the forwarded messages follow on their own."""

    def _on_cleanup_complete(self, message: Message) -> None:
        """Step 8: restart the process and acknowledge."""
        payload = message.payload
        pid: ProcessId = payload["pid"]
        entry = self._incoming.pop(pid, None)
        if entry is None:
            return
        state = self.kernel.processes.get(pid)
        if state is None:  # pragma: no cover - defensive
            return
        self.restart_migrated_process(state)
        status = state.status.value
        if self.kernel._trace_wants("migrate"):
            self.kernel.tracer.record(
                "migrate", "step8-restart", pid=str(pid), status=status,
            )
        self._send_admin(
            None, entry.source, OP_RESTART_ACK,
            {"pid": pid, "restarted_at": self.kernel.loop.now,
             "status": status},
        )
        if self.kernel.config.notify_process_manager:
            self.kernel._notify_process_manager(
                "migrated",
                {"pid": pid, "from": entry.source, "to": self.kernel.machine},
                links=(self.kernel.control_link_snapshot(pid),),
            )

    def restart_migrated_process(self, state: ProcessState) -> None:
        """Migration step 8: restart the process in its recorded state."""
        state.complete_migration()
        self.unfreeze(state)

    def restore_aborted_migration(self, state: ProcessState) -> None:
        """Put a process back in service after a destination refusal."""
        state.abort_migration()
        self.unfreeze(state)

    def unfreeze(self, state: ProcessState) -> None:
        """Rearm a thawed process here, then execute the DELIVERTOKERNEL
        messages held in transit, now that "normal message receiving can
        continue" (paper §2.2)."""
        held = [m for m in state.message_queue if m.deliver_to_kernel]
        if held:
            remaining = [
                m for m in state.message_queue if not m.deliver_to_kernel
            ]
            state.message_queue.clear()
            state.message_queue.extend(remaining)
        self.kernel._rearm_after_unfreeze(state)
        for message in held:
            self.kernel._handle_process_control(state, message)

    # ==================================================================
    # Introspection
    # ==================================================================

    @property
    def in_progress(self) -> int:
        """Outbound plus inbound migrations currently underway."""
        return len(self._outgoing) + len(self._incoming)

    def outgoing_pids(self) -> list[ProcessId]:
        """Pids currently migrating away from this machine."""
        return sorted(self._outgoing, key=str)

    def records(self) -> list[MigrationCostRecord]:
        """Every outbound migration's record: finished, then in flight."""
        return self.completed + [e.record for e in self._outgoing.values()]
