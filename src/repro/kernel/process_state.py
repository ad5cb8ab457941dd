"""The complete state of a DEMOS/MP process (paper Figure 2-2).

"A process consists of the program being executed, along with the
program's data, stack, and state.  The state consists of the execution
status, dispatch information, incoming message queue, memory tables, and
the process's link table."  Because all of that lives in this one object —
no process state is hidden in other kernel modules — migrating a process
is moving this object (step 4/5) plus its memory bytes.

The paper's §6 byte counts are modelled exactly: the non-swappable
(resident) state is ~250 bytes; the swappable state is ~600 bytes,
depending on the size of the link table.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Generator

from repro.errors import ProcessStateError
from repro.kernel.ids import ProcessId
from repro.kernel.links import LinkTable
from repro.kernel.memory import MemoryImage
from repro.kernel.messages import Message
from repro.net.topology import MachineId

#: Paper §6: "The non-swappable state uses about 250 bytes".
RESIDENT_STATE_BYTES = 250
#: Base of the swappable state; with a typical ten-link table this reaches
#: the paper's "about 600 bytes (depending on the size of the link table)".
SWAPPABLE_STATE_BASE_BYTES = 440


class ProcessStatus(Enum):
    """Execution status recorded in the process state."""

    READY = "ready"  #: runnable, on (or entitled to) the run queue
    RUNNING = "running"  #: currently holding the CPU
    WAITING_MESSAGE = "waiting"  #: blocked in Receive on an empty queue
    SLEEPING = "sleeping"  #: blocked in Sleep until a deadline
    WAITING_TRANSFER = "waiting-transfer"  #: blocked in MoveData
    SUSPENDED = "suspended"  #: stopped by a control operation
    IN_MIGRATION = "in-migration"  #: being moved; messages are held
    TERMINATED = "terminated"  #: exited; state awaiting reclamation


#: Statuses from which a process may be put on the run queue.
RUNNABLE = frozenset({ProcessStatus.READY, ProcessStatus.RUNNING})

Program = Generator[Any, Any, None]


@dataclass
class ProcessAccounting:
    """Resource usage counters (the paper's accounting/monitoring data,
    which migration decision rules feed on)."""

    cpu_time: int = 0
    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    migrations: int = 0
    forwarded_to_me: int = 0


@dataclass
class ProcessState:
    """Everything the kernel knows about one process."""

    pid: ProcessId
    name: str = ""
    status: ProcessStatus = ProcessStatus.READY
    #: status to restore on the destination machine; set while IN_MIGRATION
    saved_status: ProcessStatus | None = None
    program: Program | None = None
    #: value to send into the program generator at next resume
    resume_value: Any = None
    #: exception to throw into the program generator at next resume
    resume_error: BaseException | None = None
    #: the syscall currently being serviced (e.g. an unfinished Compute)
    pending_syscall: Any = None
    message_queue: deque[Message] = field(default_factory=deque)
    link_table: LinkTable = field(default_factory=LinkTable)
    memory: MemoryImage = field(default_factory=MemoryImage.sized)
    accounting: ProcessAccounting = field(default_factory=ProcessAccounting)
    #: machines this process has lived on, oldest first (for forwarding-
    #: address garbage collection backwards along the migration path)
    residence_history: list[MachineId] = field(default_factory=list)
    exit_code: int | None = None
    #: microseconds of an unfinished Compute syscall still owed the CPU
    compute_remaining: int = 0
    #: absolute wake time for a Receive timeout or Sleep (machine-local)
    wake_deadline: int | None = None
    #: remaining wait converted from ``wake_deadline`` while migrating
    wake_remaining: int | None = None
    #: bookkeeping for a blocking MoveData transfer (travels with the
    #: process so chunks arriving after a migration still complete it)
    transfer_id: tuple[MachineId, int] | None = None
    transfer_total: int = 0
    transfer_received: int = 0
    #: status to restore when a SUSPENDED process is started again
    suspended_from: "ProcessStatus | None" = None
    #: the ProcessContext bound to this process (rebound on migration)
    context: Any = None

    # ------------------------------------------------------------------
    # Status transitions
    # ------------------------------------------------------------------

    def begin_migration(self) -> None:
        """Step 1: mark "in migration", remembering the recorded state.

        "No change is made to the recorded state of the process (whether
        it is suspended, running, waiting for message, etc.), since the
        process will (at least initially) be in the same state when it
        reaches its destination processor."
        """
        if self.status is ProcessStatus.IN_MIGRATION:
            raise ProcessStateError(f"{self.pid} is already in migration")
        if self.status is ProcessStatus.TERMINATED:
            raise ProcessStateError(f"{self.pid} has terminated")
        # A process caught on the CPU restarts as READY (it was preempted
        # by the migration itself); everything else restarts as-is.
        recorded = self.status
        if recorded is ProcessStatus.RUNNING:
            recorded = ProcessStatus.READY
        self.saved_status = recorded
        self.status = ProcessStatus.IN_MIGRATION

    def abort_migration(self) -> None:
        """Undo step 1 after a destination refusal."""
        if self.status is not ProcessStatus.IN_MIGRATION:
            raise ProcessStateError(f"{self.pid} is not in migration")
        assert self.saved_status is not None
        self.status = self.saved_status
        self.saved_status = None

    def complete_migration(self) -> None:
        """Step 8: restart in whatever state it was in before being moved."""
        if self.status is not ProcessStatus.IN_MIGRATION:
            raise ProcessStateError(f"{self.pid} is not in migration")
        assert self.saved_status is not None
        self.status = self.saved_status
        self.saved_status = None
        self.accounting.migrations += 1

    # ------------------------------------------------------------------
    # Size accounting (paper §6)
    # ------------------------------------------------------------------

    @property
    def resident_state_bytes(self) -> int:
        """Bytes of non-swappable state moved in migration (≈250)."""
        return RESIDENT_STATE_BYTES

    @property
    def swappable_state_bytes(self) -> int:
        """Bytes of swappable state moved in migration (≈600, link-table
        dependent)."""
        return SWAPPABLE_STATE_BASE_BYTES + self.link_table.swappable_bytes()

    @property
    def program_bytes(self) -> int:
        """Bytes of program memory (code + data + stack)."""
        return self.memory.total_bytes

    @property
    def queued_message_count(self) -> int:
        """Messages waiting in the incoming queue."""
        return len(self.message_queue)

    def __repr__(self) -> str:
        return (
            f"ProcessState({self.pid} '{self.name}' {self.status.value}"
            f" q={len(self.message_queue)} links={len(self.link_table)})"
        )
