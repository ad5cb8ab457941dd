"""The DEMOS/MP kernel: processes, links, messages, and migration.

One :class:`~repro.kernel.kernel.Kernel` per machine implements message
delivery (with forwarding addresses and link updates), the syscall engine
that runs generator-based programs, the move-data facility, and the
eight-step migration mechanism.
"""

from repro.kernel.context import ProcessContext
from repro.kernel.forwarding import (
    FORWARDING_ADDRESS_BYTES,
    ForwardingAddress,
    ForwardingTable,
    UndeliverablePolicy,
)
from repro.kernel.ids import (
    KERNEL_LOCAL_ID,
    PROCESS_ADDRESS_BYTES,
    PROCESS_ID_BYTES,
    ProcessAddress,
    ProcessId,
    kernel_address,
    kernel_pid,
)
from repro.kernel.kernel import Kernel, KernelStats
from repro.kernel.links import (
    DataArea,
    Link,
    LinkAttribute,
    LinkSnapshot,
    LinkTable,
)
from repro.kernel.linkupdate import LinkUpdate, OP_LINK_UPDATE
from repro.kernel.memory import (
    MemoryImage,
    MemoryManager,
    MemorySegment,
    SegmentKind,
)
from repro.kernel.messages import Message, MessageKind
from repro.kernel.migration import MigrationEngine
from repro.kernel.process_state import (
    ProcessAccounting,
    ProcessState,
    ProcessStatus,
    RESIDENT_STATE_BYTES,
    SWAPPABLE_STATE_BASE_BYTES,
)
from repro.kernel.scheduler import RoundRobinScheduler
from repro.kernel.syscalls import (
    Compute,
    CreateLink,
    DestroyLink,
    DupLink,
    Exit,
    GetInfo,
    MoveData,
    Receive,
    RequestMigration,
    Send,
    Sleep,
    Syscall,
    Yield,
)

__all__ = [
    "Compute",
    "CreateLink",
    "DataArea",
    "DestroyLink",
    "DupLink",
    "Exit",
    "FORWARDING_ADDRESS_BYTES",
    "ForwardingAddress",
    "ForwardingTable",
    "GetInfo",
    "KERNEL_LOCAL_ID",
    "Kernel",
    "KernelStats",
    "Link",
    "LinkAttribute",
    "LinkSnapshot",
    "LinkTable",
    "LinkUpdate",
    "MemoryImage",
    "MemoryManager",
    "MemorySegment",
    "Message",
    "MessageKind",
    "MigrationEngine",
    "MoveData",
    "OP_LINK_UPDATE",
    "PROCESS_ADDRESS_BYTES",
    "PROCESS_ID_BYTES",
    "ProcessAccounting",
    "ProcessAddress",
    "ProcessContext",
    "ProcessId",
    "ProcessState",
    "ProcessStatus",
    "RESIDENT_STATE_BYTES",
    "Receive",
    "RequestMigration",
    "RoundRobinScheduler",
    "SWAPPABLE_STATE_BASE_BYTES",
    "SegmentKind",
    "Send",
    "Sleep",
    "Syscall",
    "UndeliverablePolicy",
    "Yield",
    "kernel_address",
    "kernel_pid",
]
