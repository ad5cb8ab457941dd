"""The process-side view of the kernel.

A :class:`ProcessContext` is handed to every program when it is spawned.
It provides read-only information (pid, current machine, simulated time),
the bootstrap links minted at creation (switchboard, process manager, ...),
and sugar constructors for the syscall dataclasses so programs read
naturally::

    def worker(ctx):
        yield ctx.compute(5_000)
        msg = yield ctx.receive()
        yield ctx.send(msg.delivered_link_ids[0], op="done")

Migration rebinds the context to the destination kernel, so ``ctx.machine``
always reports where the process actually is — programs can watch
themselves move.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.kernel.ids import ProcessAddress, ProcessId
from repro.kernel.links import DataArea, LinkAttribute
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
    Yield,
)
from repro.net.topology import MachineId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.kernel import Kernel


class ProcessContext:
    """Everything a program can see and do."""

    def __init__(self, kernel: "Kernel", pid: ProcessId) -> None:
        self._kernel = kernel
        self.pid = pid
        #: this process's address on its current machine, minted once
        #: per residence: the sender of every message it sends.  Links
        #: it creates to itself mint their own address: a request whose
        #: reply link shared this object would pickle (as a cross-shard
        #: record) to different bytes.
        self.address = ProcessAddress(pid, kernel.machine)
        #: well-known service name -> link id, minted at spawn
        self.bootstrap: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def machine(self) -> MachineId:
        """The machine this process is currently executing on."""
        return self._kernel.machine

    @property
    def now(self) -> int:
        """Current simulated time in microseconds."""
        return self._kernel.loop.now

    def rebind(self, kernel: "Kernel") -> None:
        """Point this context at the kernel that now hosts the process
        (called when a migrated or recovered process is installed)."""
        self._kernel = kernel
        self.address = ProcessAddress(self.pid, kernel.machine)

    # ------------------------------------------------------------------
    # Syscall sugar — each returns a syscall object to be yielded
    # ------------------------------------------------------------------

    def send(
        self,
        link_id: int,
        op: str = "msg",
        payload: Any = None,
        payload_bytes: int = 32,
        links: tuple[int, ...] = (),
        deliver_to_kernel: bool = False,
    ) -> Send:
        """Send a message over *link_id*."""
        return Send(
            link_id, op, payload, payload_bytes, links, deliver_to_kernel
        )

    def receive(self, timeout: int | None = None) -> Receive:
        """Wait for the next incoming message."""
        return Receive(timeout)

    def create_link(
        self,
        attributes: LinkAttribute = LinkAttribute.NONE,
        data_area: DataArea | None = None,
    ) -> CreateLink:
        """Create a link pointing at me."""
        return CreateLink(attributes, data_area)

    def dup_link(self, link_id: int) -> DupLink:
        """Duplicate one of my links."""
        return DupLink(link_id)

    def destroy_link(self, link_id: int) -> DestroyLink:
        """Destroy one of my links."""
        return DestroyLink(link_id)

    def compute(self, duration: int) -> Compute:
        """Burn CPU for *duration* microseconds (contended)."""
        return Compute(duration)

    def sleep(self, duration: int) -> Sleep:
        """Block off-CPU for *duration* microseconds."""
        return Sleep(duration)

    def move_data(
        self,
        link_id: int,
        direction: str,
        offset: int,
        length: int,
    ) -> MoveData:
        """Bulk transfer through a data-area link."""
        return MoveData(link_id, direction, offset, length)

    def request_migration(self, destination: MachineId) -> RequestMigration:
        """Ask the system to move me to *destination*."""
        return RequestMigration(destination)

    def exit(self, code: int = 0) -> Exit:
        """Terminate."""
        return Exit(code)

    def get_info(self) -> GetInfo:
        """Fetch pid / machine / time / queue length."""
        return GetInfo()

    def yield_cpu(self) -> Yield:
        """Let someone else run."""
        return Yield()

    def __repr__(self) -> str:
        return f"ProcessContext({self.pid} on machine {self.machine})"
