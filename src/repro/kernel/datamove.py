"""The move-data facility (paper §2.2).

"In addition to providing a message path, a link may also provide access
to a memory area in another process. ... This is the mechanism for large
data transfers, such as file accesses or data transfer in process
migration.  The kernel implements the data move operation by sending a
sequence of messages containing the data to be transferred.  These
messages are sent over a DELIVERTOKERNEL link to the kernel of [the]
process containing the data area."

Everything here rides DELIVERTOKERNEL messages addressed to *processes*,
so transfers transparently survive migration of either endpoint: requests
chase the data-area owner through forwarding addresses, chunks and
completions chase the holder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import LinkAccessError, TransferError
from repro.kernel.ids import ProcessAddress, ProcessId
from repro.kernel.links import Link, LinkAttribute
from repro.kernel.messages import Message
from repro.kernel.ops import (
    CONTROL_PAYLOAD_BYTES,
    OP_DMA_ERROR,
    OP_DMA_READ_CHUNK,
    OP_DMA_READ_REQ,
    OP_DMA_WRITE_CHUNK,
    OP_TRANSFER_DONE,
)
from repro.kernel.process_state import ProcessState, ProcessStatus
from repro.kernel.syscalls import MoveData
from repro.net.topology import MachineId

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel

#: Bytes copied per microsecond for same-machine transfers (a memcpy).
LOCAL_COPY_BYTES_PER_USEC = 200
#: Payload bytes of one move-data chunk message.
MAX_DATA_PACKET = 1_024

TransferId = tuple[MachineId, int]


@dataclass
class _IncomingWrite:
    """Owner-side bookkeeping for a write transfer in progress."""

    transfer_id: TransferId
    holder: ProcessAddress
    total: int
    received: int = 0


class TransferManager:
    """Per-kernel engine for blocking MoveData transfers."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self._next_id = 0
        self._incoming_writes: dict[TransferId, _IncomingWrite] = {}
        self.completed_transfers = 0
        self.failed_transfers = 0
        kernel.register_process_control(OP_DMA_READ_REQ, self._on_read_request)
        kernel.register_process_control(OP_DMA_READ_CHUNK, self._on_read_chunk)
        kernel.register_process_control(
            OP_DMA_WRITE_CHUNK, self._on_write_chunk
        )
        kernel.register_process_control(OP_TRANSFER_DONE, self._on_done)
        kernel.register_process_control(OP_DMA_ERROR, self._on_error)

    # ------------------------------------------------------------------
    # Holder side: the MoveData syscall
    # ------------------------------------------------------------------

    def start_move(self, state: ProcessState, call: MoveData) -> None:
        """Begin servicing a MoveData syscall for the local process."""
        link = state.link_table.get(call.link_id)
        self._check_access(link, call)
        area = link.data_area
        assert area is not None
        absolute = area.offset + call.offset

        self._next_id += 1
        transfer_id: TransferId = (self.kernel.machine, self._next_id)
        state.pending_syscall = call
        state.status = ProcessStatus.WAITING_TRANSFER
        state.transfer_id = transfer_id
        state.transfer_total = call.length
        state.transfer_received = 0
        self.kernel.tracer.record(
            "kernel", "dma-start", pid=str(state.pid),
            direction=call.direction, length=call.length,
            owner=str(link.target_pid),
        )

        owner_state = self.kernel.processes.get(link.target_pid)
        if (
            owner_state is not None
            and link.address.last_known_machine == self.kernel.machine
        ):
            self._local_copy(state, owner_state, call, transfer_id, absolute)
            return

        holder = ProcessAddress(state.pid, self.kernel.machine)
        if call.direction == "read":
            self.kernel.send_to_process(
                link.address, OP_DMA_READ_REQ,
                {
                    "transfer_id": transfer_id,
                    "offset": absolute,
                    "length": call.length,
                    "holder": holder,
                },
                payload_bytes=CONTROL_PAYLOAD_BYTES[OP_DMA_READ_REQ],
                deliver_to_kernel=True,
                category="dma",
            )
        else:
            self._stream_write(state, link, transfer_id, absolute, call.length)

    def _check_access(self, link: Link, call: MoveData) -> None:
        if call.direction not in ("read", "write"):
            raise TransferError(f"bad MoveData direction {call.direction!r}")
        if link.data_area is None:
            raise LinkAccessError("link grants no data area")
        needed = (
            LinkAttribute.DATA_READ
            if call.direction == "read"
            else LinkAttribute.DATA_WRITE
        )
        if not link.attributes & needed:
            raise LinkAccessError(
                f"link lacks {needed.name} for a {call.direction}"
            )
        absolute = link.data_area.offset + call.offset
        if not link.data_area.contains(absolute, call.length):
            raise LinkAccessError(
                f"window [{call.offset}, +{call.length}) exceeds the "
                f"granted data area {link.data_area}"
            )

    def _local_copy(
        self,
        holder: ProcessState,
        owner: ProcessState,
        call: MoveData,
        transfer_id: TransferId,
        absolute: int,
    ) -> None:
        """Same-machine transfer: a bounded-rate memory copy, no network."""
        if not owner.memory.address_space_contains(absolute, call.length):
            self._fail_holder(holder, "data area outside owner memory")
            return
        delay = call.length // LOCAL_COPY_BYTES_PER_USEC + 1
        self.kernel.loop.call_after(
            delay, self._complete_holder, holder.pid, transfer_id, call.length
        )

    def _stream_write(
        self,
        holder: ProcessState,
        link: Link,
        transfer_id: TransferId,
        absolute: int,
        length: int,
    ) -> None:
        holder_addr = ProcessAddress(holder.pid, self.kernel.machine)
        chunk = MAX_DATA_PACKET
        count = max(1, math.ceil(length / chunk))
        sent = 0
        for i in range(count):
            nbytes = min(chunk, length - sent)
            sent += nbytes
            self.kernel.send_to_process(
                link.address, OP_DMA_WRITE_CHUNK,
                {
                    "transfer_id": transfer_id,
                    "offset": absolute,
                    "total": length,
                    "nbytes": nbytes,
                    "holder": holder_addr,
                },
                payload_bytes=nbytes,
                deliver_to_kernel=True,
                category="datamove",
            )

    # ------------------------------------------------------------------
    # Owner side
    # ------------------------------------------------------------------

    def _on_read_request(self, owner: ProcessState, message: Message) -> None:
        payload = message.payload
        transfer_id: TransferId = payload["transfer_id"]
        holder: ProcessAddress = payload["holder"]
        offset, length = payload["offset"], payload["length"]
        if not owner.memory.address_space_contains(offset, length):
            self._send_error(
                holder, transfer_id, "window outside owner memory"
            )
            return
        chunk = MAX_DATA_PACKET
        count = max(1, math.ceil(length / chunk))
        sent = 0
        for _ in range(count):
            nbytes = min(chunk, length - sent)
            sent += nbytes
            self.kernel.send_to_process(
                holder, OP_DMA_READ_CHUNK,
                {
                    "transfer_id": transfer_id,
                    "nbytes": nbytes,
                    "total": length,
                },
                payload_bytes=nbytes,
                deliver_to_kernel=True,
                category="datamove",
            )

    def _on_write_chunk(self, owner: ProcessState, message: Message) -> None:
        payload = message.payload
        transfer_id: TransferId = payload["transfer_id"]
        entry = self._incoming_writes.get(transfer_id)
        if entry is None:
            if not owner.memory.address_space_contains(
                payload["offset"], payload["total"]
            ):
                self._send_error(
                    payload["holder"], transfer_id,
                    "window outside owner memory",
                )
                return
            entry = _IncomingWrite(
                transfer_id, payload["holder"], payload["total"]
            )
            self._incoming_writes[transfer_id] = entry
        entry.received += payload["nbytes"]
        if entry.received >= entry.total:
            del self._incoming_writes[transfer_id]
            self.kernel.send_to_process(
                entry.holder, OP_TRANSFER_DONE,
                {"transfer_id": transfer_id, "bytes": entry.total},
                payload_bytes=CONTROL_PAYLOAD_BYTES[OP_TRANSFER_DONE],
                deliver_to_kernel=True,
                category="dma",
            )

    # ------------------------------------------------------------------
    # Holder-side completion
    # ------------------------------------------------------------------

    def _on_read_chunk(self, holder: ProcessState, message: Message) -> None:
        payload = message.payload
        if holder.transfer_id != payload["transfer_id"]:
            self.kernel.tracer.record(
                "kernel", "dma-stale-chunk", pid=str(holder.pid),
            )
            return
        holder.transfer_received += payload["nbytes"]
        if holder.transfer_received >= holder.transfer_total:
            self._finish(holder, holder.transfer_total)

    def _on_done(self, holder: ProcessState, message: Message) -> None:
        payload = message.payload
        if holder.transfer_id != payload["transfer_id"]:
            return
        self._finish(holder, payload["bytes"])

    def _on_error(self, holder: ProcessState, message: Message) -> None:
        payload = message.payload
        if holder.transfer_id != payload.get("transfer_id"):
            return
        self._fail_holder(holder, payload.get("reason", "transfer failed"))

    def _complete_holder(
        self, pid: ProcessId, transfer_id: TransferId, nbytes: int
    ) -> None:
        """Local-copy completion; chases the holder if it migrated away."""
        holder = self.kernel.processes.get(pid)
        if (
            holder is not None
            and holder.status is not ProcessStatus.IN_MIGRATION
        ):
            if holder.transfer_id == transfer_id:
                self._finish(holder, nbytes)
            return
        self.kernel.send_to_process(
            ProcessAddress(pid, self.kernel.machine), OP_TRANSFER_DONE,
            {"transfer_id": transfer_id, "bytes": nbytes},
            payload_bytes=CONTROL_PAYLOAD_BYTES[OP_TRANSFER_DONE],
            deliver_to_kernel=True,
            category="dma",
        )

    def _finish(self, holder: ProcessState, nbytes: int) -> None:
        holder.transfer_id = None
        holder.transfer_total = 0
        holder.transfer_received = 0
        holder.pending_syscall = None
        holder.resume_value = nbytes
        self.completed_transfers += 1
        self.kernel.tracer.record(
            "kernel", "dma-done", pid=str(holder.pid), bytes=nbytes,
        )
        holder.status = ProcessStatus.READY
        self.kernel.scheduler.enqueue(holder.pid)
        self.kernel._maybe_dispatch()

    def _fail_holder(self, holder: ProcessState, reason: str) -> None:
        holder.transfer_id = None
        holder.pending_syscall = None
        holder.resume_error = TransferError(reason)
        self.failed_transfers += 1
        self.kernel.tracer.record(
            "kernel", "dma-failed", pid=str(holder.pid), reason=reason,
        )
        holder.status = ProcessStatus.READY
        self.kernel.scheduler.enqueue(holder.pid)
        self.kernel._maybe_dispatch()

    def _send_error(
        self, holder: ProcessAddress, transfer_id: TransferId, reason: str
    ) -> None:
        self.kernel.send_to_process(
            holder, OP_DMA_ERROR,
            {"transfer_id": transfer_id, "reason": reason},
            payload_bytes=CONTROL_PAYLOAD_BYTES[OP_DMA_ERROR],
            deliver_to_kernel=True,
            category="dma",
        )

    # ------------------------------------------------------------------
    # Undeliverable data moves: fail the holder instead of hanging it
    # ------------------------------------------------------------------

    def claim_undeliverable(self, message: Message) -> bool:
        """Answer a data move to a missing owner with an error to its
        holder; True claims the message from the §4 undeliverable rule."""
        if message.op not in (OP_DMA_READ_REQ, OP_DMA_WRITE_CHUNK):
            return False
        payload = message.payload or {}
        holder = payload.get("holder")
        if holder is None:
            return False
        self._send_error(
            holder, payload.get("transfer_id"),
            f"data-area owner {message.dest.pid} does not exist",
        )
        return True
