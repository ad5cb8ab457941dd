"""The DEMOS/MP file system: four cooperating server processes (§2.3).

Mirroring the DEMOS file system [Powell 77], the service is split into:

- **request interpreter** (the well-known ``file_system`` front end):
  speaks the client protocol (create/open/read/write/delete/list/stat)
  and orchestrates the other three;
- **directory manager**: file names, inodes, sizes, and block allocation;
- **buffer manager**: an LRU block cache, write-through to the disk;
- **disk driver**: the block store itself, with a seek delay per access.

"The file system is the same as that implemented for the uni-processor
DEMOS, with the added freedom that the file system processes can be
located on different processors."  All four talk only via links, so any
of them — most interestingly the front end, while clients are mid-I/O —
can be migrated (the paper's own test example, reproduced as E6).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import TYPE_CHECKING, Any, Generator

from repro.kernel.context import ProcessContext
from repro.kernel.ids import ProcessAddress
from repro.kernel.messages import Message
from repro.servers.common import rpc, serve_reply

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import System

#: Default file-system block size, bytes.
BLOCK_SIZE = 512


# =====================================================================
# Disk driver
# =====================================================================

def disk_driver_program(
    ctx: ProcessContext,
    seek_time: int = 1_500,
    block_size: int = BLOCK_SIZE,
) -> Generator[Any, Any, None]:
    """A serial block device: every access pays one seek."""
    storage: dict[int, bytes] = {}
    reads = writes = 0

    while True:
        msg = yield ctx.receive()
        payload = msg.payload or {}
        req_id = payload.get("req_id")

        if msg.op == "disk-read":
            yield ctx.sleep(seek_time)
            reads += 1
            data = storage.get(payload["block"], bytes(block_size))
            yield from serve_reply(
                ctx, msg, "disk-read-reply",
                {"ok": True, "data": data, "req_id": req_id},
                payload_bytes=8 + len(data),
            )

        elif msg.op == "disk-write":
            yield ctx.sleep(seek_time)
            writes += 1
            data: bytes = payload["data"]
            if len(data) != block_size:
                data = data[:block_size].ljust(block_size, b"\0")
            storage[payload["block"]] = data
            yield from serve_reply(
                ctx, msg, "disk-write-reply",
                {"ok": True, "req_id": req_id},
            )

        elif msg.op == "disk-stats":
            yield from serve_reply(
                ctx, msg, "disk-stats-reply",
                {"ok": True, "reads": reads, "writes": writes,
                 "blocks_used": len(storage), "req_id": req_id},
            )

        else:
            yield from serve_reply(
                ctx, msg, "error-reply",
                {"ok": False, "error": f"unknown op {msg.op!r}",
                 "req_id": req_id},
            )


# =====================================================================
# Buffer manager
# =====================================================================

def buffer_manager_program(
    ctx: ProcessContext,
    capacity: int = 64,
) -> Generator[Any, Any, None]:
    """An LRU block cache, write-through to the disk driver.

    Serial: one outstanding disk operation at a time, which keeps the
    cache trivially consistent (and models a single disk arm anyway).
    """
    cache: "OrderedDict[int, bytes]" = OrderedDict()
    backlog = Backlog()
    hits = misses = 0
    disk_link = ctx.bootstrap["disk_driver"]

    def _touch(block: int, data: bytes) -> None:
        cache[block] = data
        cache.move_to_end(block)
        while len(cache) > capacity:
            cache.popitem(last=False)

    while True:
        if backlog:
            msg = backlog.popleft()
        else:
            msg = yield ctx.receive()
        payload = msg.payload or {}
        req_id = payload.get("req_id")

        if msg.op == "bread":
            block = payload["block"]
            if block in cache:
                hits += 1
                _touch(block, cache[block])
                yield from serve_reply(
                    ctx, msg, "bread-reply",
                    {"ok": True, "data": cache[block], "req_id": req_id},
                    payload_bytes=8 + len(cache[block]),
                )
                continue
            misses += 1
            disk_reply = yield from _serial_rpc(
                ctx, backlog, disk_link, "disk-read", {"block": block},
            )
            data = disk_reply.payload["data"]
            _touch(block, data)
            yield from serve_reply(
                ctx, msg, "bread-reply",
                {"ok": True, "data": data, "req_id": req_id},
                payload_bytes=8 + len(data),
            )

        elif msg.op == "bwrite":
            block, data = payload["block"], payload["data"]
            _touch(block, data)
            yield from _serial_rpc(
                ctx, backlog, disk_link, "disk-write",
                {"block": block, "data": data},
                payload_bytes=8 + len(data),
            )
            yield from serve_reply(
                ctx, msg, "bwrite-reply", {"ok": True, "req_id": req_id},
            )

        elif msg.op == "buffer-stats":
            yield from serve_reply(
                ctx, msg, "buffer-stats-reply",
                {"ok": True, "hits": hits, "misses": misses,
                 "cached": len(cache), "req_id": req_id},
            )

        else:
            yield from serve_reply(
                ctx, msg, "error-reply",
                {"ok": False, "error": f"unknown op {msg.op!r}",
                 "req_id": req_id},
            )


# =====================================================================
# Directory manager
# =====================================================================

def directory_manager_program(
    ctx: ProcessContext,
) -> Generator[Any, Any, None]:
    """Names, inodes, file sizes, and block allocation."""
    names: dict[str, int] = {}
    files: dict[int, dict[str, Any]] = {}  # inode -> {size, blocks, name}
    next_inode = 0
    next_block = 0

    while True:
        msg = yield ctx.receive()
        payload = msg.payload or {}
        req_id = payload.get("req_id")
        name = payload.get("name", "")

        if msg.op == "dir-create":
            if name in names:
                yield from serve_reply(
                    ctx, msg, "dir-create-reply",
                    {"ok": False, "error": "exists", "req_id": req_id},
                )
                continue
            next_inode += 1
            names[name] = next_inode
            files[next_inode] = {"size": 0, "blocks": [], "name": name}
            yield from serve_reply(
                ctx, msg, "dir-create-reply",
                {"ok": True, "inode": next_inode, "req_id": req_id},
            )

        elif msg.op == "dir-lookup":
            inode = names.get(name)
            if inode is None:
                yield from serve_reply(
                    ctx, msg, "dir-lookup-reply",
                    {"ok": False, "error": "no such file", "req_id": req_id},
                )
            else:
                meta = files[inode]
                yield from serve_reply(
                    ctx, msg, "dir-lookup-reply",
                    {"ok": True, "inode": inode, "size": meta["size"],
                     "blocks": list(meta["blocks"]), "req_id": req_id},
                )

        elif msg.op == "dir-stat":
            meta = files.get(payload.get("inode"))
            if meta is None:
                yield from serve_reply(
                    ctx, msg, "dir-stat-reply",
                    {"ok": False, "error": "bad inode", "req_id": req_id},
                )
            else:
                yield from serve_reply(
                    ctx, msg, "dir-stat-reply",
                    {"ok": True, "size": meta["size"],
                     "blocks": list(meta["blocks"]),
                     "name": meta["name"], "req_id": req_id},
                )

        elif msg.op == "dir-extend":
            # Grow a file: allocate blocks to cover new_size, update size.
            meta = files.get(payload.get("inode"))
            if meta is None:
                yield from serve_reply(
                    ctx, msg, "dir-extend-reply",
                    {"ok": False, "error": "bad inode", "req_id": req_id},
                )
                continue
            new_size = payload["size"]
            block_size = payload.get("block_size", BLOCK_SIZE)
            needed = -(-new_size // block_size)  # ceil division
            while len(meta["blocks"]) < needed:
                meta["blocks"].append(next_block)
                next_block += 1
            meta["size"] = max(meta["size"], new_size)
            yield from serve_reply(
                ctx, msg, "dir-extend-reply",
                {"ok": True, "size": meta["size"],
                 "blocks": list(meta["blocks"]), "req_id": req_id},
            )

        elif msg.op == "dir-delete":
            inode = names.pop(name, None)
            if inode is not None:
                del files[inode]
            yield from serve_reply(
                ctx, msg, "dir-delete-reply",
                {"ok": inode is not None, "req_id": req_id},
            )

        elif msg.op == "dir-list":
            yield from serve_reply(
                ctx, msg, "dir-list-reply",
                {"ok": True, "names": sorted(names), "req_id": req_id},
            )

        else:
            yield from serve_reply(
                ctx, msg, "error-reply",
                {"ok": False, "error": f"unknown op {msg.op!r}",
                 "req_id": req_id},
            )


# =====================================================================
# Request interpreter (front end)
# =====================================================================

def file_server_program(
    ctx: ProcessContext,
    block_size: int = BLOCK_SIZE,
) -> Generator[Any, Any, None]:
    """The client-facing file server.

    Serial request interpreter: each client operation runs to completion
    (its sub-requests to the directory/buffer managers may interleave with
    *arriving* client traffic, which is simply backlogged).  Migrating
    this process mid-operation is the paper's showcase test: the frozen
    generator, its backlog, and its links all travel in the process state.
    """
    backlog = Backlog()
    handles: dict[int, int] = {}  # handle -> inode
    next_handle = 0
    operations = 0
    dir_link = ctx.bootstrap["directory_manager"]
    buf_link = ctx.bootstrap["buffer_manager"]

    while True:
        if backlog:
            msg = backlog.popleft()
        else:
            msg = yield ctx.receive()
        payload = msg.payload or {}
        operations += 1

        if msg.op == "fs-create":
            reply = yield from _serial_rpc(
                ctx, backlog, dir_link, "dir-create",
                {"name": payload["name"]},
            )
            yield from serve_reply(
                ctx, msg, "fs-create-reply", dict(reply.payload),
            )

        elif msg.op == "fs-open":
            reply = yield from _serial_rpc(
                ctx, backlog, dir_link, "dir-lookup",
                {"name": payload["name"]},
            )
            if not reply.payload["ok"]:
                yield from serve_reply(
                    ctx, msg, "fs-open-reply", dict(reply.payload),
                )
                continue
            next_handle += 1
            handles[next_handle] = reply.payload["inode"]
            yield from serve_reply(
                ctx, msg, "fs-open-reply",
                {"ok": True, "handle": next_handle,
                 "size": reply.payload["size"]},
            )

        elif msg.op == "fs-close":
            ok = handles.pop(payload.get("handle"), None) is not None
            yield from serve_reply(ctx, msg, "fs-close-reply", {"ok": ok})

        elif msg.op == "fs-read":
            yield from _fs_read(
                ctx, backlog, msg, handles, dir_link, buf_link, block_size,
            )

        elif msg.op == "fs-write":
            yield from _fs_write(
                ctx, backlog, msg, handles, dir_link, buf_link, block_size,
            )

        elif msg.op == "fs-delete":
            reply = yield from _serial_rpc(
                ctx, backlog, dir_link, "dir-delete",
                {"name": payload["name"]},
            )
            yield from serve_reply(
                ctx, msg, "fs-delete-reply", dict(reply.payload),
            )

        elif msg.op == "fs-list":
            reply = yield from _serial_rpc(
                ctx, backlog, dir_link, "dir-list", {},
            )
            yield from serve_reply(
                ctx, msg, "fs-list-reply", dict(reply.payload),
            )

        elif msg.op == "fs-stat":
            reply = yield from _serial_rpc(
                ctx, backlog, dir_link, "dir-lookup",
                {"name": payload["name"]},
            )
            yield from serve_reply(
                ctx, msg, "fs-stat-reply", dict(reply.payload),
            )

        elif msg.op == "fs-ops":
            yield from serve_reply(
                ctx, msg, "fs-ops-reply",
                {"ok": True, "operations": operations,
                 "machine": ctx.machine},
            )

        else:
            yield from serve_reply(
                ctx, msg, "error-reply",
                {"ok": False, "error": f"unknown op {msg.op!r}"},
            )


def _fs_read(
    ctx: ProcessContext,
    backlog: Backlog,
    msg: Message,
    handles: dict[int, int],
    dir_link: int,
    buf_link: int,
    block_size: int,
) -> Generator[Any, Any, None]:
    payload = msg.payload
    inode = handles.get(payload.get("handle"))
    if inode is None:
        yield from serve_reply(
            ctx, msg, "fs-read-reply", {"ok": False, "error": "bad handle"},
        )
        return
    stat = yield from _serial_rpc(
        ctx, backlog, dir_link, "dir-stat", {"inode": inode},
    )
    if not stat.payload["ok"]:
        yield from serve_reply(ctx, msg, "fs-read-reply", dict(stat.payload))
        return
    size, blocks = stat.payload["size"], stat.payload["blocks"]
    offset = payload.get("offset", 0)
    length = min(payload.get("length", size), max(0, size - offset))
    pieces: list[bytes] = []
    remaining, pos = length, offset
    while remaining > 0:
        index, within = divmod(pos, block_size)
        take = min(block_size - within, remaining)
        if index >= len(blocks):
            break
        bread = yield from _serial_rpc(
            ctx, backlog, buf_link, "bread", {"block": blocks[index]},
        )
        pieces.append(bread.payload["data"][within:within + take])
        remaining -= take
        pos += take
    data = b"".join(pieces)
    yield from serve_reply(
        ctx, msg, "fs-read-reply",
        {"ok": True, "data": data, "eof": offset + length >= size},
        payload_bytes=8 + len(data),
    )


def _fs_write(
    ctx: ProcessContext,
    backlog: Backlog,
    msg: Message,
    handles: dict[int, int],
    dir_link: int,
    buf_link: int,
    block_size: int,
) -> Generator[Any, Any, None]:
    payload = msg.payload
    inode = handles.get(payload.get("handle"))
    if inode is None:
        yield from serve_reply(
            ctx, msg, "fs-write-reply", {"ok": False, "error": "bad handle"},
        )
        return
    offset: int = payload.get("offset", 0)
    data: bytes = payload["data"]
    end = offset + len(data)
    extend = yield from _serial_rpc(
        ctx, backlog, dir_link, "dir-extend",
        {"inode": inode, "size": end, "block_size": block_size},
    )
    if not extend.payload["ok"]:
        yield from serve_reply(
            ctx, msg, "fs-write-reply", dict(extend.payload),
        )
        return
    blocks = extend.payload["blocks"]
    pos, written = offset, 0
    while written < len(data):
        index, within = divmod(pos, block_size)
        take = min(block_size - within, len(data) - written)
        chunk = data[written:written + take]
        if take == block_size:
            merged = chunk
        else:
            bread = yield from _serial_rpc(
                ctx, backlog, buf_link, "bread", {"block": blocks[index]},
            )
            old = bread.payload["data"]
            merged = old[:within] + chunk + old[within + take:]
        yield from _serial_rpc(
            ctx, backlog, buf_link, "bwrite",
            {"block": blocks[index], "data": merged},
            payload_bytes=8 + len(merged),
        )
        written += take
        pos += take
    yield from serve_reply(
        ctx, msg, "fs-write-reply", {"ok": True, "bytes": written},
    )


# =====================================================================
# Serial sub-request helper
# =====================================================================

class Backlog(deque):
    """The messages a server process set aside while it waited for a
    sub-request's reply, and the number of sub-requests it has issued
    (which names each one's reply).  Every process keeps its own."""

    issued = 0


def _serial_rpc(
    ctx: ProcessContext,
    backlog: Backlog,
    link: int,
    op: str,
    payload: dict,
    payload_bytes: int = 32,
) -> Generator[Any, Any, Message]:
    """Issue one sub-request and wait for *its* reply.

    Messages that arrive meanwhile (new client requests, stray replies)
    are pushed onto *backlog* for the main loop.
    """
    backlog.issued += 1
    req_id = ("srpc", backlog.issued)
    reply_link = yield ctx.create_link()
    request = dict(payload)
    request["req_id"] = req_id
    yield ctx.send(
        link, op=op, payload=request, payload_bytes=payload_bytes,
        links=(reply_link,),
    )
    while True:
        msg = yield ctx.receive()
        reply_payload = msg.payload or {}
        if (
            isinstance(reply_payload, dict)
            and reply_payload.get("req_id") == req_id
        ):
            yield ctx.destroy_link(reply_link)
            return msg
        backlog.append(msg)


# =====================================================================
# Boot and client helpers
# =====================================================================

def boot_file_system(system: "System", machine: int) -> dict[str, Any]:
    """Spawn the four file-system processes on *machine*.

    Registers ``file_system`` (the front end) as a well-known service and
    records all four pids in ``system.server_pids``.  Returns the
    name -> pid mapping.
    """
    kernel = system.kernel(machine)

    disk_pid = kernel.spawn(disk_driver_program, name="disk_driver")
    disk_addr = ProcessAddress(disk_pid, machine)

    buffer_pid = kernel.spawn(
        buffer_manager_program, name="buffer_manager",
        extra_links={"disk_driver": disk_addr},
    )
    buffer_addr = ProcessAddress(buffer_pid, machine)

    dir_pid = kernel.spawn(directory_manager_program, name="directory_manager")
    dir_addr = ProcessAddress(dir_pid, machine)

    server_pid = kernel.spawn(
        file_server_program, name="file_system",
        extra_links={
            "buffer_manager": buffer_addr,
            "directory_manager": dir_addr,
        },
    )
    system.well_known["file_system"] = ProcessAddress(server_pid, machine)
    pids = {
        "disk_driver": disk_pid,
        "buffer_manager": buffer_pid,
        "directory_manager": dir_pid,
        "file_system": server_pid,
    }
    system.server_pids.update(pids)
    return pids


class FileClient:
    """Sub-generator helpers for talking to the file system.

    Use inside a program::

        fs = FileClient(ctx)
        yield from fs.create("log")
        handle = yield from fs.open("log")
        yield from fs.write(handle, 0, b"hello")
        data = yield from fs.read(handle, 0, 5)
    """

    def __init__(self, ctx: ProcessContext, link: int | None = None) -> None:
        self.ctx = ctx
        self.link = link if link is not None else ctx.bootstrap["file_system"]

    def _call(
        self, op: str, payload: dict, payload_bytes: int = 32
    ) -> Generator[Any, Any, dict]:
        reply = yield from rpc(
            self.ctx, self.link, op, payload, payload_bytes=payload_bytes,
        )
        assert reply is not None
        return reply.payload

    def create(self, name: str) -> Generator[Any, Any, dict]:
        """Create an empty file."""
        return (yield from self._call("fs-create", {"name": name}))

    def open(self, name: str) -> Generator[Any, Any, int]:
        """Open a file; returns its handle."""
        reply = yield from self._call("fs-open", {"name": name})
        if not reply.get("ok"):
            from repro.errors import FileSystemError

            raise FileSystemError(f"open {name!r}: {reply.get('error')}")
        return reply["handle"]

    def read(
        self, handle: int, offset: int, length: int
    ) -> Generator[Any, Any, bytes]:
        """Read up to *length* bytes at *offset*."""
        reply = yield from self._call(
            "fs-read", {"handle": handle, "offset": offset, "length": length},
        )
        if not reply.get("ok"):
            from repro.errors import FileSystemError

            raise FileSystemError(f"read: {reply.get('error')}")
        return reply["data"]

    def write(
        self, handle: int, offset: int, data: bytes
    ) -> Generator[Any, Any, int]:
        """Write *data* at *offset*; returns bytes written."""
        reply = yield from self._call(
            "fs-write", {"handle": handle, "offset": offset, "data": data},
            payload_bytes=8 + len(data),
        )
        if not reply.get("ok"):
            from repro.errors import FileSystemError

            raise FileSystemError(f"write: {reply.get('error')}")
        return reply["bytes"]

    def close(self, handle: int) -> Generator[Any, Any, bool]:
        """Release a handle."""
        reply = yield from self._call("fs-close", {"handle": handle})
        return bool(reply.get("ok"))

    def delete(self, name: str) -> Generator[Any, Any, bool]:
        """Remove a file."""
        reply = yield from self._call("fs-delete", {"name": name})
        return bool(reply.get("ok"))

    def list(self) -> Generator[Any, Any, list[str]]:
        """All file names."""
        reply = yield from self._call("fs-list", {})
        return reply.get("names", [])

    def stat(self, name: str) -> Generator[Any, Any, dict]:
        """Metadata for *name*."""
        return (yield from self._call("fs-stat", {"name": name}))
