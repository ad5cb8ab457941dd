"""The kernel-call vocabulary available to simulated programs.

"All interactions between one process and another or between a process
and the system are via communication-oriented kernel calls" (paper §2.1).
Programs are Python generators; they *yield* one of these dataclasses and
are resumed with the call's result (or have an error thrown into them).
A call is a record built once per syscall and read by the kernel; nothing
assigns to it after ``__init__``, so the classes are slotted rather than
frozen (a frozen ``__init__`` pays one ``object.__setattr__`` per field,
and a ``Send`` is built on every message a program sends).

Example program::

    def echo_server(ctx):
        service = yield CreateLink()          # a link to myself
        yield Send(ctx.bootstrap["switchboard"], op="register",
                   payload={"name": "echo"}, links=(service,))
        while True:
            msg = yield Receive()
            if msg.delivered_link_ids:
                yield Send(msg.delivered_link_ids[0], op="echo-reply",
                           payload=msg.payload)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.kernel.links import DataArea, LinkAttribute
from repro.net.topology import MachineId


class Syscall:
    """Marker base class for everything a program may yield."""

    __slots__ = ()


@dataclass(slots=True)
class Send(Syscall):
    """Send a message over a link in my link table.

    Non-blocking: links are buffered one-way channels.  ``links`` encloses
    copies of other links from my table (e.g. a reply link); the receiver's
    kernel materialises them into its link table at delivery.
    """

    link_id: int
    op: str = "msg"
    payload: Any = None
    payload_bytes: int = 32
    links: tuple[int, ...] = ()
    deliver_to_kernel: bool = False


@dataclass(slots=True)
class Receive(Syscall):
    """Block until a message arrives; resumes with the :class:`Message`.

    With a ``timeout`` (microseconds) the call instead resumes with
    ``None`` if nothing arrives in time.
    """

    timeout: int | None = None


@dataclass(slots=True)
class CreateLink(Syscall):
    """Create a link pointing at *me*; resumes with its local link id."""

    attributes: LinkAttribute = LinkAttribute.NONE
    data_area: DataArea | None = None


@dataclass(slots=True)
class DupLink(Syscall):
    """Duplicate a link in my table; resumes with the new link id."""

    link_id: int


@dataclass(slots=True)
class DestroyLink(Syscall):
    """Remove a link from my table; resumes with None."""

    link_id: int


@dataclass(slots=True)
class Compute(Syscall):
    """Consume *duration* microseconds of CPU (contended, quantised)."""

    duration: int


@dataclass(slots=True)
class Sleep(Syscall):
    """Block for *duration* microseconds without holding the CPU."""

    duration: int


@dataclass(slots=True)
class MoveData(Syscall):
    """Bulk-transfer through a data-area link (paper §2.2).

    ``direction`` is "read" (their memory -> mine) or "write" (mine ->
    theirs); access must match the link's DATA_READ/DATA_WRITE grant.
    Resumes with the number of bytes moved once the streamed, per-packet-
    acknowledged transfer completes, wherever the target process now lives.
    """

    link_id: int
    direction: str  # "read" | "write"
    offset: int
    length: int


@dataclass(slots=True)
class RequestMigration(Syscall):
    """Ask to be migrated to *destination* ("it is of course possible for
    a process to request its own migration", §3.1).  Resumes with True if
    the migration was initiated."""

    destination: MachineId


@dataclass(slots=True)
class Exit(Syscall):
    """Terminate this process."""

    code: int = 0


@dataclass(slots=True)
class GetInfo(Syscall):
    """Resumes with a dict: pid, machine, now, queue_length, link_count,
    migrations."""


@dataclass(slots=True)
class Yield(Syscall):
    """Give up the CPU voluntarily; resumes after requeueing."""
