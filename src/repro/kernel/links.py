"""Links: the only connection a DEMOS/MP process has to anything.

A link is a protected global process address held in a process's local
link table (small-integer names).  Links are manipulated like capabilities:
the kernel participates in every operation, and links may be created,
duplicated, passed inside messages, or destroyed.  Addresses in links are
context independent — a passed link still points at the same process.

Two attributes matter for this paper:

- ``DELIVER_TO_KERNEL``: messages sent on the link are received by the
  kernel of the machine *where the target process currently resides*, so
  control operations follow the process through migrations (paper §2.2);
- ``DATA_READ`` / ``DATA_WRITE``: the link grants access to a window of
  the creator's address space, used by the move-data facility for bulk
  transfers (file I/O, migration state transfer).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Flag, auto
from typing import Iterator

from repro.errors import InvalidLinkError
from repro.kernel.ids import ProcessAddress, ProcessId
from repro.net.topology import MachineId

#: Wire size of a link passed inside a message: address (6) + attributes
#: (1) + data-area descriptor (offset 2, length 2, padding 1) — 12 bytes.
LINK_WIRE_BYTES = 12
#: Bytes one link-table entry contributes to the swappable process state
#: (paper: swappable state is "about 600 bytes (depending on the size of
#: the link table)").
LINK_TABLE_ENTRY_BYTES = 16


class LinkAttribute(Flag):
    """Capability bits carried by a link."""

    NONE = 0
    DELIVER_TO_KERNEL = auto()
    DATA_READ = auto()
    DATA_WRITE = auto()


#: The DELIVER_TO_KERNEL bit as a plain int: every user send tests it,
#: and ``Flag.__and__`` builds a new member through four Python frames.
_DELIVER_TO_KERNEL_BIT = LinkAttribute.DELIVER_TO_KERNEL.value


@dataclass(frozen=True)
class DataArea:
    """A window into the link creator's address space."""

    offset: int
    length: int

    def contains(self, offset: int, length: int) -> bool:
        """Whether [offset, offset+length) lies inside this window."""
        return (
            offset >= self.offset
            and offset + length <= self.offset + self.length
            and length >= 0
        )


@dataclass
class Link:
    """A one-way message path to (and capability on) a process.

    ``address`` is the only mutable part: forwarding-triggered link updates
    replace it with one whose last-known-machine field points at the
    process's new home.  The pid inside never changes.
    """

    address: ProcessAddress
    attributes: LinkAttribute = LinkAttribute.NONE
    data_area: DataArea | None = None

    @property
    def target_pid(self) -> ProcessId:
        """The process this link addresses (immutable component)."""
        return self.address.pid

    @property
    def deliver_to_kernel(self) -> bool:
        """Whether messages on this link are received by the target's kernel."""
        return self.attributes._value_ & _DELIVER_TO_KERNEL_BIT != 0

    def copy(self) -> "Link":
        """An independent duplicate (passing a link always copies it)."""
        return Link(self.address, self.attributes, self.data_area)

    def retarget(self, machine: MachineId) -> None:
        """Point this link at the process's new machine (link update)."""
        self.address = self.address.moved_to(machine)

    def __repr__(self) -> str:
        attrs = self.attributes.name if self.attributes else "NONE"
        area = f" area={self.data_area}" if self.data_area else ""
        return f"Link({self.address} {attrs}{area})"


@dataclass(frozen=True)
class LinkSnapshot:
    """An immutable picture of a link as it travels inside a message.

    While enroute, a link is data: nobody can update it, which is exactly
    why the paper needs forwarding even after all link tables are patched.
    """

    address: ProcessAddress
    attributes: LinkAttribute
    data_area: DataArea | None

    @classmethod
    def of(cls, link: Link) -> "LinkSnapshot":
        """Snapshot *link* for enclosure in a message."""
        return cls(link.address, link.attributes, link.data_area)

    def materialise(self) -> Link:
        """Create a live link from this snapshot (at receive time)."""
        return Link(self.address, self.attributes, self.data_area)


class LinkTable:
    """A process's link table: local small-int names to links.

    Link ids are never reused within a process's lifetime, mirroring the
    capability flavour of DEMOS links (a dangling id stays invalid rather
    than silently naming a new link).
    """

    def __init__(self) -> None:
        self._links: dict[int, Link] = {}
        self._next_id = 1

    def __len__(self) -> int:
        return len(self._links)

    def __contains__(self, link_id: int) -> bool:
        return link_id in self._links

    def insert(self, link: Link) -> int:
        """Add *link* and return its local id."""
        link_id = self._next_id
        self._next_id += 1
        self._links[link_id] = link
        return link_id

    def get(self, link_id: int) -> Link:
        """The link named *link_id*, or raise :class:`InvalidLinkError`."""
        try:
            return self._links[link_id]
        except KeyError:
            raise InvalidLinkError(f"no link with id {link_id}") from None

    def remove(self, link_id: int) -> Link:
        """Destroy the link named *link_id* and return it."""
        try:
            return self._links.pop(link_id)
        except KeyError:
            raise InvalidLinkError(f"no link with id {link_id}") from None

    def dup(self, link_id: int) -> int:
        """Duplicate a link, returning the new local id."""
        return self.insert(self.get(link_id).copy())

    def items(self) -> Iterator[tuple[int, Link]]:
        """Iterate ``(link_id, link)`` pairs in id order."""
        return iter(sorted(self._links.items()))

    def links_to(self, pid: ProcessId) -> list[Link]:
        """All links in this table addressing process *pid*."""
        return [lk for lk in self._links.values() if lk.target_pid == pid]

    def retarget_all(self, pid: ProcessId, machine: MachineId) -> int:
        """Point every link to *pid* at *machine*; return how many changed.

        This is the receiving half of the paper's link-update message: "All
        links in the sending process's link table that point to the migrated
        process are then updated to point to the new location."
        """
        changed = 0
        for link in self._links.values():
            if (
                link.target_pid == pid
                and link.address.last_known_machine != machine
            ):
                link.retarget(machine)
                changed += 1
        return changed

    def swappable_bytes(self) -> int:
        """This table's contribution to the swappable process state."""
        return LINK_TABLE_ENTRY_BYTES * len(self._links)


def make_reply_link(owner: ProcessAddress) -> Link:
    """A plain link back to *owner*, the paper's short-lived reply link."""
    return Link(owner)


def with_data_area(
    owner: ProcessAddress,
    offset: int,
    length: int,
    writable: bool = False,
) -> Link:
    """A link granting data-area access into *owner*'s address space."""
    attrs = LinkAttribute.DATA_READ
    if writable:
        attrs |= LinkAttribute.DATA_WRITE
    return Link(owner, attrs, DataArea(offset, length))


# re-exported for convenience in tests
__all__ = [
    "DataArea",
    "Link",
    "LinkAttribute",
    "LinkSnapshot",
    "LinkTable",
    "LINK_TABLE_ENTRY_BYTES",
    "LINK_WIRE_BYTES",
    "make_reply_link",
    "with_data_area",
]
