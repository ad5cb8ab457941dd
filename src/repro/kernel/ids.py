"""Process identity and addressing (paper Figure 2-1).

A *process address* has two components:

- a system-wide **unique process id**: the machine the process was created
  on plus a local serial generated by that machine.  This never changes,
  no matter how often the process migrates.
- the **last known machine** — a hint that says where messages should be
  sent.  This is the only field migration (and link updating) ever touches.

The kernel itself is addressable: local id 0 on every machine is reserved
for that machine's kernel, matching "a link may also point to a kernel".
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.net.topology import MachineId

#: Wire size of a unique process id: creating machine (2) + local id (2).
PROCESS_ID_BYTES = 4
#: Wire size of a full process address: pid (4) + last known machine (2).
PROCESS_ADDRESS_BYTES = 6
#: The reserved local id addressing a machine's kernel.
KERNEL_LOCAL_ID = 0
#: Bits of a packed pid that hold the local id; the creating machine
#: sits above them.
LOCAL_ID_BITS = 20
#: The first local id that no longer fits its field of a packed pid.
LOCAL_ID_LIMIT = 1 << LOCAL_ID_BITS


class ProcessId(int):
    """System-wide unique process identifier.  Immutable for life.

    The pair ``<creating machine, local id>`` packed into one int
    (``creating_machine << 20 | local_id``), so hashing, equality and
    ordering run in C; the order is the pair's lexicographic order.
    """

    __slots__ = ()

    def __new__(
        cls, creating_machine: MachineId, local_id: int
    ) -> "ProcessId":
        return int.__new__(cls, creating_machine << LOCAL_ID_BITS | local_id)

    def __getnewargs__(self) -> tuple[int, int]:
        return (self.creating_machine, self.local_id)

    @property
    def creating_machine(self) -> MachineId:
        return self >> LOCAL_ID_BITS

    @property
    def local_id(self) -> int:
        return self & (LOCAL_ID_LIMIT - 1)

    @property
    def is_kernel(self) -> bool:
        """Whether this id names a kernel rather than a process."""
        return self & (LOCAL_ID_LIMIT - 1) == KERNEL_LOCAL_ID

    def __str__(self) -> str:
        if self.is_kernel:
            return f"kernel[{self.creating_machine}]"
        return f"p{self.creating_machine}.{self.local_id}"

    def __repr__(self) -> str:
        return (
            f"ProcessId(creating_machine={self.creating_machine},"
            f" local_id={self.local_id})"
        )


_PID_TEXT = re.compile(r"p?([0-9]+)\.([0-9]+)")


def parse_pid(text: str) -> ProcessId | None:
    """Inverse of ``str(ProcessId)`` for a process: ``'p2.5'``, or the
    bare ``'2.5'``; ``None`` for anything else (``'kernel[2]'``
    included)."""
    match = _PID_TEXT.fullmatch(text)
    if match is None:
        return None
    return ProcessId(int(match[1]), int(match[2]))


def kernel_pid(machine: MachineId) -> ProcessId:
    """The pseudo process id of *machine*'s kernel."""
    return ProcessId(machine, KERNEL_LOCAL_ID)


@dataclass(frozen=True)
class ProcessAddress:
    """A process id plus the last known location of that process.

    Instances are immutable; "updating" an address (during forwarding or
    link update) produces a new value via :meth:`moved_to`, which keeps
    every mutation explicit and every old snapshot intact in traces.
    """

    pid: ProcessId
    last_known_machine: MachineId

    def __getstate__(self) -> tuple:
        """Positional wire state: addresses ride in every cross-shard
        record blob, where dict keys would be dead bytes."""
        return (self.pid, self.last_known_machine)

    def __setstate__(self, state: tuple) -> None:
        object.__setattr__(self, "pid", state[0])
        object.__setattr__(self, "last_known_machine", state[1])

    def moved_to(self, machine: MachineId) -> "ProcessAddress":
        """The same process, now believed to be on *machine*."""
        if machine == self.last_known_machine:
            return self
        return ProcessAddress(self.pid, machine)

    def __str__(self) -> str:
        return f"{self.pid}@{self.last_known_machine}"


def kernel_address(machine: MachineId) -> ProcessAddress:
    """The address of *machine*'s kernel (kernels never migrate)."""
    return ProcessAddress(kernel_pid(machine), machine)


class KernelAddresses(dict):
    """``machine -> kernel address``, each minted on its first use.

    A kernel keeps one for the peers it sends control traffic to, so a
    control message reuses its destination address instead of minting
    a pid and an address per send.  Addresses are immutable, so sharing
    one between messages is safe; a hit is one subscript, no call.
    """

    def __missing__(self, machine: MachineId) -> ProcessAddress:
        address = self[machine] = kernel_address(machine)
        return address
