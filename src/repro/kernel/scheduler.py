"""Per-kernel CPU scheduling.

Each kernel independently maintains its own CPU (paper §2.1).  We use a
priority round-robin: higher-priority processes always dispatch first,
and processes of equal priority share the CPU in FIFO rotation with a
fixed quantum.  Priority 0 is the default; system servers may be boosted.
Compute-bound work contends for the CPU, which is what makes run-queue
length a meaningful load metric for the migration decision policies.
"""

from __future__ import annotations

from collections import deque

from repro.kernel.ids import ProcessId


class RoundRobinScheduler:
    """Priority levels of FIFO run queues with O(1) membership checks."""

    def __init__(self, quantum: int = 1_000) -> None:
        self.quantum = quantum
        self._queues: dict[int, deque[ProcessId]] = {}
        #: priority levels in dispatch order (descending); rebuilt only
        #: when a new level appears, so pick_next never re-sorts
        self._levels: list[int] = []
        #: pid -> (priority level,) of every queued pid.  Each enqueue
        #: offers its own fresh 1-tuple, so one setdefault both inserts
        #: and says whether the pid was already queued.
        self._queued: dict[ProcessId, tuple[int]] = {}
        self.running: ProcessId | None = None

    def __len__(self) -> int:
        return len(self._queued)

    def enqueue(self, pid: ProcessId, priority: int = 0) -> None:
        """Add *pid* at *priority* to the back of its queue.  Idempotent
        (a pid already queued or running is left where it is)."""
        running = self.running
        if running is pid or (running is not None and running == pid):
            return
        entry = (priority,)
        if self._queued.setdefault(pid, entry) is not entry:
            return
        try:
            queue = self._queues[priority]
        except KeyError:
            queue = self._queues[priority] = deque()
            self._levels = sorted(self._queues, reverse=True)
        queue.append(pid)

    def remove(self, pid: ProcessId) -> None:
        """Take *pid* off the run queue if queued (migration step 1)."""
        entry = self._queued.pop(pid, None)
        if entry is not None:
            self._queues[entry[0]].remove(pid)

    def pick_next(self) -> ProcessId | None:
        """Pop the next process to run (highest priority, FIFO within),
        marking it as running."""
        for priority in self._levels:
            queue = self._queues[priority]
            if queue:
                pid = queue.popleft()
                del self._queued[pid]
                self.running = pid
                return pid
        return None

    def release_cpu(self, pid: ProcessId) -> None:
        """The running process gave up the CPU."""
        running = self.running
        if running is pid or (running is not None and running == pid):
            self.running = None

    @property
    def load(self) -> int:
        """Run-queue length plus the running process, the paper's
        'processor loading' input to migration decisions."""
        return len(self._queued) + (1 if self.running is not None else 0)

    def queued_pids(self) -> list[ProcessId]:
        """Queue contents in dispatch order (diagnostics)."""
        out: list[ProcessId] = []
        for priority in self._levels:
            out.extend(self._queues[priority])
        return out
