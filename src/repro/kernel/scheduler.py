"""Per-kernel CPU scheduling.

Each kernel independently maintains its own CPU (paper §2.1).  We use
round-robin: ready processes share the CPU in FIFO rotation with a fixed
quantum.  Compute-bound work contends for the CPU, which is what makes
run-queue length a meaningful load metric for the migration decision
policies.
"""

from __future__ import annotations

from collections import deque

from repro.kernel.ids import ProcessId


class RoundRobinScheduler:
    """One FIFO run queue with O(1) membership checks."""

    def __init__(self) -> None:
        self._queue: deque[ProcessId] = deque()
        #: pid -> (pid,) of every queued pid.  Each enqueue offers its
        #: own fresh 1-tuple, so one setdefault both inserts and says
        #: whether the pid was already queued.
        self._queued: dict[ProcessId, tuple[ProcessId]] = {}
        self.running: ProcessId | None = None

    def __len__(self) -> int:
        return len(self._queued)

    def enqueue(self, pid: ProcessId) -> None:
        """Add *pid* to the back of the queue.  Idempotent (a pid already
        queued or running is left where it is)."""
        running = self.running
        if running is pid or (running is not None and running == pid):
            return
        entry = (pid,)
        if self._queued.setdefault(pid, entry) is entry:
            self._queue.append(pid)

    def remove(self, pid: ProcessId) -> None:
        """Take *pid* off the run queue if queued (migration step 1)."""
        if self._queued.pop(pid, None) is not None:
            self._queue.remove(pid)

    def pick_next(self) -> ProcessId | None:
        """Pop the next process to run (FIFO), marking it as running."""
        queue = self._queue
        if not queue:
            return None
        pid = queue.popleft()
        del self._queued[pid]
        self.running = pid
        return pid

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
