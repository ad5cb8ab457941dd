"""Forwarding-address garbage collection (paper §4).

The paper leaves forwarding addresses in place ("negligible impact on
system resources") but notes that "given a long running system, however,
some form of garbage collection will eventually have to be used" and
sketches two schemes: reference counts (the optimum) and removal on
process death via backward pointers (implemented in the kernel,
:meth:`repro.kernel.kernel.Kernel.terminate`).

This module adds the long-running-system piece: an age-based sweeper that
periodically collects forwarding addresses older than a threshold.  The
trade-off is explicit — a swept entry makes any *still*-stale link
undeliverable, handled by the kernel's undeliverable policy — so the
threshold should comfortably exceed the link-update convergence time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.cluster import Cluster


@dataclass
class SweeperStats:
    """What the sweeper has collected so far."""

    sweeps: int = 0
    collected: int = 0
    collected_pids: list[str] = field(default_factory=list)


class ForwardingSweeper:
    """Periodically collect forwarding addresses older than *max_age*.

    :meth:`sweep_now` works on any cluster; the periodic sweep
    (:meth:`install`) ticks on the single-loop ``System``'s loop.
    """

    def __init__(
        self,
        system: "Cluster",
        interval: int = 1_000_000,
        max_age: int = 5_000_000,
    ) -> None:
        self.system = system
        self.interval = interval
        self.max_age = max_age
        self.stats = SweeperStats()
        self._stopped = False

    def install(self) -> None:
        """Start sweeping on the system's event loop."""
        self.system.loop.call_after(self.interval, self._tick)

    def stop(self) -> None:
        """Cease sweeping after the current tick."""
        self._stopped = True

    def sweep_now(self) -> int:
        """Run one sweep immediately; returns entries collected.

        Reads ``cluster.now()`` and traces through each kernel's own
        tracer; on a sharded cluster, sweep where the shards agree on
        time (at quiescence, or from a barrier action)."""
        now = self.system.now()
        collected = 0
        for kernel in self.system.kernels:
            victims = kernel.forwarding.sweep(now, self.max_age)
            for victim in victims:
                self.stats.collected_pids.append(str(victim.pid))
                kernel.tracer.record(
                    "forward", "swept", pid=str(victim.pid),
                    machine=kernel.machine,
                    age=now - victim.created_at,
                )
            collected += len(victims)
        self.stats.sweeps += 1
        self.stats.collected += collected
        return collected

    def _tick(self) -> None:
        if self._stopped:
            return
        self.sweep_now()
        self.system.loop.call_after(self.interval, self._tick)
