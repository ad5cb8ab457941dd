"""Scenario interpreter: schedules scripted faults into a live system.

The engine owns nothing clever — every decision (what fails, when,
where the survivors go) was pinned when the scenario was built.  Its
job is to schedule the actions on the simulation clock, drive the
repo's failure primitives when they fire, and keep a deterministic
ledger of what actually happened (:class:`FaultEvent`).  Identical
scenario + identical system config ⇒ identical ledger, byte for byte —
the property the campaign gates and the Hypothesis suite fuzzes.

The engine is written against :class:`~repro.core.cluster.Cluster`:
every action is scheduled through ``call_at`` (anchored to a machine)
or ``call_at_barrier``.  Crashes and maintenance kills are *global*
actions — the recovery sequence mutates several shards at once — so on
a sharded cluster they fire between windows in pure-data key order
(kind, machine, executor), with every shard clock frozen at the crash
instant; on the single loop the same call is an ordinary event.

The one thing the engine still asks the cluster is its
``barrier_grid``, once, at build time, and hands it to the scenario's
own validation: where there is a grid (a sharded cluster),
:meth:`~repro.chaos.scenario.ChaosScenario.check_barrier_schedule`
refuses partitions and flaky windows and requires barrier-action times
on the grid and unique — the same pure check the fuzzer's validator
runs.  The ledger is kept in the driving process, so sharded scenarios
must run under the serial executor (the same constraint as cross-shard
live migration).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.chaos.scenario import (
    ChaosScenario,
    CrashMachine,
    Evacuation,
    FlakyLinks,
    MigrationStorm,
    Partition,
)
from repro.errors import SimulationError
from repro.net.channel import FaultPlan
from repro.policy.metrics import migratable_processes
from repro.policy.recovery import CrashRecoveryManager, CrashReport

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.cluster import Cluster


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One fault the engine actually injected."""

    at: int
    kind: str
    detail: str


class ChaosEngine:
    """Runs one :class:`ChaosScenario` against one system.

    Usage::

        engine = ChaosEngine(system, scenario)
        engine.install()        # before (or alongside) the workload
        system.run(...)         # faults fire on the simulation clock
        engine.ledger()         # sorted FaultEvents, deterministic
    """

    def __init__(
        self,
        system: "Cluster",
        scenario: ChaosScenario,
        recovery: CrashRecoveryManager | None = None,
    ) -> None:
        self.system = system
        self.scenario = scenario
        scenario.validate(len(system.kernels), system.barrier_grid)
        if recovery is None:
            recovery = CrashRecoveryManager(system)
        self.recovery = recovery
        self.events: list[FaultEvent] = []
        self.counts: dict[str, int] = {}
        self.crash_reports: list[CrashReport] = []
        self.installed = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Schedule every scenario action on the simulation clock."""
        if self.installed:
            raise SimulationError("engine already installed")
        self.installed = True
        at = self.system.call_at
        at_barrier = self.system.call_at_barrier
        for action in self.scenario.actions:
            if isinstance(action, CrashMachine):
                at_barrier(
                    action.at,
                    ("crash", action.machine, action.executor),
                    self._crash, action,
                )
            elif isinstance(action, Partition):
                at(action.at, 0, self._partition, action)
                at(action.heal_at, 0, self._heal, action)
            elif isinstance(action, FlakyLinks):
                at(action.at, 0, self._flaky_start, action)
                at(action.until, 0, self._flaky_end, action)
            elif isinstance(action, MigrationStorm):
                for move in action.moves:
                    at(
                        action.at, move.home, self._storm_move,
                        action.at, move,
                    )
            elif isinstance(action, Evacuation):
                at(action.drain_at, action.machine, self._drain, action)
                at_barrier(
                    action.kill_at,
                    ("maintenance-kill", action.machine, action.executor),
                    self._kill, action,
                )

    # ------------------------------------------------------------------
    # Ledger
    # ------------------------------------------------------------------

    def ledger(self) -> list[FaultEvent]:
        """Every injected fault, sorted canonically.

        The sort makes the ledger independent of same-tick callback
        interleaving, so it can be compared byte-for-byte across runs
        and across shard layouts.
        """
        return sorted(self.events)

    def _record(self, at: int, kind: str, detail: str) -> None:
        self.events.append(FaultEvent(at, kind, detail))
        self.counts[kind] = self.counts.get(kind, 0) + 1
        # Charge shard 0 so merged counters are shard-layout
        # independent (the ledger, not the charge site, carries the
        # machine information).
        self.system.shards[0].metrics.counter(
            "chaos.faults", kind=kind, scenario=self.scenario.name,
        ).inc()

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------

    def _crash(self, action: CrashMachine) -> None:
        if action.protect:
            self.recovery.protect_all(action.machine)
        report = self.recovery.crash(action.machine, action.executor)
        self.crash_reports.append(report)
        self._record(
            action.at, "crash",
            f"machine {action.machine} -> executor {action.executor}"
            + ("" if action.protect else " (unprotected)"),
        )

    def _partition(self, action: Partition) -> None:
        self.system.network.partition(action.group_a, action.group_b)
        self._record(
            action.at, "partition",
            f"{sorted(action.group_a)} | {sorted(action.group_b)}",
        )

    def _heal(self, action: Partition) -> None:
        self.system.network.heal(action.group_a, action.group_b)
        self._record(
            action.heal_at, "heal",
            f"{sorted(action.group_a)} | {sorted(action.group_b)}",
        )

    def _flaky_start(self, action: FlakyLinks) -> None:
        network = self.system.network
        if action.pairs is None:
            self._flaky_baseline = network._default_faults
            network.set_faults(action.faults)
            where = "all wires"
        else:
            self._flaky_baseline = network._default_faults
            for a, b in action.pairs:
                network.set_faults(action.faults, a, b)
            where = f"{len(action.pairs)} wire pair(s)"
        self._record(action.at, "flaky", where)

    def _flaky_end(self, action: FlakyLinks) -> None:
        network = self.system.network
        baseline = getattr(self, "_flaky_baseline", None) or FaultPlan()
        if action.pairs is None:
            network.set_faults(baseline)
            where = "all wires"
        else:
            for a, b in action.pairs:
                network.set_faults(baseline, a, b)
            where = f"{len(action.pairs)} wire pair(s)"
        self._record(action.until, "flaky-end", where)

    def _storm_move(self, at: int, move) -> None:
        kernel = self.system.kernel(move.home)
        started = (
            move.pid in kernel.processes
            and not kernel.crashed
            and kernel.migration.start(move.pid, move.dest)
        )
        detail = f"{move.pid} {move.home} -> {move.dest}"
        if started:
            self._record(at, "storm-move", detail)
        else:
            self._record(at, "storm-skip", detail)

    def _drain(self, action: Evacuation) -> None:
        """Evacuate: refuse inbound migrations, push residents out."""
        kernel = self.system.kernel(action.machine)
        kernel.draining = True
        moved = 0
        for index, pid in enumerate(
            migratable_processes(self.system, action.machine)
        ):
            dest = action.dests[index % len(action.dests)]
            if kernel.migration.start(pid, dest):
                moved += 1
        self.counts["drain-migrations"] = (
            self.counts.get("drain-migrations", 0) + moved
        )
        self._record(
            action.drain_at, "drain",
            f"machine {action.machine} -> {list(action.dests)}",
        )

    def _kill(self, action: Evacuation) -> None:
        # A clean evacuation leaves the machine empty; protect whatever
        # straggled so the maintenance kill still has no casualties.
        self.recovery.protect_all(action.machine)
        report = self.recovery.crash(action.machine, action.executor)
        self.crash_reports.append(report)
        self._record(
            action.kill_at, "maintenance-kill",
            f"machine {action.machine} -> executor {action.executor}",
        )
