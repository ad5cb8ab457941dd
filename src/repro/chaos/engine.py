"""Scenario interpreter: schedules scripted faults into a live system.

The engine owns nothing clever — every decision (what fails, when,
where the survivors go) was pinned when the scenario was built.  Its
job is to schedule the record's :class:`~repro.chaos.scenario.ActionSpec`
actions on the simulation clock, drive the repo's failure primitives
when they fire, and keep a deterministic ledger of what actually
happened (:class:`FaultEvent`).  Identical scenario + identical system
config ⇒ identical ledger, byte for byte — the property the campaign
gates and the Hypothesis suite fuzzes.

The engine is written against :class:`~repro.core.cluster.Cluster`:
every action is scheduled through ``call_at`` (anchored to a machine)
or ``call_at_barrier``.  Crashes, maintenance kills and wire surgery
(partition, heal, flaky start and end) are *global* actions — crash
recovery mutates several shards at once, and a fault plan lands on
wires owned by every shard — so on a sharded cluster they fire between
windows in pure-data key order, with every shard clock frozen at the
action's instant; on the single loop the same call is an ordinary
event.  Wire surgery reaches every shard's network through one
fan-out, and each network rewrites only the wires it owns.

The one thing the engine still asks the cluster is its
``barrier_grid``, once, at build time, and hands it with the machine
count to the record's own validation
(:meth:`~repro.chaos.scenario.Scenario.check_schedule`): where there is
a grid (a sharded cluster), barrier-action times must sit on it and be
unique — the same pure check the fuzzer's validator runs.  The ledger
is kept in the driving process, so sharded scenarios must run under the
serial executor (the same constraint as cross-shard live migration).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.chaos.scenario import ActionSpec, Scenario
from repro.errors import ConfigError, SimulationError
from repro.kernel.ids import ProcessId
from repro.net.channel import FaultPlan
from repro.net.topology import MachineId
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
    """Runs one :class:`~repro.chaos.scenario.Scenario`'s actions
    against one system, server *i* being the process ``pids[i]``.

    Usage::

        engine = ChaosEngine(system, scenario, pids)
        engine.install()        # before (or alongside) the workload
        system.run(...)         # faults fire on the simulation clock
        engine.ledger()         # sorted FaultEvents, deterministic
    """

    def __init__(
        self,
        system: "Cluster",
        scenario: Scenario,
        pids: Sequence[ProcessId],
    ) -> None:
        if len(pids) != len(scenario.servers):
            raise ConfigError(
                f"{len(pids)} pids for {len(scenario.servers)} servers"
            )
        scenario.check_schedule(len(system.kernels), system.barrier_grid)
        self.system = system
        self.scenario = scenario
        self.pids = pids
        self.recovery = CrashRecoveryManager(system)
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
        for time, kind, detail, spec, move in self.scenario.edges(self.pids):
            if move is not None:
                sidx, home, dest = move
                at(time, home, self._storm_move,
                   time, self.pids[sidx], home, dest, detail)
            elif kind == "drain":
                at(time, spec.machine, self._drain, spec, detail)
            elif kind in ("crash", "maintenance-kill"):
                at_barrier(
                    time, (kind, spec.machine, spec.executor),
                    self._crash, time, kind, detail, spec,
                )
            else:
                # Each window's plan is built once, here; its closing
                # edge restores the plan in force when it opened.
                if kind == "partition":
                    plan = FaultPlan(drop_probability=1.0)
                elif kind == "flaky":
                    plan = FaultPlan(
                        drop_probability=spec.drop_permille / 1000,
                        max_jitter=spec.jitter,
                    )
                else:
                    plan = None
                at_barrier(
                    time, (kind, detail), self._rewire,
                    time, kind, detail, spec, plan,
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

    def _crash(
        self, at: int, kind: str, detail: str, spec: ActionSpec
    ) -> None:
        """A crash or a maintenance kill: everything resident is saved
        to stable storage first (after a clean evacuation there is
        nothing left to save), so neither has casualties."""
        self.recovery.protect_all(spec.machine)
        report = self.recovery.crash(spec.machine, spec.executor)
        self.crash_reports.append(report)
        self._record(at, kind, detail)

    def _rewire(
        self,
        at: int,
        kind: str,
        detail: str,
        spec: ActionSpec,
        faults: FaultPlan | None,
    ) -> None:
        """Open a wire-surgery window — *faults* on the partition's cut,
        or on every wire for a flaky window — or, without *faults*,
        close it by restoring the plan in force when it opened.  The
        one fan-out: every shard's network gets the plan and rewrites
        only the wires it owns.  Validation refuses overlapping
        windows, so one baseline serves.
        """
        if faults is None:
            faults = self._baseline
        else:
            self._baseline = self.system.shards[0].network._default_faults
        pairs = self._cut(spec) if spec.kind == "partition" else None
        for shard in self.system.shards:
            network = shard.network
            if pairs is None:
                network.set_faults(faults)
            else:
                for a, b in pairs:
                    network.set_faults(faults, a, b)
        self._record(at, kind, detail)

    def _cut(self, spec: ActionSpec) -> list[tuple[MachineId, MachineId]]:
        """The adjacent wire pairs straddling the partition: routing
        keeps its shortest paths, so faulting exactly these wires stops
        all traffic that must cross the cut."""
        group_b = set(spec.group_b)
        return [
            (a, b)
            for a in sorted(spec.group_a)
            for b in self.system.topology.neighbors(a)
            if b in group_b
        ]

    def _storm_move(
        self,
        at: int,
        pid: ProcessId,
        home: MachineId,
        dest: MachineId,
        detail: str,
    ) -> None:
        kernel = self.system.kernel(home)
        started = (
            pid in kernel.processes
            and not kernel.crashed
            and kernel.migration.start(pid, dest)
        )
        self._record(at, "storm-move" if started else "storm-skip", detail)

    def _drain(self, spec: ActionSpec, detail: str) -> None:
        """Evacuate: refuse inbound migrations, push residents out."""
        kernel = self.system.kernel(spec.machine)
        kernel.draining = True
        moved = 0
        for index, pid in enumerate(
            migratable_processes(self.system, spec.machine)
        ):
            dest = spec.dests[index % len(spec.dests)]
            if kernel.migration.start(pid, dest):
                moved += 1
        self.counts["drain-migrations"] = (
            self.counts.get("drain-migrations", 0) + moved
        )
        self._record(spec.at, "drain", detail)
