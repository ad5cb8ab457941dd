"""Declarative chaos scenarios.

A :class:`ChaosScenario` is a named, validated schedule of failure
actions against one simulated system.  Scenarios are *data*: everything
is pinned at build time (absolute simulated times, explicit machines,
explicit victims), so the fault schedule is a pure function of the
scenario — the determinism property the Hypothesis suite gates.  The
:class:`~repro.chaos.engine.ChaosEngine` interprets a scenario against a
live :class:`~repro.core.cluster.Cluster`: all actions on the single-loop
:class:`~repro.core.system.System`, the shard-safe subset on a
:class:`~repro.sim.shard.ShardedSystem`.

Action vocabulary:

- :class:`CrashMachine` — fail-stop one machine; protected contents are
  recovered on the executor (paper §1/§4 stable-storage recovery);
- :class:`Partition` — sever every wire between two machine groups,
  healing at a later time (the reliable transport retransmits across
  the cut, so delivery resumes exactly-once);
- :class:`FlakyLinks` — a window of lossy/duplicating/jittery wires,
  on specific pairs or the whole network;
- :class:`MigrationStorm` — many simultaneous forced migrations, each
  anchored at the victim's home machine (skip-or-start is a per-machine
  decision, which keeps storms shard-layout independent);
- :class:`Evacuation` — drain a machine by migrating everything off it
  (the kernel refuses inbound migrations while draining), then fail it
  at a scheduled "maintenance" kill.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

from repro.errors import ConfigError
from repro.kernel.ids import ProcessId
from repro.net.channel import FaultPlan
from repro.net.topology import MachineId


@dataclass(frozen=True)
class CrashMachine:
    """Fail-stop *machine* at *at*; recover onto *executor*.

    With ``protect`` (the default) every process resident on the
    machine at the crash instant is saved to stable storage first, so
    the crash has survivors instead of casualties.
    """

    at: int
    machine: MachineId
    executor: MachineId
    protect: bool = True

    def check(self, machines: int) -> None:
        if not 0 <= self.machine < machines:
            raise ConfigError(f"crash machine {self.machine} out of range")
        if not 0 <= self.executor < machines:
            raise ConfigError(f"executor {self.executor} out of range")
        if self.machine == self.executor:
            raise ConfigError(
                f"machine {self.machine} cannot be its own crash executor"
            )
        if self.at < 0:
            raise ConfigError("crash time must be non-negative")


@dataclass(frozen=True)
class Partition:
    """Sever all wires between *group_a* and *group_b* from *at* until
    *heal_at* (drop probability 1.0 on every cut wire)."""

    at: int
    heal_at: int
    group_a: tuple[MachineId, ...]
    group_b: tuple[MachineId, ...]

    def check(self, machines: int) -> None:
        if not self.group_a or not self.group_b:
            raise ConfigError("a partition needs two non-empty groups")
        overlap = set(self.group_a) & set(self.group_b)
        if overlap:
            raise ConfigError(
                f"partition groups overlap on machines {sorted(overlap)}"
            )
        for m in (*self.group_a, *self.group_b):
            if not 0 <= m < machines:
                raise ConfigError(f"partition machine {m} out of range")
        if not 0 <= self.at < self.heal_at:
            raise ConfigError(
                f"partition window [{self.at}, {self.heal_at}) is empty "
                f"or negative"
            )


@dataclass(frozen=True)
class FlakyLinks:
    """Inject *faults* on wires from *at* until *until*.

    ``pairs`` names specific (adjacent) wire pairs; ``None`` applies the
    plan to every wire in the network for the window.
    """

    at: int
    until: int
    faults: FaultPlan = field(default_factory=FaultPlan)
    pairs: tuple[tuple[MachineId, MachineId], ...] | None = None

    def check(self, machines: int) -> None:
        if not 0 <= self.at < self.until:
            raise ConfigError(
                f"flaky window [{self.at}, {self.until}) is empty "
                f"or negative"
            )
        for a, b in self.pairs or ():
            if not 0 <= a < machines or not 0 <= b < machines:
                raise ConfigError(f"flaky pair ({a}, {b}) out of range")
            if a == b:
                raise ConfigError(f"machine {a} has no wire to itself")


@dataclass(frozen=True)
class Move:
    """One storm victim: migrate *pid* from *home* to *dest*.

    The move is anchored at *home*: if the process is no longer there
    when the storm fires (it exited, or a policy moved it first), the
    move is skipped — a per-machine decision, identical for every shard
    layout.
    """

    pid: ProcessId
    home: MachineId
    dest: MachineId

    def check(self, machines: int) -> None:
        if not 0 <= self.home < machines:
            raise ConfigError(f"storm home {self.home} out of range")
        if not 0 <= self.dest < machines:
            raise ConfigError(f"storm dest {self.dest} out of range")
        if self.home == self.dest:
            raise ConfigError(
                f"storm move for {self.pid} goes nowhere "
                f"(home == dest == {self.home})"
            )


@dataclass(frozen=True)
class MigrationStorm:
    """Fire every move simultaneously at *at* (forced migration burst)."""

    at: int
    moves: tuple[Move, ...]

    def check(self, machines: int) -> None:
        if self.at < 0:
            raise ConfigError("storm time must be non-negative")
        if not self.moves:
            raise ConfigError("a migration storm needs at least one move")
        for move in self.moves:
            move.check(machines)


@dataclass(frozen=True)
class Evacuation:
    """Drain *machine* at *drain_at*, then fail it at *kill_at*.

    Draining sets the kernel's maintenance flag (inbound migrations are
    refused) and migrates every resident process round-robin onto
    *dests*.  The kill is a protected crash onto *executor*; a clean
    evacuation leaves nothing to recover.
    """

    drain_at: int
    machine: MachineId
    kill_at: int
    executor: MachineId
    dests: tuple[MachineId, ...]

    def check(self, machines: int) -> None:
        if not 0 <= self.drain_at < self.kill_at:
            raise ConfigError(
                f"evacuation window [{self.drain_at}, {self.kill_at}) "
                f"is empty or negative"
            )
        if not 0 <= self.machine < machines:
            raise ConfigError(
                f"evacuated machine {self.machine} out of range"
            )
        if not 0 <= self.executor < machines:
            raise ConfigError(f"executor {self.executor} out of range")
        if self.machine == self.executor:
            raise ConfigError(
                f"machine {self.machine} cannot execute its own kill"
            )
        if not self.dests:
            raise ConfigError("evacuation needs at least one destination")
        for dest in self.dests:
            if not 0 <= dest < machines:
                raise ConfigError(f"evacuation dest {dest} out of range")
            if dest == self.machine:
                raise ConfigError(
                    f"evacuation dest {dest} is the machine being drained"
                )


Action = Union[CrashMachine, Partition, FlakyLinks, MigrationStorm,
               Evacuation]

#: actions safe under sharded execution.  Storms are per-machine
#: anchored loop events; crashes and evacuation kills run as
#: barrier-aligned global actions (grid-aligned times, key-ordered —
#: see :meth:`~repro.core.cluster.Cluster.call_at_barrier`).
#: Partitions and flaky windows stay classic-only: they rewrite wire
#: fault plans retroactively, which the sharded network refuses.
SHARD_SAFE_ACTIONS = (MigrationStorm, CrashMachine, Evacuation)


@dataclass(frozen=True)
class ChaosScenario:
    """A named, validated schedule of failure actions."""

    name: str
    actions: tuple[Action, ...]

    def validate(self, machines: int) -> None:
        """Raise :class:`ConfigError` on an inconsistent schedule."""
        if not self.name:
            raise ConfigError("a scenario needs a name")
        crashed: dict[MachineId, int] = {}
        for action in self.actions:
            action.check(machines)
            if isinstance(action, CrashMachine):
                if action.machine in crashed:
                    raise ConfigError(
                        f"machine {action.machine} is crashed twice "
                        f"(at {crashed[action.machine]} and {action.at})"
                    )
                crashed[action.machine] = action.at
            if isinstance(action, Evacuation):
                if action.machine in crashed:
                    raise ConfigError(
                        f"machine {action.machine} is crashed twice "
                        f"(at {crashed[action.machine]} and "
                        f"{action.kill_at})"
                    )
                crashed[action.machine] = action.kill_at
        # A machine that is dead by time T cannot execute a crash at T.
        for action in self.actions:
            if isinstance(action, CrashMachine):
                executor, at = action.executor, action.at
            elif isinstance(action, Evacuation):
                executor, at = action.executor, action.kill_at
            else:
                continue
            died_at = crashed.get(executor)
            if died_at is not None and died_at <= at:
                raise ConfigError(
                    f"executor {executor} is already dead "
                    f"(crashed at {died_at}) when needed at {at}"
                )

    @property
    def shard_safe(self) -> bool:
        """Whether every action can run on a sharded system."""
        return all(
            isinstance(action, SHARD_SAFE_ACTIONS)
            for action in self.actions
        )

    def fault_schedule(self) -> list[tuple[int, str, str]]:
        """The static ``(time, kind, detail)`` schedule this scenario
        will inject, sorted canonically.

        A pure function of the scenario — the determinism reference the
        property suite compares engine ledgers against.
        """
        return sorted(self._schedule_entries())

    def _schedule_entries(self) -> Iterator[tuple[int, str, str]]:
        for action in self.actions:
            if isinstance(action, CrashMachine):
                yield (
                    action.at, "crash",
                    f"machine {action.machine} -> executor "
                    f"{action.executor}"
                    + ("" if action.protect else " (unprotected)"),
                )
            elif isinstance(action, Partition):
                cut = (f"{sorted(action.group_a)} | "
                       f"{sorted(action.group_b)}")
                yield action.at, "partition", cut
                yield action.heal_at, "heal", cut
            elif isinstance(action, FlakyLinks):
                where = (
                    "all wires" if action.pairs is None
                    else f"{len(action.pairs)} wire pair(s)"
                )
                yield action.at, "flaky", where
                yield action.until, "flaky-end", where
            elif isinstance(action, MigrationStorm):
                for move in action.moves:
                    yield (
                        action.at, "storm-move",
                        f"{move.pid} {move.home} -> {move.dest}",
                    )
            elif isinstance(action, Evacuation):
                yield (
                    action.drain_at, "drain",
                    f"machine {action.machine} -> {list(action.dests)}",
                )
                yield (
                    action.kill_at, "maintenance-kill",
                    f"machine {action.machine} -> executor "
                    f"{action.executor}",
                )
