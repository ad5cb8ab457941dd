"""Declarative chaos scenarios.

Two records, one above the other:

- a :class:`Scenario` is a whole chaos experiment as pure data — system
  shape, echo servers, the workload (pingers or a closed-loop pool),
  flat :class:`ActionSpec` actions, the engines to run it on and what
  its counters must show.  Every campaign scenario and every fuzz draw
  is one; :func:`repro.chaos.runner.run_scenario` runs it, and it
  round-trips through JSON (the fuzzer's repro files).
- a :class:`ChaosScenario` is a named, validated schedule of failure
  actions against one live system — what :meth:`Scenario.chaos`
  materializes once the servers have pids.

Scenarios are *data*: everything is pinned at build time (absolute
simulated times, explicit machines, explicit victims), so the fault
schedule is a pure function of the scenario — the determinism property
the Hypothesis suite gates.  The :class:`~repro.chaos.engine.ChaosEngine`
interprets a ``ChaosScenario`` against a live
:class:`~repro.core.cluster.Cluster`: all actions on the single-loop
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

from dataclasses import asdict, dataclass, field
from typing import Any, Iterator, Union

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

    def validate(self, machines: int, grid: int | None = None) -> None:
        """Raise :class:`ConfigError` on an inconsistent schedule, or on
        one a cluster with barrier grid *grid* cannot run
        (:meth:`check_barrier_schedule`)."""
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
        if grid is not None:
            self.check_barrier_schedule(grid)

    def check_barrier_schedule(self, grid: int) -> None:
        """The rules a sharded cluster (window grid *grid*) adds.

        Wire surgery is refused: partitions and flaky windows rewrite
        wire fault plans retroactively, which the sharded network
        refuses.  Barrier actions (crashes, maintenance kills) must sit
        on the grid and be unique among the scenario's action times: the
        single loop runs a crash first at its tick because it is
        scheduled at install time, the barrier engine runs it before the
        window that contains it, and distinct times keep the two
        orderings identical.
        """
        if not self.shard_safe:
            raise ConfigError(
                f"scenario {self.name!r} uses wire-surgery actions "
                f"(partition/flaky links) that rewrite wire fault plans, "
                f"which the sharded network refuses; storms, crashes and "
                f"evacuations run under sharding"
            )
        loop_times: set[int] = set()
        barrier_times: list[tuple[int, str]] = []
        for action in self.actions:
            if isinstance(action, CrashMachine):
                barrier_times.append(
                    (action.at, f"crash of machine {action.machine}")
                )
            elif isinstance(action, Evacuation):
                barrier_times.append((
                    action.kill_at,
                    f"maintenance kill of machine {action.machine}",
                ))
                loop_times.add(action.drain_at)
            elif isinstance(action, MigrationStorm):
                loop_times.add(action.at)
        seen: set[int] = set()
        for at, what in barrier_times:
            if at % grid:
                raise ConfigError(
                    f"{what} at t={at} is off the {grid}us grid; sharded "
                    f"crashes fire at barriers between windows, so their "
                    f"times must sit on the window grid"
                )
            if at in seen or at in loop_times:
                raise ConfigError(
                    f"{what} at t={at} collides with another action's "
                    f"time; sharded crash times must be unique so the "
                    f"classic and barrier engines order same-tick work "
                    f"identically"
                )
            seen.add(at)

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


@dataclass(frozen=True)
class ActionSpec:
    """One chaos action, described over server *indices* and machines.

    Pure data (no pids, no objects): the same spec materializes against
    any freshly built system, which is what makes scenarios replayable
    and shrinkable.  Unused fields keep their defaults, so specs of
    every kind share one JSON shape.
    """

    kind: str  # crash|storm|evacuate|partition|flaky
    at: int
    machine: int = -1  # crash victim / evacuated machine
    executor: int = -1
    until: int = -1  # heal_at / flaky end / kill_at
    group_a: tuple[int, ...] = ()
    group_b: tuple[int, ...] = ()
    moves: tuple[tuple[int, int], ...] = ()  # (server index, dest)
    dests: tuple[int, ...] = ()  # evacuation destinations
    drop_permille: int = 0  # flaky drop probability * 1000
    jitter: int = 0  # flaky max jitter


@dataclass(frozen=True)
class Scenario:
    """One chaos experiment as pure data: what a run is built from.

    Names, homes, keys and spawn times are all here, so a run is a pure
    function of the record; the runner
    (:func:`repro.chaos.runner.run_scenario`) adds nothing but the
    fixed workload constants (pingers echo every 8 ms; a pool thinks
    8 ms between requests from t = 2 ms; file streams start at
    t = 4 ms + 1 ms per stream).
    """

    name: str
    machines: int
    seed: int  # the system's root RNG seed
    topology: str = "mesh"
    latency: int = 1_000  # every wire; the window grid when sharded
    drop_permille: int = 0  # background wire loss * 1000
    jitter: int = 0  # background wire jitter
    observe: bool = False  # tracer and metrics registry on
    #: engine variants, first = reference: 0 is the classic single
    #: loop, n > 0 a ShardedSystem with n shards
    engines: tuple[int, ...] = (0,)
    servers: tuple[int, ...] = ()  # echo server homes
    prefix: str = "echo"  # server i serves (and is named) <prefix>-<i>
    pingers: tuple[tuple[int, int], ...] = ()  # (server index, client)
    pinger_start: int = 10_037  # pinger j spawns at start + 500 j
    rounds: int = 0  # per pinger
    clients: int = 0  # closed-loop pool size (0: no pool)
    requests: int = 0  # per pool client
    pool_exclude: tuple[int, ...] = ()  # machines no pool client lives on
    files: tuple[int, ...] = ()  # one verified file stream per machine
    file_ops: int = 0  # operations per file stream
    probe: bool = False  # GC sweep + chain-collapse probe at the end
    actions: tuple[ActionSpec, ...] = ()
    #: ``(counter, op, value)`` the reference run must show, op one of
    #: ``>=``, ``==`` — how a scenario proves its fault actually bit
    expect: tuple[tuple[str, str, int], ...] = ()

    @property
    def sharded(self) -> bool:
        """Whether any engine variant is the sharded engine."""
        return any(self.engines)

    def chaos(self, pids: list[ProcessId]) -> ChaosScenario:
        """Materialize the actions against the servers' concrete pids.

        Server homes are tracked through the action sequence (storm
        moves, crash recovery and evacuation takeovers relocate), so
        each storm ``Move`` is anchored where the server actually is —
        and the tracking stays correct after the shrinker drops earlier
        actions, because it is recomputed from whatever actions remain.
        """
        homes = list(self.servers)
        actions: list[Action] = []
        for spec in self.actions:
            if spec.kind == "crash":
                actions.append(CrashMachine(
                    at=spec.at, machine=spec.machine, executor=spec.executor,
                ))
                homes = [
                    spec.executor if h == spec.machine else h for h in homes
                ]
            elif spec.kind == "evacuate":
                actions.append(Evacuation(
                    drain_at=spec.at, machine=spec.machine,
                    kill_at=spec.until, executor=spec.executor,
                    dests=spec.dests,
                ))
                # Drained residents round-robin onto dests; track the
                # first (an empty dests fails validation below).
                takeover = (*spec.dests, spec.executor)[0]
                homes = [takeover if h == spec.machine else h for h in homes]
            elif spec.kind == "storm":
                moves = []
                for sidx, dest in spec.moves:
                    if not 0 <= sidx < len(pids):
                        raise ConfigError(
                            f"storm move server index {sidx} out of range"
                        )
                    moves.append(Move(
                        pid=pids[sidx], home=homes[sidx], dest=dest,
                    ))
                    homes[sidx] = dest
                actions.append(MigrationStorm(at=spec.at, moves=tuple(moves)))
            elif spec.kind == "partition":
                actions.append(Partition(
                    at=spec.at, heal_at=spec.until,
                    group_a=spec.group_a, group_b=spec.group_b,
                ))
            elif spec.kind == "flaky":
                actions.append(FlakyLinks(
                    at=spec.at, until=spec.until,
                    faults=FaultPlan(
                        drop_probability=spec.drop_permille / 1000,
                        max_jitter=spec.jitter,
                    ),
                ))
            else:
                raise ConfigError(f"unknown action kind {spec.kind!r}")
        return ChaosScenario(self.name, tuple(actions))

    def validate(self) -> None:
        """Raise :class:`ConfigError` if the record cannot run: machine
        ranges, the engines its workload runs on, then the materialized
        schedule's own checks (barrier rules included when sharded)."""
        for home in self.servers:
            if not 0 <= home < self.machines:
                raise ConfigError(f"server home {home} out of range")
        for sidx, client in self.pingers:
            if not 0 <= sidx < len(self.servers):
                raise ConfigError(f"pinger server index {sidx} out of range")
            if not 0 <= client < self.machines:
                raise ConfigError(f"pinger machine {client} out of range")
        if self.pingers and self.rounds < 1:
            raise ConfigError("a schedule needs at least one pinger round")
        for machine in self.files:
            if not 0 <= machine < self.machines:
                raise ConfigError(f"file machine {machine} out of range")
        if not self.engines or min(self.engines) < 0:
            raise ConfigError(
                f"engines {self.engines!r} must name at least one variant "
                f"(0 = classic, n = n shards)"
            )
        widest = max(self.engines)
        if widest > 1 and self.machines % widest:
            raise ConfigError(
                f"{self.machines} machines do not split into {widest} shards"
            )
        if (self.clients or self.probe) and self.engines != (0,):
            raise ConfigError(
                "a closed-loop pool and the sweep-and-probe epilogue run "
                "on the classic engine alone"
            )
        for key, op, _ in self.expect:
            if op not in (">=", "=="):
                raise ConfigError(f"expectation on {key}: unknown op {op!r}")
        fake_pids = [
            ProcessId(creating_machine=0, local_id=i + 1)
            for i in range(len(self.servers))
        ]
        grid = self.latency if self.sharded else None
        self.chaos(fake_pids).validate(self.machines, grid)

    def to_json(self) -> dict[str, Any]:
        """A JSON-safe dict; :meth:`from_json` inverts it exactly."""
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "Scenario":
        """Rebuild a record from its JSON dict (lists back to tuples)."""
        fields = {key: _tuples(value) for key, value in dict(data).items()}
        fields["actions"] = tuple(
            ActionSpec(**{k: _tuples(v) for k, v in dict(spec).items()})
            for spec in fields.get("actions", ())
        )
        return cls(**fields)


def _tuples(value: Any) -> Any:
    """JSON lists back to the record's tuples, at any depth."""
    if isinstance(value, list):
        return tuple(_tuples(item) for item in value)
    return value
