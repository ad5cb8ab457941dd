"""Declarative chaos scenarios.

A :class:`Scenario` is a whole chaos experiment as pure data — system
shape, echo servers, the workload (pingers or a closed-loop pool), a
schedule of flat :class:`ActionSpec` actions, the engines to run it on
and what its counters must show.  Every campaign scenario and every
fuzz draw is one; :func:`repro.chaos.runner.run_scenario` runs it, and
it round-trips through JSON (the fuzzer's repro files).

Scenarios are *data*: everything is pinned at build time (absolute
simulated times, explicit machines, server indices for storm victims),
so the fault schedule is a pure function of the record — the
determinism property the Hypothesis suite gates.  The
:class:`~repro.chaos.engine.ChaosEngine` interprets the specs against a
live :class:`~repro.core.cluster.Cluster` — every action on every
engine; a sharded cluster only adds the barrier-schedule rules.

Action kinds (``ActionSpec.kind``):

- ``crash`` — fail-stop ``machine`` at ``at``; everything resident is
  saved to stable storage first and recovered on ``executor`` (paper
  §1/§4 stable-storage recovery);
- ``partition`` — sever every wire between ``group_a`` and ``group_b``
  from ``at`` until ``until`` (the reliable transport retransmits
  across the cut, so delivery resumes exactly-once);
- ``flaky`` — a lossy/jittery window on every wire from ``at`` until
  ``until``;
- ``storm`` — many simultaneous forced migrations, each move
  ``(server index, dest)`` anchored at that server's home machine
  (skip-or-start is a per-machine decision, which keeps storms
  shard-layout independent);
- ``evacuate`` — drain ``machine`` at ``at`` by migrating everything
  off it round-robin onto ``dests`` (the kernel refuses inbound
  migrations while draining), then fail it onto ``executor`` at the
  scheduled "maintenance" kill ``until``.

Where a server lives after each action is one rule,
:func:`advance_homes`, shared by validation, the engine, the static
schedule and the fuzzer's generator.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from typing import Any, Iterator, NamedTuple, Sequence

from repro.core.config import SystemConfig
from repro.errors import ConfigError
from repro.kernel.ids import ProcessId
from repro.net.channel import FaultPlan
from repro.net.topology import MachineId
from repro.sim.shard import partition_machines, shard_alignment

#: fault-schedule kinds that fire as *global* actions
#: (:meth:`~repro.core.cluster.Cluster.call_at_barrier`): a crash
#: mutates several shards at once, and wire surgery rewrites the fault
#: plan of wires owned by every shard.  Storm moves and drains are loop
#: events anchored to one machine.
BARRIER_KINDS = frozenset({
    "crash", "maintenance-kill", "partition", "heal", "flaky", "flaky-end",
})

#: the wire-surgery kinds, as validation names their windows
_WINDOWS = {"partition": "partition", "flaky": "flaky window"}


@dataclass(frozen=True)
class ActionSpec:
    """One chaos action, described over server *indices* and machines.

    Pure data (no pids, no objects): the same spec runs against any
    freshly built system, which is what makes scenarios replayable and
    shrinkable.  Unused fields keep their defaults, so specs of every
    kind share one JSON shape.
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


def advance_homes(
    homes: list[MachineId], spec: ActionSpec
) -> list[tuple[int, MachineId, MachineId]]:
    """The one server-home rule: move *homes* (server index → machine)
    across *spec*, in place.

    A crash moves the servers on its machine to the executor, an
    evacuation to its first destination (drained residents go
    round-robin onto the dests; the first is where server homes are
    tracked), and a storm moves each named server to its move's
    destination.  Returns the storm's moves as ``(server index, home,
    dest)``, each anchored where the server was when the storm fired —
    recomputed from whatever actions remain, so it stays right after
    the shrinker drops earlier ones.
    """
    if spec.kind in ("crash", "evacuate"):
        takeover = spec.executor if spec.kind == "crash" else spec.dests[0]
        homes[:] = [takeover if h == spec.machine else h for h in homes]
        return []
    moves = []
    if spec.kind == "storm":
        for sidx, dest in spec.moves:
            moves.append((sidx, homes[sidx], dest))
            homes[sidx] = dest
    return moves


class Edge(NamedTuple):
    """One fault the schedule injects: its time, ledger kind and
    detail, the action it belongs to and, for a storm move, the
    anchored ``(server index, home, dest)``."""

    at: int
    kind: str
    detail: str
    spec: ActionSpec
    move: tuple[int, MachineId, MachineId] | None = None


def _check_action(spec: ActionSpec, machines: int, servers: int) -> None:
    """The checks one action passes on its own, against *machines*
    machines and *servers* echo servers."""
    kind = spec.kind
    if kind == "crash":
        if not 0 <= spec.machine < machines:
            raise ConfigError(f"crash machine {spec.machine} out of range")
        if not 0 <= spec.executor < machines:
            raise ConfigError(f"executor {spec.executor} out of range")
        if spec.machine == spec.executor:
            raise ConfigError(
                f"machine {spec.machine} cannot be its own crash executor"
            )
        if spec.at < 0:
            raise ConfigError("crash time must be non-negative")
    elif kind == "evacuate":
        if not 0 <= spec.at < spec.until:
            raise ConfigError(
                f"evacuation window [{spec.at}, {spec.until}) "
                f"is empty or negative"
            )
        if not 0 <= spec.machine < machines:
            raise ConfigError(
                f"evacuated machine {spec.machine} out of range"
            )
        if not 0 <= spec.executor < machines:
            raise ConfigError(f"executor {spec.executor} out of range")
        if spec.machine == spec.executor:
            raise ConfigError(
                f"machine {spec.machine} cannot execute its own kill"
            )
        if not spec.dests:
            raise ConfigError("evacuation needs at least one destination")
        for dest in spec.dests:
            if not 0 <= dest < machines:
                raise ConfigError(f"evacuation dest {dest} out of range")
            if dest == spec.machine:
                raise ConfigError(
                    f"evacuation dest {dest} is the machine being drained"
                )
    elif kind == "storm":
        if spec.at < 0:
            raise ConfigError("storm time must be non-negative")
        if not spec.moves:
            raise ConfigError("a migration storm needs at least one move")
        for sidx, dest in spec.moves:
            if not 0 <= sidx < servers:
                raise ConfigError(
                    f"storm move server index {sidx} out of range"
                )
            if not 0 <= dest < machines:
                raise ConfigError(f"storm dest {dest} out of range")
    elif kind == "partition":
        if not spec.group_a or not spec.group_b:
            raise ConfigError("a partition needs two non-empty groups")
        overlap = set(spec.group_a) & set(spec.group_b)
        if overlap:
            raise ConfigError(
                f"partition groups overlap on machines {sorted(overlap)}"
            )
        for m in (*spec.group_a, *spec.group_b):
            if not 0 <= m < machines:
                raise ConfigError(f"partition machine {m} out of range")
        if not 0 <= spec.at < spec.until:
            raise ConfigError(
                f"partition window [{spec.at}, {spec.until}) is empty "
                f"or negative"
            )
    elif kind == "flaky":
        if not 0 <= spec.at < spec.until:
            raise ConfigError(
                f"flaky window [{spec.at}, {spec.until}) is empty "
                f"or negative"
            )
        _check_faults(spec.drop_permille, spec.jitter, "flaky window")
    else:
        raise ConfigError(f"unknown action kind {kind!r}")


def _check_faults(drop_permille: int, jitter: int, where: str) -> None:
    """A wire fault plan's two numbers, on the record or a flaky spec."""
    if not 0 <= drop_permille <= 1000:
        raise ConfigError(
            f"{where} drop_permille {drop_permille} is not in 0..1000"
        )
    if jitter < 0:
        raise ConfigError(f"{where} jitter {jitter} is negative")


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

    def config(self, shards: int) -> SystemConfig:
        """The system this record runs on engine variant *shards* (0:
        the classic single loop)."""
        return SystemConfig(
            machines=self.machines,
            topology=self.topology,
            latency=self.latency,
            seed=self.seed,
            shards=max(shards, 1),
            faults=FaultPlan(
                drop_probability=self.drop_permille / 1000,
                max_jitter=self.jitter,
            ),
            trace_categories=None if self.observe else (),
            metrics_enabled=self.observe,
        )

    def validate(self) -> None:
        """Raise :class:`ConfigError` if the record cannot run: the
        workload's ranges, the engine list, the system config of every
        engine, then :meth:`check_schedule` (barrier rules included
        when sharded)."""
        for sidx, client in self.pingers:
            if not 0 <= sidx < len(self.servers):
                raise ConfigError(f"pinger server index {sidx} out of range")
            if not 0 <= client < self.machines:
                raise ConfigError(f"pinger machine {client} out of range")
        if self.pingers and self.rounds < 1:
            raise ConfigError("a schedule needs at least one pinger round")
        if self.pinger_start < 0:
            raise ConfigError(f"pinger_start {self.pinger_start} is negative")
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
        for key, op, _ in self.expect:
            if op not in (">=", "=="):
                raise ConfigError(f"expectation on {key}: unknown op {op!r}")
        _check_faults(self.drop_permille, self.jitter, "background")
        for shards in self.engines:
            config = self.config(shards)
            config.validate()
            if shards > 1:
                partition_machines(
                    list(range(self.machines)), shards,
                    shard_alignment(config),
                )
        grid = self.latency if self.sharded else None
        self.check_schedule(self.machines, grid)

    def check_schedule(self, machines: int, grid: int | None = None) -> None:
        """Raise :class:`ConfigError` on a schedule *machines* machines
        cannot run, or one a cluster with barrier grid *grid* cannot.

        The one validation path: :meth:`validate` runs it for the
        record, :class:`~repro.chaos.engine.ChaosEngine` for the cluster
        it is handed.  Where there is a grid (a sharded cluster),
        barrier actions (:data:`BARRIER_KINDS`: crashes, maintenance
        kills and both edges of every partition and flaky window) must
        sit on the grid and be unique among the scenario's action
        times: the single loop runs such an action first at its tick
        because it is scheduled at install time, the barrier engine
        runs it before the window that contains it, and distinct times
        keep the two orderings identical.
        """
        if not self.name:
            raise ConfigError("a scenario needs a name")
        for home in self.servers:
            if not 0 <= home < machines:
                raise ConfigError(f"server home {home} out of range")
        homes = list(self.servers)
        crashed: dict[MachineId, int] = {}
        for spec in self.actions:
            _check_action(spec, machines, len(homes))
            for sidx, home, dest in advance_homes(homes, spec):
                if home == dest:
                    raise ConfigError(
                        f"storm move for server {sidx} goes nowhere "
                        f"(home == dest == {home})"
                    )
            if spec.kind in ("crash", "evacuate"):
                died_at = _death(spec)
                if spec.machine in crashed:
                    raise ConfigError(
                        f"machine {spec.machine} is crashed twice "
                        f"(at {crashed[spec.machine]} and {died_at})"
                    )
                crashed[spec.machine] = died_at
        # A machine that is dead by time T cannot execute a crash at T.
        for spec in self.actions:
            if spec.kind not in ("crash", "evacuate"):
                continue
            at, died_at = _death(spec), crashed.get(spec.executor)
            if died_at is not None and died_at <= at:
                raise ConfigError(
                    f"executor {spec.executor} is already dead "
                    f"(crashed at {died_at}) when needed at {at}"
                )
        # Each window rewrites wire fault plans and its end restores
        # them, so a window opening inside another would be undone (or
        # would undo the other) early.
        windows = sorted(
            (spec.at, spec.until,
             f"{_WINDOWS[spec.kind]} [{spec.at}, {spec.until})")
            for spec in self.actions if spec.kind in _WINDOWS
        )
        for (_, end, first), (start, _, second) in zip(
            windows, windows[1:]
        ):
            if start <= end:
                raise ConfigError(
                    f"{first} and {second} overlap; a wire-surgery "
                    f"window must start after the previous one has ended"
                )
        if grid is None:
            return
        edges = list(self.edges())
        times = Counter(edge.at for edge in edges)
        for at, kind, detail, _, _ in edges:
            if kind not in BARRIER_KINDS:
                continue
            if at % grid:
                raise ConfigError(
                    f"{kind} ({detail}) at t={at} is off the {grid}us "
                    f"grid; sharded crashes and wire surgery fire at "
                    f"barriers between windows, so their times must sit "
                    f"on the window grid"
                )
            if times[at] > 1:
                raise ConfigError(
                    f"{kind} ({detail}) at t={at} collides with another "
                    f"action's time; sharded barrier-action times must be "
                    f"unique so the classic and barrier engines order "
                    f"same-tick work identically"
                )

    def edges(self, pids: Sequence[ProcessId] = ()) -> Iterator[Edge]:
        """Every fault the actions inject, in action order — the order
        the engine schedules them in.

        A storm move's detail names the moving process: ``pids[i]`` for
        server *i*, or ``server i`` without *pids*.
        """
        homes = list(self.servers)
        for spec in self.actions:
            kind, at = spec.kind, spec.at
            moves = advance_homes(homes, spec)
            kill = f"machine {spec.machine} -> executor {spec.executor}"
            if kind == "crash":
                yield Edge(at, "crash", kill, spec)
            elif kind == "evacuate":
                drain = f"machine {spec.machine} -> {list(spec.dests)}"
                yield Edge(at, "drain", drain, spec)
                yield Edge(spec.until, "maintenance-kill", kill, spec)
            elif kind == "storm":
                for move in moves:
                    sidx, home, dest = move
                    who = pids[sidx] if pids else f"server {sidx}"
                    yield Edge(
                        at, "storm-move", f"{who} {home} -> {dest}",
                        spec, move,
                    )
            elif kind == "partition":
                where = f"{sorted(spec.group_a)} | {sorted(spec.group_b)}"
                yield Edge(at, "partition", where, spec)
                yield Edge(spec.until, "heal", where, spec)
            else:  # flaky
                yield Edge(at, "flaky", "all wires", spec)
                yield Edge(spec.until, "flaky-end", "all wires", spec)

    def fault_schedule(
        self, pids: Sequence[ProcessId]
    ) -> list[tuple[int, str, str]]:
        """The static ``(time, kind, detail)`` schedule this scenario
        will inject with server *i* running as ``pids[i]``, sorted
        canonically.

        A pure function of the record — the determinism reference the
        property suite compares engine ledgers against.
        """
        return sorted(edge[:3] for edge in self.edges(pids))

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


def _death(spec: ActionSpec) -> int:
    """When a crash or evacuation's machine dies."""
    return spec.at if spec.kind == "crash" else spec.until


def _tuples(value: Any) -> Any:
    """JSON lists back to the record's tuples, at any depth."""
    if isinstance(value, list):
        return tuple(_tuples(item) for item in value)
    return value
