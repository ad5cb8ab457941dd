"""Seeded chaos fuzzing: random valid scenario schedules + shrinking.

The campaign (:mod:`repro.chaos.campaign`) gates a handful of scripted
scenarios; this module *searches* the scenario space.  A
:class:`FuzzSchedule` is a pure-data description of one randomized
experiment — system shape, echo servers, pingers, and a schedule of
chaos actions — drawn from one named RNG stream
(``fuzz/schedule/<index>``), so schedule *i* under root seed *s* is the
same schedule forever, regardless of how many runs came before it.

Running a schedule (:func:`run_schedule`) builds a fresh system per
engine variant, lets the :class:`~repro.chaos.engine.ChaosEngine`
interpret the materialized scenario under live pinger traffic, and
gates the survivor invariants at quiescence.  Schedules drawn as
*sharded* carry only shard-safe actions on grid-aligned times and run
three ways — classic :class:`~repro.core.system.System`,
``ShardedSystem(shards=1)`` and ``shards=2`` — with every merged
counter and the fault ledger compared byte-for-byte: the conservative-
PDES parity argument is an oracle the fuzzer checks on every draw, not
just on the scripted parity scenarios.

A violating schedule is minimized by :func:`shrink` (greedy delta
debugging over the schedule's pure data: drop actions, drop storm
moves, drop pingers, halve rounds — every candidate re-validated before
it is tried) and written as a replayable JSON repro file.  Confirmed
repros are promoted into ``tests/chaos/regressions/``, where a loader
test replays every file and asserts the violation stays fixed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.chaos.campaign import (
    ledger_digest,
    pingers_completed,
    protocol_counters,
)
from repro.chaos.engine import ChaosEngine, FaultEvent
from repro.chaos.invariants import survivor_invariants
from repro.chaos.scenario import (
    ChaosScenario,
    CrashMachine,
    Evacuation,
    FlakyLinks,
    MigrationStorm,
    Move,
    Partition,
)
from repro.core.config import SystemConfig
from repro.core.system import System
from repro.errors import ConfigError, SimulationError
from repro.kernel.ids import ProcessId
from repro.net.channel import FaultPlan
from repro.sim.rng import RandomStreams
from repro.sim.shard import ShardedSystem
from repro.workloads.pingpong import echo_server, pinger
from repro.workloads.results import ResultsBoard

#: every fuzzed system uses this wire latency — it is the sharded
#: window grid, so the action-time slot scheme below is grid-aware by
#: construction.
LATENCY = 1_000

#: first action slot and slot spacing (one action per slot; spacing is
#: generous so storms finish their migrations before the next fault).
SLOT_BASE = 20_000
SLOT_SPACING = 15_000

#: loop-scheduled actions (storms, drains) sit off the window grid so
#: they can never collide with a barrier action's time.
OFFGRID = 37

#: pinger spawn times: off-grid, unique, before the first action slot.
PINGER_BASE = 10_000

#: simulated-time bound for sharded drains (the sharded runner has no
#: event budget; a wire livelock advances time, so a horizon bounds it).
HORIZON = 5_000_000

#: file format version stamped into repro files.
REPRO_VERSION = 1


# ---------------------------------------------------------------------
# Schedule data model
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class ActionSpec:
    """One chaos action, described over server *indices* and machines.

    Pure data (no pids, no objects): the same spec materializes against
    any freshly built system, which is what makes schedules replayable
    and shrinkable.  Unused fields keep their defaults, so specs of
    every kind share one JSON shape.
    """

    kind: str                      # crash|storm|evacuate|partition|flaky
    at: int
    machine: int = -1              # crash victim / evacuated machine
    executor: int = -1
    until: int = -1                # heal_at / flaky end / kill_at
    group_a: tuple[int, ...] = ()
    group_b: tuple[int, ...] = ()
    moves: tuple[tuple[int, int], ...] = ()   # (server index, dest)
    dests: tuple[int, ...] = ()    # evacuation destinations
    drop_permille: int = 0         # flaky drop probability * 1000
    jitter: int = 0                # flaky max jitter


@dataclass(frozen=True)
class FuzzSchedule:
    """One randomized experiment, drawn from ``fuzz/schedule/<index>``."""

    seed: int                      # fuzzer root seed
    index: int                     # draw number under that seed
    system_seed: int
    machines: int
    topology: str
    sharded: bool                  # run the 3-way engine parity oracle
    servers: tuple[int, ...]       # echo server home machines
    pingers: tuple[tuple[int, int], ...]   # (server index, client machine)
    rounds: int
    actions: tuple[ActionSpec, ...]


@dataclass
class FuzzOutcome:
    """What one schedule's run produced."""

    schedule: FuzzSchedule
    counters: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    ledger: list[FaultEvent] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class FuzzReport:
    """One fuzzing session: *runs* schedules under one root seed."""

    seed: int
    runs: int
    digests: list[int] = field(default_factory=list)
    violations: list[FuzzOutcome] = field(default_factory=list)
    repro_paths: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------


def generate_schedule(seed: int, index: int) -> FuzzSchedule:
    """Draw schedule *index* under root *seed*.

    Only the stream ``fuzz/schedule/<index>`` is consumed, so the draw
    is independent of every other schedule — schedule 7 is the same
    whether you ran 8 schedules or 8,000.
    """
    rng = RandomStreams(seed).stream(f"fuzz/schedule/{index}")
    sharded = rng.random() < 0.5
    machines = rng.choice((4, 6, 8))
    topology = "torus" if sharded else rng.choice(("mesh", "torus"))
    server_count = rng.randint(1, min(3, machines - 2))
    servers = tuple(
        rng.randrange(machines) for _ in range(server_count)
    )
    pingers = tuple(
        (s, rng.randrange(machines))
        for s in range(server_count)
        for _ in range(rng.randint(1, 2))
    )
    rounds = rng.randint(2, 5)

    # Machines 0 (control servers) and 1 (file server) never die, so
    # they are always legal executors; further executors are reserved
    # out of the victim pool as they are drawn.  Pinger homes never die
    # either: fail-stop abandons the dead machine's unacked sends (see
    # ReliableTransport.abandon_sends), so a recovered mid-RPC client
    # may wait forever for a reply to a request that died in the dead
    # machine's send buffer — legal under the model, but it makes the
    # completion gate vacuous, so the generator avoids it.
    victims_allowed = set(range(2, machines)) - {
        client for _, client in pingers
    }
    dead: set[int] = set()
    homes = list(servers)
    kinds = ("storm", "crash", "evacuate")
    if not sharded:
        kinds += ("partition", "flaky")
    specs: list[ActionSpec] = []
    for slot in range(rng.randint(1, 4)):
        base = SLOT_BASE + SLOT_SPACING * slot
        kind = rng.choice(kinds)
        alive = [m for m in range(machines) if m not in dead]
        if kind in ("crash", "evacuate"):
            pool = sorted(victims_allowed - dead)
            if not pool:
                continue
            machine = rng.choice(pool)
            executor = rng.choice(
                [m for m in alive if m != machine]
            )
            victims_allowed.discard(executor)
            dead.add(machine)
            if kind == "crash":
                specs.append(ActionSpec(
                    kind="crash", at=base, machine=machine,
                    executor=executor,
                ))
                takeover = executor
            else:
                # The pool can be a single machine (small system, prior
                # deaths), so the draw is clamped to what is available.
                dest_pool = [
                    m for m in alive
                    if m != machine and m != executor
                ]
                dests = tuple(sorted(rng.sample(
                    dest_pool,
                    min(rng.randint(1, 2), len(dest_pool)),
                ))) or (executor,)
                specs.append(ActionSpec(
                    kind="evacuate", at=base + OFFGRID,
                    machine=machine, executor=executor,
                    until=base + 10_000, dests=dests,
                ))
                # Drained residents round-robin onto dests; track the
                # first destination (materialization uses the same rule).
                takeover = dests[0]
            homes = [takeover if h == machine else h for h in homes]
        elif kind == "storm":
            indices = rng.sample(
                range(server_count), rng.randint(1, server_count)
            )
            moves = []
            for sidx in sorted(indices):
                choices = [
                    m for m in alive if m != homes[sidx]
                ]
                if not choices:
                    continue
                dest = rng.choice(choices)
                moves.append((sidx, dest))
                homes[sidx] = dest
            if not moves:
                continue
            specs.append(ActionSpec(
                kind="storm", at=base + OFFGRID, moves=tuple(moves),
            ))
        elif kind == "partition":
            split = rng.sample(alive, len(alive))
            cut = rng.randint(1, len(split) - 1)
            specs.append(ActionSpec(
                kind="partition", at=base + OFFGRID,
                until=base + 8_000,
                group_a=tuple(sorted(split[:cut])),
                group_b=tuple(sorted(split[cut:])),
            ))
        else:  # flaky
            specs.append(ActionSpec(
                kind="flaky", at=base + OFFGRID, until=base + 9_000,
                drop_permille=rng.choice((20, 50)),
                jitter=rng.choice((0, 300)),
            ))
    return FuzzSchedule(
        seed=seed,
        index=index,
        system_seed=rng.randrange(2**32),
        machines=machines,
        topology=topology,
        sharded=sharded,
        servers=servers,
        pingers=pingers,
        rounds=rounds,
        actions=tuple(specs),
    )


# ---------------------------------------------------------------------
# Materialization + validation
# ---------------------------------------------------------------------


def _materialize(
    schedule: FuzzSchedule, pids: list[ProcessId]
) -> ChaosScenario:
    """Turn pure-data specs into a scenario against concrete pids.

    Server homes are tracked through the action sequence with the same
    rules the generator used (storm moves relocate, crash recovery and
    evacuation takeovers relocate), so each storm ``Move`` is anchored
    where the server actually is — and the tracking stays correct after
    the shrinker drops earlier actions, because it is recomputed here
    from whatever actions remain.
    """
    homes = list(schedule.servers)
    actions: list[Any] = []
    for spec in schedule.actions:
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
            homes = [
                spec.dests[0] if h == spec.machine else h for h in homes
            ]
        elif spec.kind == "storm":
            moves = []
            for sidx, dest in spec.moves:
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
    return ChaosScenario(
        f"fuzz-{schedule.seed}-{schedule.index}", tuple(actions),
    )


def validate_schedule(schedule: FuzzSchedule) -> None:
    """Raise :class:`ConfigError` if *schedule* is not runnable.

    Applies every static check its run would hit: scenario validation,
    server/pinger machine ranges, and (for sharded schedules) the
    barrier grid and uniqueness rules the engine enforces.
    """
    fake_pids = [
        ProcessId(creating_machine=0, local_id=i + 1)
        for i in range(len(schedule.servers))
    ]
    scenario = _materialize(schedule, fake_pids)
    scenario.validate(schedule.machines)
    for home in schedule.servers:
        if not 0 <= home < schedule.machines:
            raise ConfigError(f"server home {home} out of range")
    for sidx, client in schedule.pingers:
        if not 0 <= sidx < len(schedule.servers):
            raise ConfigError(f"pinger server index {sidx} out of range")
        if not 0 <= client < schedule.machines:
            raise ConfigError(f"pinger machine {client} out of range")
    if schedule.rounds < 1:
        raise ConfigError("a schedule needs at least one pinger round")
    if not schedule.sharded:
        return
    if schedule.machines % 2:
        raise ConfigError("sharded schedules need an even machine count")
    if not scenario.shard_safe:
        raise ConfigError("sharded schedule contains wire-surgery actions")
    loop_times = set()
    barrier_times = []
    for action in scenario.actions:
        if isinstance(action, CrashMachine):
            barrier_times.append(action.at)
        elif isinstance(action, Evacuation):
            barrier_times.append(action.kill_at)
            loop_times.add(action.drain_at)
        elif isinstance(action, MigrationStorm):
            loop_times.add(action.at)
    seen: set[int] = set()
    for at in barrier_times:
        if at % LATENCY:
            raise ConfigError(
                f"barrier action at t={at} is off the {LATENCY}us grid"
            )
        if at in seen or at in loop_times:
            raise ConfigError(f"barrier action time t={at} collides")
        seen.add(at)


# ---------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------


def _run_once(
    schedule: FuzzSchedule, shards: int, budget: int
) -> tuple[dict[str, int], list[FaultEvent], list[str]]:
    """Run *schedule* on one engine variant (``shards=0`` = classic)."""
    config = SystemConfig(
        machines=schedule.machines,
        topology=schedule.topology,
        latency=LATENCY,
        seed=schedule.system_seed,
        shards=shards or 1,
        trace_categories=(),
        metrics_enabled=False,
    )
    system = ShardedSystem(config) if shards else System(config)
    pids = []
    for sidx, home in enumerate(schedule.servers):
        name = f"fuzz-echo-{sidx}"
        pids.append(system.spawn(
            lambda ctx, _n=name: echo_server(ctx, service_name=_n),
            machine=home, name=name,
        ))
    engine = ChaosEngine(system, _materialize(schedule, pids))
    engine.install()

    # One board serves every shard: the ledger already pins chaos runs
    # to the serial executor, where all shards share this process.
    board = ResultsBoard()
    for j, (sidx, client) in enumerate(schedule.pingers):
        system.schedule_spawn(
            PINGER_BASE + OFFGRID + 500 * j,
            client,
            lambda ctx, _j=j, _s=sidx: pinger(
                ctx, service_name=f"fuzz-echo-{_s}",
                rounds=schedule.rounds, gap=8_000,
                board=board, key=f"ping-{_j}",
            ),
            name=f"pinger-{j}",
        )

    problems: list[str] = []
    # The hang guard is the one engine-dependent step left: the runner
    # is bounded by a simulated horizon, the single loop by an event
    # budget (ROADMAP "Close the carve-outs").
    if shards:
        system.run(until=HORIZON)
        if not system.quiescent():
            problems.append(
                f"system not quiescent at the {HORIZON}us horizon"
            )
    else:
        fired = system.run(max_events=budget)
        if fired >= budget:
            problems.append(
                f"simulation did not quiesce within {budget} events"
            )

    counters = protocol_counters(system)
    for kind, count in sorted(engine.counts.items()):
        counters[f"faults.{kind}"] = count
    ledger = engine.ledger()
    counters["ledger_events"] = len(ledger)
    counters["ledger_digest"] = ledger_digest(ledger)

    if not problems:
        problems += survivor_invariants(system, recovery=engine.recovery)
    completed = pingers_completed(
        board, len(schedule.pingers), schedule.rounds, problems
    )
    counters["pingers_done"] = completed
    if completed != len(schedule.pingers):
        problems.append(
            f"{completed}/{len(schedule.pingers)} pingers completed"
        )
    return counters, ledger, problems


def run_schedule(
    schedule: FuzzSchedule, budget: int = 2_000_000
) -> FuzzOutcome:
    """Run *schedule* on every engine variant it selects and gate it.

    Classic-only schedules run once.  Sharded schedules run classic,
    ``shards=1`` and ``shards=2``, and any divergence in the merged
    counters or the fault ledger is itself a violation — the parity
    oracle.  An exception anywhere (the middle-hop forwarding cycle
    manifested as a ``RecursionError``) is converted into a violation
    so the shrinker can minimize crash-inducing schedules too.
    """
    outcome = FuzzOutcome(schedule)
    variants = (0, 1, 2) if schedule.sharded else (0,)
    results: dict[int, tuple[dict[str, int], list[FaultEvent]]] = {}
    for shards in variants:
        label = f"shards={shards}" if shards else "classic"
        try:
            counters, ledger, problems = _run_once(
                schedule, shards, budget
            )
        except Exception as error:  # noqa: BLE001 — fuzzing boundary
            outcome.problems.append(
                f"({label}) exception: "
                f"{type(error).__name__}: {error}"
            )
            continue
        results[shards] = (counters, ledger)
        outcome.problems += [f"({label}) {p}" for p in problems]
    if 0 in results:
        outcome.counters, outcome.ledger = results[0]
    for shards in variants[1:]:
        if 0 not in results or shards not in results:
            continue
        counters, ledger = results[shards]
        reference = results[0][0]
        if counters != reference:
            diverged = {
                key: (reference.get(key), counters.get(key))
                for key in set(reference) | set(counters)
                if reference.get(key) != counters.get(key)
            }
            outcome.problems.append(
                f"classic vs shards={shards} counters diverged: "
                f"{diverged}"
            )
        if ledger != results[0][1]:
            outcome.problems.append(
                f"classic vs shards={shards} fault ledgers diverged"
            )
    return outcome


# ---------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------


def _candidates(schedule: FuzzSchedule) -> Iterator[FuzzSchedule]:
    """Strictly smaller schedules, biggest cuts first."""
    from dataclasses import replace

    for i in range(len(schedule.actions)):
        yield replace(schedule, actions=(
            schedule.actions[:i] + schedule.actions[i + 1:]
        ))
    for i, spec in enumerate(schedule.actions):
        if spec.kind != "storm" or len(spec.moves) < 2:
            continue
        for j in range(len(spec.moves)):
            smaller = replace(
                spec, moves=spec.moves[:j] + spec.moves[j + 1:],
            )
            yield replace(schedule, actions=(
                schedule.actions[:i] + (smaller,)
                + schedule.actions[i + 1:]
            ))
    for i in range(len(schedule.pingers)):
        yield replace(schedule, pingers=(
            schedule.pingers[:i] + schedule.pingers[i + 1:]
        ))
    if schedule.rounds > 1:
        yield replace(schedule, rounds=schedule.rounds // 2)


def shrink(
    schedule: FuzzSchedule,
    still_fails: Callable[[FuzzSchedule], bool],
    max_attempts: int = 64,
) -> FuzzSchedule:
    """Greedy delta debugging: keep the smallest still-failing schedule.

    Each candidate drops one component (action, storm move, pinger) or
    halves the pinger rounds; invalid candidates are skipped without
    spending an attempt.  *still_fails* is the caller's violation
    predicate (typically ``lambda s: not run_schedule(s).ok``).
    """
    current = schedule
    attempts = 0
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for candidate in _candidates(current):
            if attempts >= max_attempts:
                break
            try:
                validate_schedule(candidate)
            except (ConfigError, SimulationError):
                continue
            attempts += 1
            if still_fails(candidate):
                current = candidate
                improved = True
                break
    return current


# ---------------------------------------------------------------------
# Repro files
# ---------------------------------------------------------------------


def schedule_to_json(schedule: FuzzSchedule) -> dict[str, Any]:
    """A JSON-safe dict; :func:`schedule_from_json` inverts it exactly."""
    return {
        "seed": schedule.seed,
        "index": schedule.index,
        "system_seed": schedule.system_seed,
        "machines": schedule.machines,
        "topology": schedule.topology,
        "sharded": schedule.sharded,
        "servers": list(schedule.servers),
        "pingers": [list(p) for p in schedule.pingers],
        "rounds": schedule.rounds,
        "actions": [
            {
                "kind": spec.kind,
                "at": spec.at,
                "machine": spec.machine,
                "executor": spec.executor,
                "until": spec.until,
                "group_a": list(spec.group_a),
                "group_b": list(spec.group_b),
                "moves": [list(m) for m in spec.moves],
                "dests": list(spec.dests),
                "drop_permille": spec.drop_permille,
                "jitter": spec.jitter,
            }
            for spec in schedule.actions
        ],
    }


def schedule_from_json(data: dict[str, Any]) -> FuzzSchedule:
    """Rebuild a :class:`FuzzSchedule` from its JSON dict."""
    return FuzzSchedule(
        seed=data["seed"],
        index=data["index"],
        system_seed=data["system_seed"],
        machines=data["machines"],
        topology=data["topology"],
        sharded=data["sharded"],
        servers=tuple(data["servers"]),
        pingers=tuple(tuple(p) for p in data["pingers"]),
        rounds=data["rounds"],
        actions=tuple(
            ActionSpec(
                kind=spec["kind"],
                at=spec["at"],
                machine=spec["machine"],
                executor=spec["executor"],
                until=spec["until"],
                group_a=tuple(spec["group_a"]),
                group_b=tuple(spec["group_b"]),
                moves=tuple(tuple(m) for m in spec["moves"]),
                dests=tuple(spec["dests"]),
                drop_permille=spec["drop_permille"],
                jitter=spec["jitter"],
            )
            for spec in data["actions"]
        ),
    )


def write_repro(
    path: str | Path,
    schedule: FuzzSchedule,
    problems: list[str],
    note: str = "",
) -> Path:
    """Write a replayable repro file for a violating schedule."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": REPRO_VERSION,
        "note": note,
        "violations": problems,
        "schedule": schedule_to_json(schedule),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_repro(path: str | Path) -> FuzzSchedule:
    """Load the schedule out of a repro file.

    The file comes from outside the program: one that is missing,
    unreadable, not JSON or not shaped like a repro is a
    :class:`ConfigError` naming the file, never a traceback.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
        raise ConfigError(f"cannot read repro file {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"repro file {path} is not a JSON object")
    if payload.get("version") != REPRO_VERSION:
        raise ConfigError(
            f"repro file {path} has version "
            f"{payload.get('version')!r}; expected {REPRO_VERSION}"
        )
    try:
        return schedule_from_json(payload["schedule"])
    except (KeyError, TypeError) as exc:
        raise ConfigError(
            f"repro file {path} does not hold a schedule: {exc!r}"
        ) from None


def replay(path: str | Path, budget: int = 2_000_000) -> FuzzOutcome:
    """Re-run a repro file's schedule and return the fresh outcome."""
    return run_schedule(load_repro(path), budget=budget)


# ---------------------------------------------------------------------
# The fuzzing session
# ---------------------------------------------------------------------


def run_fuzz(
    seed: int = 0,
    runs: int = 10,
    budget: int = 2_000_000,
    out_dir: str | Path | None = None,
    shrink_violations: bool = True,
) -> FuzzReport:
    """Draw and run *runs* schedules under *seed*.

    Violating schedules are shrunk (unless disabled) and written as
    repro files under *out_dir* (``fuzz-<seed>-<index>.json``).  The
    report's digest list is the determinism witness: the same seed and
    runs always reproduce the same digests.
    """
    report = FuzzReport(seed=seed, runs=runs)
    for index in range(runs):
        schedule = generate_schedule(seed, index)
        validate_schedule(schedule)
        outcome = run_schedule(schedule, budget=budget)
        report.digests.append(
            outcome.counters.get("ledger_digest", 0)
        )
        if outcome.ok:
            continue
        if shrink_violations:
            smallest = shrink(
                schedule,
                lambda s: not run_schedule(s, budget=budget).ok,
            )
            if smallest is not schedule:
                outcome = run_schedule(smallest, budget=budget)
                outcome.problems = (
                    outcome.problems
                    or [f"shrunk from schedule {index}"]
                )
        report.violations.append(outcome)
        if out_dir is not None:
            path = write_repro(
                Path(out_dir) / f"fuzz-{seed}-{index}.json",
                outcome.schedule,
                outcome.problems,
                note=f"found by run_fuzz(seed={seed}) at index {index}",
            )
            report.repro_paths.append(str(path))
    return report
