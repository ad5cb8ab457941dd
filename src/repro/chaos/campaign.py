"""Chaos campaigns: scripted failure scenarios with live workloads.

A campaign is a fixed set of scenarios, each run on its own freshly
built system with a closed-loop workload alive throughout, gated at
quiescence by the survivor invariants (:mod:`repro.chaos.invariants`).
Everything is seeded and simulated-time based, so a campaign's gated
counters are byte-identical run to run — the property the e12 benchmark
asserts by literally running the smoke campaign twice.

Scenarios:

- ``crash`` — a migration storm relocates the echo servers, then two
  scripted fail-stop crashes hit machines the storm just moved servers
  onto; everything is protected, so the crashes have survivors that
  keep answering from the executor machines.
- ``partition`` — the mesh splits into two halves mid-workload and
  heals; a lossy/jittery window follows.  The reliable transport's
  retransmissions carry every request across the cut exactly once.
- ``evacuate`` — a machine is drained (maintenance): its residents
  migrate off, inbound migrations are refused, and the scheduled kill
  finds the machine empty — zero casualties, zero recoveries.
- ``fileserver_crash`` — the paper's hardest demo inverted: instead of
  migrating the file server mid-I/O, its machine fail-stops mid-request
  under a mixed echo + verified file workload; stable storage recovers
  it on the executor and every read-after-write stream finishes with
  zero corruption.
- ``storm_parity`` — a forced migration storm over a lossy torus, run
  under ``shards=1`` and ``shards=N`` on the serial executor; every
  merged counter and the fault ledger must be byte-identical.
- ``crash_parity`` — storms plus grid-aligned fail-stop crashes, run
  three ways (classic engine, ``shards=1``, ``shards=2``; the full
  scale adds ``shards=4``): barrier-aligned crash recovery must leave
  every merged counter and the fault ledger byte-identical across all
  engines.

Each scenario ends the same way: drain to quiescence, one forwarding
GC sweep, a two-round probe pinger per service (the behavioral §4
chain-collapse gate: the probe's *second* request forwards at most
once), then the survivor invariants.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

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
from repro.core.cluster import Cluster
from repro.core.config import SystemConfig
from repro.core.system import System
from repro.errors import ConfigError
from repro.net.channel import FaultPlan
from repro.policy.gc import ForwardingSweeper
from repro.policy.recovery import CrashRecoveryManager
from repro.sim.shard import ShardedSystem
from repro.workloads.closed_loop import ClientPool, ClosedLoopConfig
from repro.workloads.pingpong import echo_server, pinger
from repro.workloads.results import ResultsBoard

#: campaign scales (the smoke tier is the CI gate)
SCALES = ("smoke", "full")

#: events a drain is allowed to fire before we call it a hang
MAX_EVENTS = 50_000_000


@dataclass
class ScenarioOutcome:
    """One scenario's deterministic results."""

    name: str
    counters: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    ledger: list[FaultEvent] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class CampaignResult:
    """Everything one campaign produced."""

    scale: str
    outcomes: list[ScenarioOutcome]

    @property
    def counters(self) -> dict[str, int]:
        """Every gated counter, flattened as ``<scenario>.<name>``."""
        flat: dict[str, int] = {}
        for outcome in self.outcomes:
            for key, value in sorted(outcome.counters.items()):
                flat[f"{outcome.name}.{key}"] = value
        return flat

    @property
    def problems(self) -> list[str]:
        """Every invariant violation, prefixed by scenario."""
        return [
            f"[{outcome.name}] {problem}"
            for outcome in self.outcomes
            for problem in outcome.problems
        ]

    @property
    def ok(self) -> bool:
        return not self.problems


def ledger_digest(ledger: list[FaultEvent]) -> int:
    """A stable 32-bit digest of a fault ledger (gateable as a counter)."""
    text = "\n".join(
        f"{event.at} {event.kind} {event.detail}" for event in ledger
    )
    return int(hashlib.sha256(text.encode()).hexdigest()[:8], 16)


def protocol_counters(cluster: Cluster) -> dict[str, int]:
    """The shard-layout-independent protocol counters of a finished
    run: what the parity scenarios and the fuzzer compare across
    engines."""
    kernels = cluster.kernels
    return {
        "processes_spawned": sum(
            k.stats.processes_spawned for k in kernels
        ),
        "messages_delivered": sum(
            k.stats.messages_delivered for k in kernels
        ),
        "messages_forwarded": sum(
            k.stats.messages_forwarded for k in kernels
        ),
        "link_updates_applied": sum(
            k.stats.link_updates_applied for k in kernels
        ),
        "forwarding_entries": sum(
            len(k.forwarding) for k in kernels if not k.crashed
        ),
        "packets_sent": sum(
            shard.network.stats.packets_sent for shard in cluster.shards
        ),
    }


def pingers_completed(
    board: ResultsBoard, keys: int, rounds: int, problems: list[str]
) -> int:
    """How many pingers posted a summary under ``ping-<0..keys-1>``;
    every transcript that is not each round echoed exactly once, in
    order, is appended to *problems*."""
    completed = 0
    for key in range(keys):
        for summary in board.get(f"ping-{key}-summary"):
            completed += 1
            echoes = [t["echo"] for t in summary["transcript"]]
            if echoes != [{"round": r} for r in range(rounds)]:
                problems.append(
                    f"pinger {key} saw replies {echoes} — not "
                    f"exactly-once in order"
                )
    return completed


# ---------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------


def _drain(system: System) -> None:
    fired = system.run(max_events=MAX_EVENTS)
    if fired >= MAX_EVENTS:
        raise RuntimeError("chaos scenario did not quiesce")


def _spawn_servers(
    system: Cluster,
    placements: list[int],
    prefix: str,
) -> dict[str, Any]:
    """One echo server per placement; returns service name -> pid."""
    pids = {}
    for index, machine in enumerate(placements):
        name = f"{prefix}-{index}"
        pids[name] = system.spawn(
            lambda ctx, _n=name: echo_server(ctx, service_name=_n),
            machine=machine,
            name=name,
        )
    return pids


def _probe_chain_collapse(
    system: System,
    services: list[str],
    outcome: ScenarioOutcome,
    machine: int = 0,
) -> None:
    """The behavioral §4 gate, run after quiescence.

    A fresh client's switchboard lookup returns the service's original
    registered address, so its *first* request may chase the whole
    forwarding chain; the reply patches the link, and the *second*
    request must forward at most once.
    """
    board = ResultsBoard()
    for service in services:
        system.spawn(
            lambda ctx, _s=service: pinger(
                ctx, service_name=_s, rounds=2, board=board, key=_s,
            ),
            machine=machine,
            name=f"probe-{service}",
        )
    _drain(system)
    round2_forwards = 0
    for service in services:
        transcript = board.only(f"{service}-summary")["transcript"]
        hops = transcript[1]["request_forwarded"]
        round2_forwards += hops
        if hops > 1:
            outcome.problems.append(
                f"probe of {service}: second request forwarded {hops} "
                f"times (chain did not collapse)"
            )
    outcome.counters["probe_round2_forwards"] = round2_forwards


def _finish_classic(
    system: System,
    engine: ChaosEngine,
    pool: ClientPool,
    services: list[str],
    outcome: ScenarioOutcome,
) -> None:
    """Drain, sweep, probe, gate — the common scenario epilogue."""
    _drain(system)
    ForwardingSweeper(system).sweep_now()
    _probe_chain_collapse(system, services, outcome)
    outcome.ledger = engine.ledger()
    outcome.problems += survivor_invariants(
        system, pool=pool, recovery=engine.recovery,
    )

    snapshot = system.metrics.snapshot()
    counters = outcome.counters
    counters["requests_completed"] = int(
        snapshot.total("workload.requests_completed")
    )
    counters["replies_forwarded"] = int(
        snapshot.total("workload.replies_forwarded")
    )
    counters["reply_mismatches"] = int(
        snapshot.total("workload.reply_mismatches")
    )
    counters["chaos_faults"] = int(snapshot.total("chaos.faults"))
    for kind, count in sorted(engine.counts.items()):
        counters[f"faults.{kind}"] = count
    counters["recovered"] = sum(
        len(r.recovered) for r in engine.crash_reports
    )
    counters["casualties"] = sum(
        len(r.casualties) for r in engine.crash_reports
    )
    counters["migrations_aborted"] = sum(
        r.migrations_aborted for r in engine.crash_reports
    )
    counters["forwarding_entries"] = sum(
        len(k.forwarding) for k in system.kernels if not k.crashed
    )
    counters["messages_forwarded"] = sum(
        k.stats.messages_forwarded for k in system.kernels
    )
    counters["link_updates_applied"] = sum(
        k.stats.link_updates_applied for k in system.kernels
    )
    counters["ledger_events"] = len(outcome.ledger)
    counters["ledger_digest"] = ledger_digest(outcome.ledger)


# ---------------------------------------------------------------------
# Scenario: crash (migration storm + scripted fail-stop crashes)
# ---------------------------------------------------------------------


def run_crash_scenario(scale: str = "smoke") -> ScenarioOutcome:
    """Servers migrate under load, then the machines they landed on
    fail; stable storage recovers everything onto executors."""
    outcome = ScenarioOutcome("crash")
    if scale == "full":
        machines, placements = 12, [2, 3, 6, 7]
        clients, requests = 24, 10
        storm_at, crashes = 45_000, (
            CrashMachine(at=60_000, machine=5, executor=4),
            CrashMachine(at=90_000, machine=9, executor=8),
        )
        dests = [5, 9, 10, 11]
    else:
        machines, placements = 8, [2, 3]
        clients, requests = 8, 6
        storm_at, crashes = 15_000, (
            CrashMachine(at=25_000, machine=5, executor=4),
        )
        dests = [5, 6]
    system = System(SystemConfig(machines=machines, seed=1983))
    pids = _spawn_servers(system, placements, "chaos-echo")
    services = list(pids)
    pool = ClientPool(
        system,
        ClosedLoopConfig(
            clients=clients,
            requests_per_client=requests,
            mean_think_us=8_000,
            start_at=2_000,
        ),
        services=services,
    )
    pool.install()
    moves = tuple(
        Move(pid=pids[name], home=placements[i], dest=dests[i])
        for i, name in enumerate(services)
    )
    scenario = ChaosScenario(
        "crash", (MigrationStorm(at=storm_at, moves=moves),) + crashes,
    )
    engine = ChaosEngine(system, scenario)
    engine.install()
    _finish_classic(system, engine, pool, services, outcome)
    if outcome.counters["recovered"] < 1:
        outcome.problems.append("crashes recovered nothing — the "
                                "scenario missed the workload")
    if outcome.counters["replies_forwarded"] < 1:
        outcome.problems.append("no reply crossed a forwarding chain — "
                                "the storm missed the workload")
    return outcome


# ---------------------------------------------------------------------
# Scenario: partition (split brain that heals, then flaky links)
# ---------------------------------------------------------------------


def run_partition_scenario(scale: str = "smoke") -> ScenarioOutcome:
    """The mesh splits in half mid-workload, heals, then rides out a
    lossy window; retransmission carries every request exactly once."""
    outcome = ScenarioOutcome("partition")
    machines = 8
    clients, requests = (16, 8) if scale == "full" else (8, 4)
    system = System(SystemConfig(machines=machines, seed=1984))
    pids = _spawn_servers(system, [2, 3], "part-echo")
    services = list(pids)
    pool = ClientPool(
        system,
        ClosedLoopConfig(
            clients=clients,
            requests_per_client=requests,
            mean_think_us=8_000,
            start_at=2_000,
        ),
        services=services,
    )
    pool.install()
    scenario = ChaosScenario(
        "partition",
        (
            Partition(
                at=20_000, heal_at=45_000,
                group_a=(0, 1, 2, 3), group_b=(4, 5, 6, 7),
            ),
            FlakyLinks(
                at=50_000, until=90_000,
                faults=FaultPlan(drop_probability=0.05, max_jitter=300),
            ),
        ),
    )
    engine = ChaosEngine(system, scenario)
    engine.install()
    _finish_classic(system, engine, pool, services, outcome)
    if outcome.counters["casualties"] or outcome.counters["recovered"]:
        outcome.problems.append(
            "a pure partition scenario triggered crash recovery"
        )
    return outcome


# ---------------------------------------------------------------------
# Scenario: evacuate (drain via migration, then maintenance kill)
# ---------------------------------------------------------------------


def run_evacuation_scenario(scale: str = "smoke") -> ScenarioOutcome:
    """Scheduled maintenance: drain the machine through migration
    first, refuse inbound moves while draining, then kill it.  A clean
    evacuation has zero casualties and zero recoveries."""
    outcome = ScenarioOutcome("evacuate")
    machines = 8
    clients, requests = (16, 8) if scale == "full" else (6, 4)
    system = System(SystemConfig(machines=machines, seed=1985))
    pids = _spawn_servers(system, [3, 4], "evac-echo")
    services = list(pids)
    pool = ClientPool(
        system,
        ClosedLoopConfig(
            clients=clients,
            requests_per_client=requests,
            mean_think_us=8_000,
            start_at=2_000,
        ),
        services=services,
    )
    pool.install()
    scenario = ChaosScenario(
        "evacuate",
        (
            Evacuation(
                drain_at=30_000, machine=3, kill_at=120_000,
                executor=2, dests=(2, 4, 5),
            ),
            # A forced move INTO the draining machine: must be refused.
            MigrationStorm(
                at=40_000,
                moves=(Move(pid=pids[services[1]], home=4, dest=3),),
            ),
        ),
    )
    engine = ChaosEngine(system, scenario)
    engine.install()
    _finish_classic(system, engine, pool, services, outcome)
    refusals = len(
        system.tracer.records("migrate", "refuse-draining")
    )
    outcome.counters["draining_refusals"] = refusals
    if refusals < 1:
        outcome.problems.append(
            "no migration was refused while draining — the maintenance "
            "flag never engaged"
        )
    if outcome.counters["casualties"]:
        outcome.problems.append(
            f"evacuation kill had "
            f"{outcome.counters['casualties']} casualt(y/ies)"
        )
    if outcome.counters["recovered"]:
        outcome.problems.append(
            f"evacuation kill still recovered "
            f"{outcome.counters['recovered']} process(es) — the drain "
            f"left residents behind"
        )
    return outcome


# ---------------------------------------------------------------------
# Scenario: fileserver_crash (fail-stop the file server mid-request)
# ---------------------------------------------------------------------


def run_fileserver_crash_scenario(scale: str = "smoke") -> ScenarioOutcome:
    """The file server's machine fail-stops while clients are mid-I/O.

    An echo pool and verified read-after-write file streams run
    together; the crash lands inside the file streams, so requests in
    flight to the file server cross the failure.  Stable storage
    recovers the server (files and open handles are process state) on
    the executor, the transport redirect carries the streams there, and
    the gate is the paper's: zero corruption, zero lost operations.
    """
    from repro.workloads.file_clients import file_io_client

    outcome = ScenarioOutcome("fileserver_crash")
    machines = 8
    if scale == "full":
        clients, requests = 12, 8
        file_clients, operations = 4, 8
    else:
        clients, requests = 6, 4
        file_clients, operations = 3, 6
    system = System(SystemConfig(machines=machines, seed=1987))
    fs_machine = system.config.file_system_machine
    pids = _spawn_servers(system, [3, 4], "fsx-echo")
    services = list(pids)
    # No workload client may live on the crash victim: fail-stop
    # abandons the dead machine's unacked sends, so a recovered mid-RPC
    # client could wait forever on a request that died with the machine.
    pool = ClientPool(
        system,
        ClosedLoopConfig(
            clients=clients,
            requests_per_client=requests,
            mean_think_us=8_000,
            start_at=2_000,
        ),
        services=services,
        machines=tuple(
            m for m in range(machines) if m != fs_machine
        ),
    )
    pool.install()
    fboard = ResultsBoard()
    for tag in range(file_clients):
        system.schedule_spawn(
            4_000 + 1_000 * tag,
            5 + (tag % (machines - 5)),
            lambda ctx, _g=tag: file_io_client(
                ctx, tag=_g, operations=operations,
                gap=2_000, board=fboard, key=f"file-{_g}",
            ),
            name=f"file-client-{tag}",
        )
    scenario = ChaosScenario(
        "fileserver_crash",
        (CrashMachine(at=20_000, machine=fs_machine, executor=2),),
    )
    engine = ChaosEngine(system, scenario)
    engine.install()
    _finish_classic(system, engine, pool, services, outcome)

    streams_done = 0
    file_errors = 0
    for tag in range(file_clients):
        for summary in fboard.get(f"file-{tag}"):
            streams_done += 1
            file_errors += len(summary["errors"])
            if summary["errors"]:
                outcome.problems.append(
                    f"file client {tag} saw errors: "
                    f"{summary['errors']}"
                )
            if len(summary["latencies"]) != operations:
                outcome.problems.append(
                    f"file client {tag} lost operations: "
                    f"{len(summary['latencies'])}/{operations}"
                )
    outcome.counters["file_streams_done"] = streams_done
    outcome.counters["file_errors"] = file_errors
    if streams_done != file_clients:
        outcome.problems.append(
            f"{streams_done}/{file_clients} file streams completed"
        )
    if outcome.counters["recovered"] < 1:
        outcome.problems.append(
            "the file server was not recovered — the crash missed it"
        )
    return outcome


# ---------------------------------------------------------------------
# Scenario: storm parity (sharded vs serial, byte-identical)
# ---------------------------------------------------------------------


def _run_storm_once(
    scale: str, shards: int
) -> tuple[dict[str, int], list[FaultEvent], list[str], Any]:
    # Wave spacing: moving a process image over a 1,000 bytes/ms wire
    # takes tens of milliseconds, so consecutive waves must be farther
    # apart than one migration or the next wave finds its victim still
    # IN_MIGRATION and (deterministically) skips it.
    if scale == "full":
        machines = 16
        pingers_per_server, rounds = 2, 10
        storm_times = (18_000, 85_000, 152_000, 219_000)
    else:
        machines = 8
        pingers_per_server, rounds = 1, 8
        storm_times = (18_000, 100_000)
    system = ShardedSystem(SystemConfig(
        machines=machines,
        topology="torus",
        latency=1_000,
        shards=shards,
        seed=1986,
        faults=FaultPlan(drop_probability=0.02, max_jitter=300),
        trace_categories=(),
        metrics_enabled=False,
    ))
    # One board serves every shard: the ledger already pins chaos runs
    # to the serial executor, where all shards share this process.
    board = ResultsBoard()
    pids = {}
    for m in range(machines):
        name = f"storm-echo-{m}"
        pids[m] = system.spawn(
            lambda ctx, _n=name: echo_server(ctx, service_name=_n),
            machine=m, name=name,
        )
    expected_pings = 0
    for m in range(machines):
        for k in range(pingers_per_server):
            system.schedule_spawn(
                10_000 + 500 * (m * pingers_per_server + k),
                (m + 1 + 3 * k) % machines,
                lambda ctx, _m=m: pinger(
                    ctx, service_name=f"storm-echo-{_m}", rounds=rounds,
                    gap=8_000, board=board, key=f"ping-{_m}",
                ),
                name="pinger",
            )
            expected_pings += 1
    # Each storm wave pushes every server half the torus away — always
    # across a shard boundary when shards > 1.
    half = machines // 2
    storms = tuple(
        MigrationStorm(
            at=at,
            moves=tuple(
                Move(pid=pids[m], home=(m + wave * half) % machines,
                     dest=(m + (wave + 1) * half) % machines)
                for m in range(machines)
            ),
        )
        for wave, at in enumerate(storm_times)
    )
    scenario = ChaosScenario("storm_parity", storms)
    engine = ChaosEngine(system, scenario)
    engine.install()
    system.drain()

    counters = protocol_counters(system)
    for kind, count in sorted(engine.counts.items()):
        counters[f"faults.{kind}"] = count
    ledger = engine.ledger()
    counters["ledger_events"] = len(ledger)
    counters["ledger_digest"] = ledger_digest(ledger)

    problems = survivor_invariants(system)
    completed = pingers_completed(board, machines, rounds, problems)
    counters["pingers_done"] = completed
    if completed != expected_pings:
        problems.append(
            f"{completed}/{expected_pings} pingers completed"
        )
    return counters, ledger, problems, system


def run_storm_parity_scenario(scale: str = "smoke") -> ScenarioOutcome:
    """The shard-safe storm, run with shards=1 and shards=N on the
    serial executor: gated counters and fault ledger must match byte
    for byte."""
    outcome = ScenarioOutcome("storm_parity")
    shards = 4 if scale == "full" else 2
    reference, ref_ledger, ref_problems, _ = _run_storm_once(scale, 1)
    sharded, sh_ledger, sh_problems, _ = _run_storm_once(scale, shards)
    outcome.counters = dict(reference)
    outcome.counters["shards"] = shards
    outcome.ledger = ref_ledger
    outcome.problems += ref_problems
    outcome.problems += [f"(shards={shards}) {p}" for p in sh_problems]
    if sharded != reference:
        diverged = {
            key: (reference.get(key), sharded.get(key))
            for key in set(reference) | set(sharded)
            if reference.get(key) != sharded.get(key)
        }
        outcome.problems.append(
            f"shards=1 vs shards={shards} counters diverged: {diverged}"
        )
    if sh_ledger != ref_ledger:
        outcome.problems.append(
            f"shards=1 vs shards={shards} fault ledgers diverged"
        )
    if reference["messages_forwarded"] < 1:
        outcome.problems.append(
            "no message crossed a forwarding address — the storm "
            "missed the live traffic"
        )
    return outcome


# ---------------------------------------------------------------------
# Scenario: crash parity (fail-stop crashes, classic vs sharded)
# ---------------------------------------------------------------------


def _run_crash_parity_once(
    scale: str, shards: int
) -> tuple[dict[str, int], list[FaultEvent], list[str]]:
    """One engine variant of the crash-parity scenario.

    ``shards=0`` builds the classic single-loop :class:`System`;
    anything else builds a :class:`ShardedSystem`.  The schedule is a
    storm that pushes servers onto doomed machines, then grid-aligned
    fail-stop crashes of those machines — ``call_at_barrier`` actions,
    fired between windows on the sharded engine and as ordinary loop
    events on the single loop.
    """
    # The storm's migrations take ~27ms each (process image over a
    # 1,000 bytes/ms wire); the crashes wait until the servers have
    # demonstrably landed on the doomed machines.
    if scale == "full":
        machines, rounds = 16, 10
        placements = [2, 3, 6, 7]
        dests = [5, 9, 10, 11]
        crashes = ((56_000, 5, 4), (72_000, 9, 8))
    else:
        machines, rounds = 8, 8
        placements = [2, 3]
        dests = [5, 6]
        crashes = ((56_000, 5, 4),)
    config = SystemConfig(
        machines=machines,
        topology="torus",
        latency=1_000,
        shards=shards or 1,
        seed=1988,
        trace_categories=(),
        metrics_enabled=False,
    )
    system = ShardedSystem(config) if shards else System(config)
    pids = _spawn_servers(system, placements, "cpar-echo")
    services = list(pids)
    engine = ChaosEngine(system, ChaosScenario("crash_parity", (
        MigrationStorm(at=18_037, moves=tuple(
            Move(pid=pids[name], home=placements[i], dest=dests[i])
            for i, name in enumerate(services)
        )),
    ) + tuple(
        CrashMachine(at=at, machine=machine, executor=executor)
        for at, machine, executor in crashes
    )))
    engine.install()

    # One board serves every shard: the ledger already pins chaos runs
    # to the serial executor, where all shards share this process.
    board = ResultsBoard()
    # Pinger clients live on the low machines — never on a crash victim
    # (fail-stop abandons the victim's unacked sends; see the fuzzer's
    # generator for the same rule).
    for j, service in enumerate(services):
        system.schedule_spawn(
            10_037 + 500 * j,
            j % 4,
            lambda ctx, _s=service, _j=j: pinger(
                ctx, service_name=_s, rounds=rounds, gap=8_000,
                board=board, key=f"ping-{_j}",
            ),
            name=f"pinger-{j}",
        )

    # The hang guard is the one engine-dependent step left: the single
    # loop is bounded by an event budget, the runner has none.
    if shards:
        system.drain()
    elif system.run(max_events=MAX_EVENTS) >= MAX_EVENTS:
        raise RuntimeError("crash-parity run did not quiesce")

    counters = protocol_counters(system)
    counters["recovered"] = sum(
        len(r.recovered) for r in engine.crash_reports
    )
    counters["casualties"] = sum(
        len(r.casualties) for r in engine.crash_reports
    )
    for kind, count in sorted(engine.counts.items()):
        counters[f"faults.{kind}"] = count
    ledger = engine.ledger()
    counters["ledger_events"] = len(ledger)
    counters["ledger_digest"] = ledger_digest(ledger)

    problems = survivor_invariants(system, recovery=engine.recovery)
    completed = pingers_completed(board, len(services), rounds, problems)
    counters["pingers_done"] = completed
    if completed != len(services):
        problems.append(f"{completed}/{len(services)} pingers completed")
    return counters, ledger, problems


def run_crash_parity_scenario(scale: str = "smoke") -> ScenarioOutcome:
    """Fail-stop crashes under traffic, byte-identical on every engine.

    The single loop fires crash times as ordinary events; the
    sharded engine fires them as barrier actions between windows.
    Both must produce the same counters and the same fault ledger for
    every shard count — the sharded-crash parity argument, gated.
    """
    outcome = ScenarioOutcome("crash_parity")
    variants = (0, 1, 2, 4) if scale == "full" else (0, 1, 2)
    reference: dict[str, int] = {}
    ref_ledger: list[FaultEvent] = []
    for shards in variants:
        label = f"shards={shards}" if shards else "classic"
        counters, ledger, problems = _run_crash_parity_once(scale, shards)
        outcome.problems += [f"({label}) {p}" for p in problems]
        if not shards:
            reference, ref_ledger = counters, ledger
            outcome.counters = dict(counters)
            outcome.counters["variants"] = len(variants)
            outcome.ledger = ledger
            continue
        if counters != reference:
            diverged = {
                key: (reference.get(key), counters.get(key))
                for key in set(reference) | set(counters)
                if reference.get(key) != counters.get(key)
            }
            outcome.problems.append(
                f"classic vs {label} counters diverged: {diverged}"
            )
        if ledger != ref_ledger:
            outcome.problems.append(
                f"classic vs {label} fault ledgers diverged"
            )
    if outcome.counters.get("recovered", 0) < 1:
        outcome.problems.append(
            "crashes recovered nothing — the storm missed the victims"
        )
    return outcome


# ---------------------------------------------------------------------
# The campaign
# ---------------------------------------------------------------------

SCENARIOS = {
    "crash": run_crash_scenario,
    "partition": run_partition_scenario,
    "evacuate": run_evacuation_scenario,
    "fileserver_crash": run_fileserver_crash_scenario,
    "storm_parity": run_storm_parity_scenario,
    "crash_parity": run_crash_parity_scenario,
}


def run_campaign(
    scale: str = "smoke",
    scenarios: list[str] | None = None,
) -> CampaignResult:
    """Run the selected scenarios (default: all) at *scale*."""
    if scale not in SCALES:
        raise ConfigError(
            f"unknown campaign scale {scale!r}; choose from {SCALES}"
        )
    names = list(SCENARIOS) if scenarios is None else scenarios
    outcomes = []
    for name in names:
        try:
            runner = SCENARIOS[name]
        except KeyError:
            raise ConfigError(
                f"unknown scenario {name!r}; choose from "
                f"{tuple(SCENARIOS)}"
            ) from None
        outcomes.append(runner(scale))
    return CampaignResult(scale=scale, outcomes=outcomes)
