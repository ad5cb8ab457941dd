"""The one chaos runner: a :class:`~repro.chaos.scenario.Scenario` in,
a :class:`ScenarioOutcome` out, on every engine the record names.

:func:`run_scenario` builds each variant through :func:`build_cluster`
(the one engine-selection line), spawns the record's servers and
workload, installs a :class:`~repro.chaos.engine.ChaosEngine`, drains
under one event budget — the hang guard every engine shares — reads one
counter set and gates the survivor invariants; every variant after the
first must match it counter for counter and ledger for ledger.  The
campaign and the fuzzer both run their records here.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass, field

from repro.chaos.engine import ChaosEngine, FaultEvent
from repro.chaos.invariants import survivor_invariants
from repro.chaos.scenario import Scenario
from repro.core.cluster import Cluster
from repro.core.system import System
from repro.policy.gc import ForwardingSweeper
from repro.sim.shard import ShardedSystem
from repro.workloads.closed_loop import ClientPool, ClosedLoopConfig
from repro.workloads.file_clients import file_io_client
from repro.workloads.pingpong import echo_server, pinger
from repro.workloads.results import ResultsBoard

_EXPECT_OPS = {">=": operator.ge, "==": operator.eq}


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


def ledger_digest(ledger: list[FaultEvent]) -> int:
    """A stable 32-bit digest of a fault ledger (gateable as a counter)."""
    text = "\n".join(
        f"{event.at} {event.kind} {event.detail}" for event in ledger
    )
    return int(hashlib.sha256(text.encode()).hexdigest()[:8], 16)


def protocol_counters(cluster: Cluster) -> dict[str, int]:
    """The shard-layout-independent protocol counters of a finished
    run: what every scenario reports and the cross-engine comparison
    checks."""
    kernels = cluster.kernels
    counters = {
        name: sum(getattr(k.stats, name) for k in kernels)
        for name in (
            "processes_spawned", "messages_delivered",
            "messages_forwarded", "link_updates_applied",
        )
    }
    counters["forwarding_entries"] = sum(
        len(k.forwarding) for k in kernels if not k.crashed
    )
    counters["packets_sent"] = sum(
        shard.network.stats.packets_sent for shard in cluster.shards
    )
    return counters


def _label(shards: int) -> str:
    """How problems and comparisons name an engine variant."""
    return "classic" if not shards else f"shards={shards}"


def build_cluster(scenario: Scenario, shards: int) -> Cluster:
    """A fresh system shaped like *scenario* on engine variant *shards*
    (0: the classic single loop)."""
    config = scenario.config(shards)
    return System(config) if not shards else ShardedSystem(config)


def run_scenario(
    scenario: Scenario, budget: int = 2_000_000
) -> ScenarioOutcome:
    """Run *scenario* on every engine it names and gate it.

    Each variant drains under an event budget of *budget* (exhausting
    it is a violation, not an exception); the first variant is the
    reference, and any divergence of another variant's counters or
    fault ledger from it is itself a violation — the parity oracle.  An
    exception inside a run (the middle-hop forwarding cycle once
    manifested as a ``RecursionError``) is converted into a violation,
    so the fuzz shrinker can minimize crash-inducing records too.  An
    invalid record raises :class:`ConfigError` before anything runs.
    """
    scenario.validate()
    outcome = ScenarioOutcome(scenario.name)
    runs: dict[int, tuple[dict[str, int], list[FaultEvent]]] = {}
    for shards in scenario.engines:
        label = _label(shards)
        try:
            counters, ledger, problems = _run_engine(
                scenario, shards, budget
            )
        except Exception as error:  # noqa: BLE001 — chaos boundary
            outcome.problems.append(
                f"({label}) exception: {type(error).__name__}: {error}"
            )
            continue
        runs[shards] = (counters, ledger)
        outcome.problems += [f"({label}) {p}" for p in problems]
    first, *others = scenario.engines
    if first in runs:
        outcome.counters, outcome.ledger = runs[first]
    for shards in others:
        if first in runs and shards in runs:
            outcome.problems += _divergence(runs, first, shards)
    if others:
        outcome.counters["variants"] = len(scenario.engines)
        outcome.counters["shards"] = max(scenario.engines)
    for key, op, value in scenario.expect:
        seen = outcome.counters.get(key, 0)
        if not _EXPECT_OPS[op](seen, value):
            outcome.problems.append(
                f"expected {key} {op} {value}, saw {seen}"
            )
    return outcome


def _divergence(
    runs: dict[int, tuple[dict[str, int], list[FaultEvent]]],
    first: int,
    other: int,
) -> list[str]:
    """The cross-engine comparison: one problem per differing part."""
    (ref_counters, ref_ledger), (counters, ledger) = runs[first], runs[other]
    pair = f"{_label(first)} vs {_label(other)}"
    problems = []
    if counters != ref_counters:
        diverged = {
            key: (ref_counters.get(key), counters.get(key))
            for key in set(ref_counters) | set(counters)
            if ref_counters.get(key) != counters.get(key)
        }
        problems.append(f"{pair} counters diverged: {diverged}")
    if ledger != ref_ledger:
        problems.append(f"{pair} fault ledgers diverged")
    return problems


def _run_engine(
    scenario: Scenario, shards: int, budget: int
) -> tuple[dict[str, int], list[FaultEvent], list[str]]:
    """One engine variant: build, install, drain, collect, gate."""
    cluster = build_cluster(scenario, shards)
    services = [
        f"{scenario.prefix}-{index}" for index in range(len(scenario.servers))
    ]
    pids = [
        cluster.spawn(
            lambda ctx, _n=name: echo_server(ctx, service_name=_n),
            machine=home,
            name=name,
        )
        for name, home in zip(services, scenario.servers)
    ]
    pool = None
    if scenario.clients:
        pool = ClientPool(
            cluster,
            ClosedLoopConfig(
                clients=scenario.clients,
                requests_per_client=scenario.requests,
                mean_think_us=8_000,
                start_at=2_000,
            ),
            services=services,
            machines=tuple(
                m for m in range(scenario.machines)
                if m not in scenario.pool_exclude
            ),
        )
        pool.install()
    # One board serves every shard: the ledger already pins chaos runs
    # to the serial executor, where all shards share this process.
    board = ResultsBoard()
    for tag, machine in enumerate(scenario.files):
        cluster.schedule_spawn(
            4_000 + 1_000 * tag,
            machine,
            lambda ctx, _g=tag: file_io_client(
                ctx, tag=_g, operations=scenario.file_ops,
                gap=2_000, board=board, key=f"file-{_g}",
            ),
            name=f"file-client-{tag}",
        )
    for j, (sidx, client) in enumerate(scenario.pingers):
        cluster.schedule_spawn(
            scenario.pinger_start + 500 * j,
            client,
            lambda ctx, _j=j, _s=services[sidx]: pinger(
                ctx, service_name=_s, rounds=scenario.rounds, gap=8_000,
                board=board, key=f"ping-{_j}",
            ),
            name=f"pinger-{j}",
        )
    engine = ChaosEngine(cluster, scenario, pids)
    engine.install()

    counters: dict[str, int] = {}
    problems: list[str] = []
    quiet = _drained(cluster, budget, problems)
    if quiet and scenario.probe:
        ForwardingSweeper(cluster).sweep_now()
        quiet = _probe_chain_collapse(
            cluster, services, budget, counters, problems
        )
    if quiet:
        problems += survivor_invariants(
            cluster, pool=pool, recovery=engine.recovery,
        )
    ledger = engine.ledger()
    counters.update(protocol_counters(cluster))
    for kind, count in sorted(engine.counts.items()):
        counters[f"faults.{kind}"] = count
    reports = engine.crash_reports
    counters["recovered"] = sum(len(r.recovered) for r in reports)
    counters["casualties"] = sum(len(r.casualties) for r in reports)
    counters["migrations_aborted"] = sum(
        r.migrations_aborted for r in reports
    )
    counters["ledger_events"] = len(ledger)
    counters["ledger_digest"] = ledger_digest(ledger)
    if scenario.observe:
        snapshot = cluster.snapshot()
        for key in ("requests_completed", "replies_forwarded",
                    "reply_mismatches"):
            counters[key] = int(snapshot.total(f"workload.{key}"))
        counters["chaos_faults"] = int(snapshot.total("chaos.faults"))
        if any(spec.kind == "evacuate" for spec in scenario.actions):
            counters["draining_refusals"] = sum(
                len(shard.tracer.records("migrate", "refuse-draining"))
                for shard in cluster.shards
            )
    if scenario.pingers:
        counters["pingers_done"] = _pingers_completed(
            board, len(scenario.pingers), scenario.rounds, problems
        )
    if scenario.files:
        _file_streams(board, scenario, counters, problems)
    return counters, ledger, problems


def _drained(cluster: Cluster, budget: int, problems: list[str]) -> bool:
    """The one hang guard: drain under *budget* events, on any engine."""
    if cluster.run(max_events=budget) < budget:
        return True
    problems.append(f"simulation did not quiesce within {budget} events")
    return False


def _probe_chain_collapse(
    cluster: Cluster,
    services: list[str],
    budget: int,
    counters: dict[str, int],
    problems: list[str],
) -> bool:
    """The behavioral §4 gate, run after quiescence.

    A fresh client's switchboard lookup returns the service's original
    registered address, so its *first* request may chase the whole
    forwarding chain; the reply patches the link, and the *second*
    request must forward at most once.
    """
    board = ResultsBoard()
    for service in services:
        cluster.spawn(
            lambda ctx, _s=service: pinger(
                ctx, service_name=_s, rounds=2, board=board, key=_s,
            ),
            machine=0,
            name=f"probe-{service}",
        )
    if not _drained(cluster, budget, problems):
        return False
    round2_forwards = 0
    for service in services:
        transcript = board.only(f"{service}-summary")["transcript"]
        hops = transcript[1]["request_forwarded"]
        round2_forwards += hops
        if hops > 1:
            problems.append(
                f"probe of {service}: second request forwarded {hops} "
                f"times (chain did not collapse)"
            )
    counters["probe_round2_forwards"] = round2_forwards
    return True


def _pingers_completed(
    board: ResultsBoard, keys: int, rounds: int, problems: list[str]
) -> int:
    """How many pingers posted a summary under ``ping-<0..keys-1>``;
    every transcript that is not each round echoed exactly once, in
    order, is a problem, and so is every pinger that never finished."""
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
    if completed != keys:
        problems.append(f"{completed}/{keys} pingers completed")
    return completed


def _file_streams(
    board: ResultsBoard,
    scenario: Scenario,
    counters: dict[str, int],
    problems: list[str],
) -> None:
    """The verified file streams: every one finished every operation
    with zero read-after-write errors."""
    done = errors = 0
    for tag in range(len(scenario.files)):
        for summary in board.get(f"file-{tag}"):
            done += 1
            errors += len(summary["errors"])
            if summary["errors"]:
                problems.append(
                    f"file client {tag} saw errors: {summary['errors']}"
                )
            if len(summary["latencies"]) != scenario.file_ops:
                problems.append(
                    f"file client {tag} lost operations: "
                    f"{len(summary['latencies'])}/{scenario.file_ops}"
                )
    counters["file_streams_done"] = done
    counters["file_errors"] = errors
    if done != len(scenario.files):
        problems.append(
            f"{done}/{len(scenario.files)} file streams completed"
        )
