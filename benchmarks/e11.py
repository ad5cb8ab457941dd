"""E11 — the cluster-scale scenario, written once (ROADMAP north star).

The paper's §6 cost analysis (3 data moves + 9 control messages of
6-12 B per migration) is only interesting if the substrate stays cheap
when the system is big.  Every e11 arm is one :class:`Arm` record, and
:func:`run` builds each through the ``Cluster`` surface on the engine
the record names: one echo server per machine driven by clients on
other machines (pingers, or a closed-loop pool); a skewed Poisson
stream of compute jobs on machines 0-3, spread by one
``DomainLoadBalancer`` per domain (the whole cluster for a classic
arm, a torus row inside one shard for a sharded one); and every other
echo server force-migrated half a domain over mid conversation,
anchored at its home machine, so messages chase processes through
forwarding addresses and §5 link updates patch the stale links.  Both
read only per-machine state, so an arm's counters are the same on
``System`` and on ``ShardedSystem`` for any shard count.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, replace
from typing import Any, NamedTuple

from conftest import print_table, write_bench_artifact

from repro.core.config import SystemConfig
from repro.core.system import System
from repro.policy.load_balancer import DomainLoadBalancer
from repro.sim.shard import ShardedSystem
from repro.workloads.closed_loop import (
    REQUEST_LATENCY_METRIC,
    ClientPool,
    ClosedLoopConfig,
)
from repro.workloads.compute import compute_bound
from repro.workloads.generators import poisson_plan
from repro.workloads.pingpong import echo_server, pinger
from repro.workloads.results import ResultsBoard

#: CPU us per compute job, in every arm
COMPUTE_WORK = 40_000
#: where the compute stream lands: the first four machines, 4:3:2:1
HOT = {0: 0.4, 1: 0.3, 2: 0.2, 3: 0.1}
#: the counters a closed-loop arm gates beside its latency keys
POOL_COUNTERS = (
    "migrations_ok forwards link_updates_applied messages_delivered "
    "packets_sent"
).split()


@dataclass(frozen=True)
class Arm:
    """One e11 scenario size."""

    name: str
    machines: int
    duration: int  #: run_until horizon before the drain
    shards: int = 0  #: engine: 0 is System, n is ShardedSystem(shards=n)
    topology: str = "mesh"
    latency: int = 100  #: wire latency (the sharded lookahead)
    backbone_latency: int | None = None  #: slow torus tier, if any
    domain: int = 0  #: machines per balancer domain; 0 is all of them
    clients: int = 4  #: clients per echo server
    rounds: int = 24  #: pings, or requests, per client
    #: mean think time; > 0 makes the clients a closed-loop pool (with
    #: metrics on, and neither compute stream nor balancers)
    think_us: int = 0
    serve_us: int = 0  #: CPU us an echo server burns per request
    rate: float = 1.0  #: compute arrivals per ms
    window: int = 600_000  #: compute arrivals land in [0, window)
    moves: int = 32  #: echo servers force-migrated mid-run
    churn_start: int = 80_000  #: first forced move (us)
    churn_gap: int = 15_000  #: spacing between forced moves (us)
    stop_after: int = 0  #: balancers retire at duration + stop_after


#: the classic full cluster: 64 machines, every pair one hop
CLUSTER_SCALE = Arm(
    "e11_cluster_scale", 64, 1_200_000, clients=6, rounds=40, stop_after=1
)
#: reduced topology for the CI `scale-smoke` job: same shape, 8 machines
CLUSTER_SMOKE = Arm(
    "e11_cluster_smoke",
    8,
    900_000,
    rounds=8,
    rate=0.25,
    window=400_000,
    moves=4,
    stop_after=1,
)
#: 256 machines on a 16x16 torus (degree 4, diameter 16): multi-hop
#: routing and forwarding chains that span the network; lighter per
#: server than the mesh, since every message pays ~8 hops instead of 1
CLUSTER_SPARSE = Arm(
    "e11_cluster_sparse",
    256,
    1_500_000,
    topology="torus",
    clients=2,
    rounds=12,
    rate=0.5,
    window=400_000,
    stop_after=1,
)
#: 1,024 machines on a 32x32 torus: a diameter-32 network, where
#: forwarding makes every machine a routing source
CLUSTER_XSPARSE = replace(
    CLUSTER_SPARSE,
    name="e11_cluster_xsparse",
    machines=1024,
    clients=1,
    rounds=8,
)
#: reduced sparse scenario for CI: same torus shape, 16 machines (4x4)
SPARSE_SMOKE = replace(
    CLUSTER_SPARSE,
    name="e11_sparse_smoke",
    machines=16,
    duration=900_000,
    rounds=6,
    rate=0.25,
    window=300_000,
    moves=8,
)
#: closed loop on the full mesh: 256 users, 12 requests each
CLOSED_LOOP = Arm(
    "e11_closed_loop",
    64,
    1_200_000,
    rounds=12,
    think_us=20_000,
    serve_us=2_000,
    moves=24,
    churn_start=60_000,
    churn_gap=8_000,
)
#: reduced scenario for the CI `scale-smoke` job: same shape, 8 machines
CLOSED_LOOP_SMOKE = replace(
    CLOSED_LOOP,
    name="e11_closed_loop_smoke",
    machines=8,
    duration=900_000,
    clients=3,
    rounds=8,
    think_us=10_000,
    moves=4,
    churn_start=40_000,
    churn_gap=10_000,
)
#: The sharded arms have 1 ms wires: the minimum wire latency is the
#: conservative lookahead, and a 10x longer one amortises each
#: rendezvous over ~10x more events.  A 16x16 torus, 4 rows per shard:
SHARDS = Arm(
    "e11_shards",
    256,
    1_500_000,
    shards=4,
    topology="torus",
    latency=1_000,
    domain=16,
)
#: the classic mesh, sharded: a mesh partitions freely, and every shard
#: pair is wire-connected, so run-ahead has the least to skip
SHARDS_MESH = replace(
    SHARDS,
    name="e11_shards_mesh",
    machines=64,
    duration=1_200_000,
    topology="mesh",
    domain=8,
)
#: CI `scale-smoke`: a 2x4 torus, one row per shard
SHARDS_SMOKE = replace(
    SHARDS,
    name="e11_shards_smoke",
    machines=8,
    duration=700_000,
    shards=2,
    domain=4,
    clients=2,
    rounds=6,
    rate=0.25,
    window=200_000,
    moves=4,
)
#: the 1,024-machine step, sharded: a 32x32 torus, 8 rows per shard
SHARDS_XSPARSE = replace(
    SHARDS,
    name="e11_shards_xsparse",
    machines=1024,
    domain=32,
    clients=1,
    rounds=8,
    rate=0.5,
    window=400_000,
)
#: run-ahead headline: SHARDS on a two-tier torus (a 4 ms inter-row
#: backbone), so each shard pair's period is 4 grid windows
SHARDS_RUNAHEAD = replace(
    SHARDS, name="e11_shards_runahead", shards=8, backbone_latency=4_000
)
#: CI `scale-smoke`: a 4x4 two-tier torus, one row per shard at x4
SHARDS_RUNAHEAD_SMOKE = replace(
    SHARDS_SMOKE,
    name="e11_shards_runahead_smoke",
    machines=16,
    shards=4,
    backbone_latency=4_000,
)


class Run(NamedTuple):
    """One executed arm: its merged counters and how it ran."""

    counters: dict[str, int]
    sync: dict[str, int]  #: ``sync_*`` rendezvous traffic, all shards
    events: int
    wall: float
    pool: ClientPool | None


def config(p: Arm) -> SystemConfig:
    """Arm *p*'s system: tracing off, metrics only for a pool's latency."""
    return SystemConfig(
        machines=p.machines,
        topology=p.topology,
        latency=p.latency,
        backbone_latency=p.backbone_latency,
        shards=max(p.shards, 1),
        trace_categories=(),
        metrics_enabled=p.think_us > 0,
    )


def run(p: Arm, executor: str = "serial") -> Run:
    """Build arm *p* on its engine, execute it, and merge the counters."""
    pool_arm = p.think_us > 0
    cluster = (ShardedSystem if p.shards else System)(config(p))
    # One results board per shard: a forked worker posts to its own copy.
    boards = [ResultsBoard() for _ in cluster.shards]
    balancers: list[list[DomainLoadBalancer]] = [[] for _ in boards]
    width = p.domain or p.machines
    pool = None
    plan = []

    def board(machine: int) -> ResultsBoard:
        return boards[cluster.shard_for(machine).index]

    servers = [
        cluster.spawn(
            lambda ctx, _m=m: echo_server(
                ctx, service_name=f"echo-{_m}", compute_per_request=p.serve_us
            ),
            machine=m,
            name=f"echo-{m}",
        )
        for m in range(p.machines)
    ]
    if pool_arm:
        # Clients for echo-m sit one machine over, so every request
        # crosses the network and forced moves leave stale links.
        pool = ClientPool(
            cluster,
            ClosedLoopConfig(
                clients=p.machines * p.clients,
                requests_per_client=p.rounds,
                mean_think_us=p.think_us,
            ),
            services=tuple(f"echo-{m}" for m in range(p.machines)),
            machines=tuple((m + 1) % p.machines for m in range(p.machines)),
            board=boards[0],
        )
        pool.install()
    else:
        # Staggered, so the switchboard lookups don't land at one tick.
        for m in range(p.machines):
            for k in range(p.clients):
                client = (m + 1 + 7 * k) % p.machines
                cluster.schedule_spawn(
                    30_000 + 500 * (m * p.clients + k),
                    client,
                    lambda ctx, _m=m, _b=board(client): pinger(
                        ctx,
                        service_name=f"echo-{_m}",
                        rounds=p.rounds,
                        payload_bytes=32,
                        gap=1_000,
                        board=_b,
                        key="ping",
                    ),
                    name="pinger",
                )
        plan = poisson_plan(
            cluster,
            lambda ctx: compute_bound(ctx, total=COMPUTE_WORK, board=board(0)),
            rate_per_ms=p.rate,
            duration=p.window,
            machine_weights=HOT,
        )
        for arrival in plan:
            cluster.schedule_spawn(
                arrival.at, arrival.machine, arrival.program, arrival.name
            )
        for first in range(0, p.machines, width):
            balancer = DomainLoadBalancer(
                cluster.domain_view(list(range(first, first + width))),
                domain=f"row{first // width}",
                interval=20_000,
                threshold=3,
                sustain=2,
                cooldown=100_000,
            )
            balancer.install()
            balancers[cluster.shard_for(first).index].append(balancer)
            cluster.call_at(p.duration + p.stop_after, first, balancer.stop)
    for j in range(p.moves):
        victim = (2 * j) % p.machines
        first = victim - victim % width
        cluster.schedule_migration(
            p.churn_start + p.churn_gap * j,
            servers[victim],
            victim,
            first + (victim - first + width // 2) % width,
        )

    def collect(shard) -> dict[str, Any]:
        kernels = shard.kernels.values()
        kstats = [kernel.stats for kernel in kernels]
        records = [r for kernel in kernels for r in kernel.migration.completed]
        net = shard.network.stats
        sync = shard.network.sync.as_dict()
        return {
            "processes_spawned": sum(s.processes_spawned for s in kstats),
            "compute_done": len(boards[shard.index].get("compute")),
            "pingers_done": len(boards[shard.index].get("ping-summary")),
            "migrations_completed": len(records),
            "migrations_ok": sum(1 for r in records if r.success),
            "balancer_migrations": sum(
                b.stats.migrations_succeeded for b in balancers[shard.index]
            ),
            "forwards": sum(s.messages_forwarded for s in kstats),
            "link_updates_sent": sum(s.link_updates_sent for s in kstats),
            "link_updates_applied": sum(
                s.link_updates_applied for s in kstats
            ),
            "links_retargeted": sum(s.links_retargeted for s in kstats),
            "messages_delivered": sum(s.messages_delivered for s in kstats),
            "admin_payload_bytes": net.payload_bytes_by_category["admin"],
            "datamove_payload_bytes": (
                net.payload_bytes_by_category["datamove"]
                + net.payload_bytes_by_category["dma"]
            ),
            "packets_sent": net.packets_sent,
            "wire_bytes_sent": net.bytes_sent,
            "events_fired": shard.loop.events_fired,
            **{f"sync_{key}": value for key, value in sync.items()},
        }

    started = time.perf_counter()
    parts = cluster.execute(p.duration, collect, executor=executor)
    wall = time.perf_counter() - started
    counters = {key: sum(part[key] for part in parts) for key in parts[0]}
    sync = {k: counters.pop(k) for k in parts[0] if k.startswith("sync_")}
    events = counters.pop("events_fired")
    counters["compute_jobs"] = len(plan)
    if pool_arm:
        snapshot = cluster.snapshot()
        latency = snapshot.histogram(REQUEST_LATENCY_METRIC)
        counters = {key: counters[key] for key in POOL_COUNTERS} | {
            "requests_total": sum(pool.request_counts),
            "clients_finished": len(pool.board.get("closed-loop")),
            "latency_count": latency.count,
            "latency_sum_us": int(latency.sum),
            "latency_p50_us": latency.p50,
            "latency_p95_us": latency.p95,
            "latency_p99_us": latency.p99,
            "latency_max_us": latency.max,
            "replies_forwarded": int(
                snapshot.total("workload.replies_forwarded")
            ),
        }
    return Run(counters, sync, events, wall, pool)


def publish(
    p: Arm, runs: dict[int, Run], metrics: dict[str, Any], paper: str
) -> None:
    """Print and write arm *p*'s gated *metrics*; *runs* maps a shard
    count to its run, the reference first (wall clock is meta only)."""
    (_, ref), *others = runs.items()
    timing = {
        "events_fired": ref.events,
        "wall_seconds": round(ref.wall, 3),
        "events_per_sec": round(ref.events / max(ref.wall, 1e-9)),
    }
    for n, other in others:
        timing[f"wall_seconds_x{n}"] = round(other.wall, 3)
        timing[f"speedup_x{n}"] = round(ref.wall / max(other.wall, 1e-9), 2)
    print_table(
        f"E11: {p.name} ({p.machines} machines, shards {list(runs)})",
        ["metric", "value"],
        sorted(metrics.items())
        + [[f"{key} (not gated)", value] for key, value in timing.items()],
        notes="counters are gated; wall clock is reported only",
    )
    write_bench_artifact(
        p.name,
        metrics,
        meta={
            "machines": p.machines,
            "arm": asdict(p),
            **timing,
            "cpu_count": os.cpu_count(),
            "paper": paper,
        },
    )
