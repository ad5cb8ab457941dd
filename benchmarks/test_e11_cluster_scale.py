"""E11 — Cluster-scale protocol throughput (ROADMAP north star).

The paper's §6 cost analysis (3 data moves + 9 control messages of
6-12 B per migration) is only interesting if the substrate stays cheap
when the system is big.  This experiment runs the full protocol stack —
migration, forwarding, link update, load balancing — on a 64-machine
mesh with ~1,000 processes and verifies two things:

- **deterministic protocol counters** (gated): the mix of migrations,
  forwards, link updates and admin bytes the scenario produces is exactly
  reproducible, so any change in simulated behaviour shows up as a
  baseline diff;
- **events/sec** (reported, not gated): the wall-clock throughput of the
  event loop, the number every hot-path PR has to move.

The scenario: one echo server per machine, each pinged by clients on
other machines; a skewed Poisson stream of compute jobs lands on the
first four machines and the threshold balancer spreads it out; half the
echo servers are forcibly migrated *while their clients are mid
conversation*, so messages chase processes through forwarding addresses
and the §5 link-update traffic patches the stale link tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from conftest import drain, make_system, print_table, write_bench_artifact

from repro.policy.load_balancer import ThresholdLoadBalancer
from repro.workloads.compute import compute_bound
from repro.workloads.generators import ArrivalGenerator, poisson_plan
from repro.workloads.pingpong import echo_server, pinger
from repro.workloads.results import ResultsBoard


@dataclass(frozen=True)
class ClusterParams:
    """One cluster scenario size."""

    name: str
    machines: int
    pingers_per_server: int
    ping_rounds: int
    compute_rate_per_ms: float  #: Poisson arrival rate of compute jobs
    compute_window: int  #: arrivals happen in [0, window) us
    compute_work: int  #: CPU us per compute job
    server_moves: int  #: echo servers force-migrated mid-run
    duration: int  #: run_until horizon before draining
    topology: str = "mesh"  #: SystemConfig topology shape


FULL = ClusterParams(
    name="e11_cluster_scale",
    machines=64,
    pingers_per_server=6,
    ping_rounds=40,
    compute_rate_per_ms=1.0,
    compute_window=600_000,
    compute_work=40_000,
    server_moves=32,
    duration=1_200_000,
)

#: reduced topology for the CI `scale-smoke` job: same shape, 8 machines
SMOKE = ClusterParams(
    name="e11_cluster_smoke",
    machines=8,
    pingers_per_server=4,
    ping_rounds=8,
    compute_rate_per_ms=0.25,
    compute_window=400_000,
    compute_work=40_000,
    server_moves=4,
    duration=900_000,
)

#: 256 machines on a 16x16 torus (degree 4, diameter 16): multi-hop
#: routing, forwarding chains that actually span the network, and a
#: machine count where the retired all-pairs route precomputation was
#: a measurable start-up tax.  Per-server workload is lighter than FULL
#: because every message now pays ~8 hops instead of 1.
SPARSE = ClusterParams(
    name="e11_cluster_sparse",
    machines=256,
    pingers_per_server=2,
    ping_rounds=12,
    compute_rate_per_ms=0.5,
    compute_window=400_000,
    compute_work=40_000,
    server_moves=32,
    duration=1_500_000,
    topology="torus",
)

#: 1,024 machines on a 32x32 torus — the ROADMAP scale-out step that
#: needs the route cache to keep one table per machine (a 512-source
#: LRU once thrashed here: forwarding makes all 1,024 machines routing
#: sources, and every evicted source cost a full Dijkstra per hop).
#: The cache now evicts nothing.  Workload per server
#: is minimal; the point is protocol traffic across a diameter-32
#: network.  The sharded engine runs the same machine count in
#: `test_e11_shards.py` (`e11_shards_xsparse`), where shards=1 and
#: shards=4 must agree byte-for-byte.
XSPARSE = ClusterParams(
    name="e11_cluster_xsparse",
    machines=1024,
    pingers_per_server=1,
    ping_rounds=8,
    compute_rate_per_ms=0.5,
    compute_window=400_000,
    compute_work=40_000,
    server_moves=32,
    duration=1_500_000,
    topology="torus",
)

#: reduced sparse scenario for CI: same torus shape, 16 machines (4x4)
SPARSE_SMOKE = ClusterParams(
    name="e11_sparse_smoke",
    machines=16,
    pingers_per_server=2,
    ping_rounds=6,
    compute_rate_per_ms=0.25,
    compute_window=300_000,
    compute_work=40_000,
    server_moves=8,
    duration=900_000,
    topology="torus",
)


def run_cluster(p: ClusterParams) -> dict:
    board = ResultsBoard()
    system = make_system(
        machines=p.machines,
        topology=p.topology,
        trace_categories=(),  # tracing off: measure the bare hot path
        metrics_enabled=False,  # registry hands out no-op instruments
    )

    # One echo server per machine, one service name per machine.
    server_pids = {}
    for m in range(p.machines):
        server_pids[m] = system.spawn(
            lambda ctx, _m=m: echo_server(ctx, service_name=f"echo-{_m}"),
            machine=m, name=f"echo-{m}",
        )

    # Pingers spread around the ring of machines, staggered so the
    # switchboard lookups don't all land in one instant.
    arrivals = []
    for m in range(p.machines):
        for k in range(p.pingers_per_server):
            client_machine = (m + 1 + 7 * k) % p.machines
            arrivals.append((
                30_000 + 500 * (m * p.pingers_per_server + k),
                client_machine,
                lambda ctx, _m=m, _k=k: pinger(
                    ctx, service_name=f"echo-{_m}", rounds=p.ping_rounds,
                    payload_bytes=32, gap=1_000, board=board,
                    key="ping",
                ),
            ))
    for at, machine, program in arrivals:
        system.loop.call_at(
            at,
            lambda _p=program, _m=machine: system.spawn(_p, machine=_m,
                                                        name="pinger"),
        )

    # Skewed compute arrivals: the first four machines catch everything,
    # the balancer has to spread it (paper §1's motivating imbalance).
    hot = {0: 0.4, 1: 0.3, 2: 0.2, 3: 0.1}
    plan = poisson_plan(
        system,
        lambda ctx: compute_bound(ctx, total=p.compute_work, board=board),
        rate_per_ms=p.compute_rate_per_ms,
        duration=p.compute_window,
        machine_weights=hot,
    )
    ArrivalGenerator(system, plan).install()

    balancer = ThresholdLoadBalancer(
        system, interval=20_000, threshold=3, sustain=2, cooldown=100_000,
    )
    balancer.install()

    # Forced churn: migrate every other echo server while its clients
    # are mid-conversation, exercising forwarding + link update.
    forced = []
    for j in range(p.server_moves):
        victim = (2 * j) % p.machines
        dest = (victim + p.machines // 2) % p.machines
        forced.append((80_000 + 15_000 * j, server_pids[victim], dest))
    for at, pid, dest in forced:
        system.loop.call_at(
            at, lambda _pid=pid, _dest=dest: system.migrate(_pid, _dest),
        )

    started = time.perf_counter()
    system.run(until=p.duration)
    balancer.stop()
    drain(system, max_events=100_000_000)
    wall = time.perf_counter() - started

    kstats = [k.stats for k in system.kernels]
    net = system.network.stats
    records = system.migration_records()
    ping_done = board.get("ping-summary")
    compute_done = board.get("compute")
    return {
        "system": system,
        "wall_seconds": wall,
        "events_fired": system.loop.events_fired,
        "metrics": {
            "processes_spawned": sum(s.processes_spawned for s in kstats),
            "compute_jobs": len(plan),
            "compute_done": len(compute_done),
            "pingers_done": len(ping_done),
            "migrations_completed": len(records),
            "migrations_ok": sum(1 for r in records if r.success),
            "balancer_migrations": balancer.stats.migrations_succeeded,
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
        },
    }


def _report(p: ClusterParams, result: dict) -> None:
    metrics = result["metrics"]
    events_per_sec = result["events_fired"] / max(
        result["wall_seconds"], 1e-9
    )
    print_table(
        f"E11: cluster scale ({p.machines} machines, "
        f"{metrics['processes_spawned']} processes)",
        ["metric", "value"],
        [[k, v] for k, v in metrics.items()]
        + [
            ["events_fired (not gated)", result["events_fired"]],
            ["events/sec (not gated)", f"{events_per_sec:,.0f}"],
        ],
        notes="protocol counters are deterministic and gated; "
              "events/sec is wall-clock and reported only",
    )
    write_bench_artifact(
        p.name,
        metrics,
        meta={
            "machines": p.machines,
            "topology": p.topology,
            "events_fired": result["events_fired"],
            "wall_seconds": round(result["wall_seconds"], 3),
            "events_per_sec": round(events_per_sec),
            "paper": "§6: migration stays 3 data moves + 9 control "
                     "messages even at cluster scale",
        },
    )


def _check(p: ClusterParams, result: dict) -> None:
    metrics = result["metrics"]
    # Every client and every compute job finished despite the churn.
    assert metrics["pingers_done"] == p.machines * p.pingers_per_server
    assert metrics["compute_done"] == metrics["compute_jobs"]
    # Real churn happened: forced server moves plus balancer traffic.
    assert metrics["migrations_ok"] >= p.server_moves
    assert metrics["balancer_migrations"] >= 1
    # Stale links actually chased processes and were patched.
    assert metrics["forwards"] >= 1
    assert metrics["link_updates_applied"] >= 1
    assert metrics["links_retargeted"] >= 1


def test_e11_cluster_scale(bench_once):
    result = bench_once(run_cluster, FULL)
    _report(FULL, result)
    _check(FULL, result)


def test_e11_cluster_smoke(bench_once):
    result = bench_once(run_cluster, SMOKE)
    _report(SMOKE, result)
    _check(SMOKE, result)


def test_e11_cluster_sparse(bench_once):
    result = bench_once(run_cluster, SPARSE)
    _report(SPARSE, result)
    _check(SPARSE, result)


def test_e11_cluster_xsparse(bench_once):
    result = bench_once(run_cluster, XSPARSE)
    _report(XSPARSE, result)
    _check(XSPARSE, result)


def test_e11_sparse_smoke(bench_once):
    result = bench_once(run_cluster, SPARSE_SMOKE)
    _report(SPARSE_SMOKE, result)
    _check(SPARSE_SMOKE, result)
