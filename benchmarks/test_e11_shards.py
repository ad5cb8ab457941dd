"""E11 — Sharded parallel execution: determinism parity and speedup.

The sharded engine (``repro.sim.shard``) splits the cluster across
worker processes that run ahead through their safe time ranges and
meet pairwise (``repro.sim.barrier``).  Its whole value rests on one
claim: **the shard count is invisible in the simulation's results**.
This benchmark runs the cluster-scale protocol scenario on ``shards=1``
(the serial reference executor: one keyed loop that meets nobody) and
on ``shards=N`` forked workers, asserts every gated counter is
byte-identical, gates the synchronisation traffic exactly, and reports
the wall-clock speedup (meta only, not gated: wall time depends on the
host).

The scenario mirrors ``test_e11_cluster_scale`` with the two engine-
mandated substitutions that keep it shard-layout independent *and*
fork-safe: the global threshold balancer becomes one
:class:`~repro.policy.load_balancer.DomainLoadBalancer` per torus row
(rows never straddle shards), and forced server moves are machine-
anchored ``schedule_migration`` calls within the victim's row (live
process generators cannot cross a fork boundary).

Wires are 1 ms here (vs 100 us in the classic scenario): the minimum
wire latency is the conservative lookahead, and a 10x longer one
amortises each rendezvous over ~10x more events — the knob that makes
parallelism pay.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from conftest import print_table, write_bench_artifact

from repro.core.config import SystemConfig, near_square_factor
from repro.policy.load_balancer import DomainLoadBalancer
from repro.sim.shard import ShardedSystem, ShardPlan
from repro.workloads.compute import compute_bound
from repro.workloads.generators import poisson_plan
from repro.workloads.pingpong import echo_server, pinger
from repro.workloads.results import ResultsBoard


@dataclass(frozen=True)
class ShardBenchParams:
    """One sharded cluster scenario size."""

    name: str
    machines: int  #: torus node count
    shards: int  #: parallel worker count for the sharded run
    pingers_per_server: int
    ping_rounds: int
    compute_rate_per_ms: float
    compute_window: int
    compute_work: int
    server_moves: int
    duration: int
    latency: int = 1_000  #: wire latency == conservative lookahead
    topology: str = "torus"  #: SystemConfig topology shape
    #: slow-tier wire latency (torus verticals + column wraps); the
    #: gap between this and `latency` is what lets shard pairs meet
    #: less often than every window
    backbone_latency: int | None = None


FULL = ShardBenchParams(
    name="e11_shards",
    machines=256,  # 16x16 torus, 4 rows of 16 per shard
    shards=4,
    pingers_per_server=4,
    ping_rounds=24,
    compute_rate_per_ms=1.0,
    compute_window=600_000,
    compute_work=40_000,
    server_moves=32,
    duration=1_500_000,
)

#: the classic e11 full-cluster shape — 64 machines, every pair one
#: hop — sharded.  A mesh partitions freely (alignment 1), so the
#: contiguous 16-machine shard ranges keep the 8-wide balancer domains
#: whole; parity here proves the engine on a dense topology too.  Every
#: shard pair is wire-connected and every pair period is the window
#: grid, so this is the arm where run-ahead has the least to skip: its
#: sync traffic is gated here (the torus arms' is gated by RUNAHEAD).
MESH = ShardBenchParams(
    name="e11_shards_mesh",
    machines=64,
    shards=4,
    pingers_per_server=4,
    ping_rounds=24,
    compute_rate_per_ms=1.0,
    compute_window=600_000,
    compute_work=40_000,
    server_moves=32,
    duration=1_200_000,
    topology="mesh",
)

#: CI `scale-smoke`: tiny torus, 2 shards, same parity gate
SMOKE = ShardBenchParams(
    name="e11_shards_smoke",
    machines=8,  # 2x4 torus, one row per shard
    shards=2,
    pingers_per_server=2,
    ping_rounds=6,
    compute_rate_per_ms=0.25,
    compute_window=200_000,
    compute_work=40_000,
    server_moves=4,
    duration=700_000,
)

#: run-ahead headline: the FULL scenario on a two-tier torus — local
#: wires 1 ms, inter-row backbone 4 ms, so each shard pair's period is
#: 4 grid windows and only the wire-connected pairs of the row-band
#: ring rendezvous before the drain — swept across shards {1, 2, 4, 8}:
#: the wall-clock curve of the rendezvous schedule, with the static
#: meet-every-period cadence beside it
RUNAHEAD = ShardBenchParams(
    name="e11_shards_runahead",
    machines=256,
    shards=8,
    pingers_per_server=4,
    ping_rounds=24,
    compute_rate_per_ms=1.0,
    compute_window=600_000,
    compute_work=40_000,
    server_moves=32,
    duration=1_500_000,
    backbone_latency=4_000,
)

#: CI `scale-smoke`: a 4x4 two-tier torus, one row per shard at x4,
#: swept across shards {1, 2, 4} with the same gates at 1/16th the size
RUNAHEAD_SMOKE = ShardBenchParams(
    name="e11_shards_runahead_smoke",
    machines=16,
    shards=4,
    pingers_per_server=2,
    ping_rounds=6,
    compute_rate_per_ms=0.25,
    compute_window=200_000,
    compute_work=40_000,
    server_moves=4,
    duration=700_000,
    backbone_latency=4_000,
)

#: the ROADMAP's 1,024-machine step, sharded: 32x32 torus, 8 rows/shard
XSPARSE = ShardBenchParams(
    name="e11_shards_xsparse",
    machines=1024,
    shards=4,
    pingers_per_server=1,
    ping_rounds=8,
    compute_rate_per_ms=0.5,
    compute_window=400_000,
    compute_work=40_000,
    server_moves=32,
    duration=1_500_000,
)


def run_sharded_cluster(p: ShardBenchParams, shards: int, executor: str):
    """Build the scenario, execute it, and return merged counters."""
    system = ShardedSystem(SystemConfig(
        machines=p.machines,
        topology=p.topology,
        latency=p.latency,
        shards=shards,
        backbone_latency=p.backbone_latency,
        trace_categories=(),  # tracing off: measure the bare hot path
        metrics_enabled=False,  # plain integer counters only
    ))
    cols = p.machines // near_square_factor(p.machines)
    boards = [ResultsBoard() for _ in system.shards]
    balancers_by_shard: list[list[DomainLoadBalancer]] = [
        [] for _ in system.shards
    ]

    # One echo server per machine, one service name per machine.
    server_pids = {}
    for m in range(p.machines):
        server_pids[m] = system.spawn(
            lambda ctx, _m=m: echo_server(ctx, service_name=f"echo-{_m}"),
            machine=m, name=f"echo-{m}",
        )

    # Pingers spread around the machines, staggered, each posting to
    # its *client* machine's shard board (pingers only ever migrate
    # within their row, so the board stays shard-local).
    for m in range(p.machines):
        for k in range(p.pingers_per_server):
            client = (m + 1 + 7 * k) % p.machines
            board = boards[system.plan.shard_of(client)]
            system.schedule_spawn(
                30_000 + 500 * (m * p.pingers_per_server + k),
                client,
                lambda ctx, _m=m, _b=board: pinger(
                    ctx, service_name=f"echo-{_m}", rounds=p.ping_rounds,
                    payload_bytes=32, gap=1_000, board=_b, key="ping",
                ),
                name="pinger",
            )

    # Skewed compute arrivals: machines 0-3 (all in torus row 0) catch
    # everything and row 0's balancer has to spread it.
    hot = {0: 0.4, 1: 0.3, 2: 0.2, 3: 0.1}
    hot_board = boards[system.plan.shard_of(0)]
    plan = poisson_plan(
        system,
        lambda ctx: compute_bound(
            ctx, total=p.compute_work, board=hot_board,
        ),
        rate_per_ms=p.compute_rate_per_ms,
        duration=p.compute_window,
        machine_weights=hot,
    )
    for arrival in plan:
        system.schedule_spawn(
            arrival.at, arrival.machine, arrival.program,
            name=arrival.name,
        )

    # One domain balancer per torus row; rows never straddle shards.
    for row in range(p.machines // cols):
        row_machines = list(range(row * cols, (row + 1) * cols))
        view = system.domain_view(row_machines)
        balancer = DomainLoadBalancer(
            view, domain=f"row{row}", interval=20_000, threshold=3,
            sustain=2, cooldown=100_000,
        )
        balancer.install()
        balancers_by_shard[system.plan.shard_of(row_machines[0])].append(
            balancer,
        )
        system.call_at(p.duration, row_machines[0], balancer.stop)

    # Forced churn, fork-safe: each victim server moves half a row over,
    # anchored at its home machine (skipped if a balancer got there
    # first — a per-machine decision, identical for every shard count).
    for j in range(p.server_moves):
        victim = (2 * j) % p.machines
        row_start = (victim // cols) * cols
        dest = row_start + (victim - row_start + cols // 2) % cols
        system.schedule_migration(
            80_000 + 15_000 * j, server_pids[victim], victim, dest,
        )

    def collect(shard):
        kstats = [shard.kernels[m].stats for m in shard.machines]
        net = shard.network.stats
        board = boards[shard.index]
        records = [
            record
            for m in shard.machines
            for record in shard.kernels[m].migration.completed
        ]
        return {
            "processes_spawned": sum(
                s.processes_spawned for s in kstats
            ),
            "compute_done": len(board.get("compute")),
            "pingers_done": len(board.get("ping-summary")),
            "migrations_completed": len(records),
            "migrations_ok": sum(1 for r in records if r.success),
            "balancer_migrations": sum(
                b.stats.migrations_succeeded
                for b in balancers_by_shard[shard.index]
            ),
            "forwards": sum(s.messages_forwarded for s in kstats),
            "link_updates_sent": sum(
                s.link_updates_sent for s in kstats
            ),
            "link_updates_applied": sum(
                s.link_updates_applied for s in kstats
            ),
            "links_retargeted": sum(s.links_retargeted for s in kstats),
            "messages_delivered": sum(
                s.messages_delivered for s in kstats
            ),
            "admin_payload_bytes": net.payload_bytes_by_category["admin"],
            "datamove_payload_bytes": (
                net.payload_bytes_by_category["datamove"]
                + net.payload_bytes_by_category["dma"]
            ),
            "packets_sent": net.packets_sent,
            "wire_bytes_sent": net.bytes_sent,
            "events_fired": shard.loop.events_fired,
            "sync_stats": shard.network.sync.as_dict(),
        }

    started = time.perf_counter()
    per_shard = system.execute(p.duration, collect, executor=executor)
    wall = time.perf_counter() - started

    merged = {
        key: sum(part[key] for part in per_shard)
        for key in per_shard[0]
        if key != "sync_stats"
    }
    merged["compute_jobs"] = len(plan)
    events = merged.pop("events_fired")
    sync = {
        key: sum(part["sync_stats"][key] for part in per_shard)
        for key in per_shard[0]["sync_stats"]
    }
    return merged, sync, events, wall


def _parity_and_report(p: ShardBenchParams, gate_sync: bool = False) -> None:
    reference, _, ref_events, ref_wall = run_sharded_cluster(
        p, 1, "serial",
    )
    sharded, sync, sh_events, sh_wall = run_sharded_cluster(
        p, p.shards, "fork",
    )

    # THE gate: the shard count must be invisible in every counter.
    assert sharded == reference, (
        "sharded run diverged from the serial reference: "
        + str({
            key: (reference[key], sharded[key])
            for key in reference
            if reference[key] != sharded.get(key)
        })
    )
    assert sh_events == ref_events

    # Wall clock is meta only: speedup needs actual cores.  On a
    # single-core host the workers time-slice and the ratio reads as
    # pure barrier overhead (~0.9x); on >= `shards` cores the same
    # scenario measures real parallelism.
    speedup = ref_wall / max(sh_wall, 1e-9)
    events_per_sec = sh_events / max(sh_wall, 1e-9)
    print_table(
        f"E11: sharded execution parity ({p.machines} machines, "
        f"{p.shards} shards)",
        ["metric", "value"],
        [[key, value] for key, value in sorted(reference.items())]
        + [
            [f"sync {key} x{p.shards} (gated)", value]
            for key, value in sync.items()
            if gate_sync
        ]
        + [
            ["events_fired (not gated)", ref_events],
            ["serial wall s (not gated)", f"{ref_wall:.2f}"],
            [f"fork x{p.shards} wall s (not gated)", f"{sh_wall:.2f}"],
            ["speedup (not gated)", f"{speedup:.2f}x"],
            ["events/sec sharded (not gated)", f"{events_per_sec:,.0f}"],
        ],
        notes="all counters byte-identical between shards=1 and "
              f"shards={p.shards}; wall clock reported only",
    )
    metrics = dict(reference)
    if gate_sync:
        metrics.update((f"sync_{key}", value) for key, value in sync.items())
    write_bench_artifact(
        p.name,
        metrics,
        meta={
            "machines": p.machines,
            "topology": p.topology,
            "shards": p.shards,
            "lookahead_us": p.latency,
            "events_fired": ref_events,
            "serial_wall_seconds": round(ref_wall, 3),
            "sharded_wall_seconds": round(sh_wall, 3),
            "speedup": round(speedup, 2),
            "events_per_sec": round(events_per_sec),
            "cpu_count": os.cpu_count(),
            "paper": "per-processor kernels make the machine the unit "
                     "of distribution; conservative windows keep the "
                     "simulation bit-exact across workers",
        },
    )
    # Sanity floor, same spirit as the classic e11 checks.
    assert reference["pingers_done"] == p.machines * p.pingers_per_server
    assert reference["compute_done"] == reference["compute_jobs"]
    assert reference["migrations_ok"] >= 1
    assert reference["balancer_migrations"] >= 1
    assert reference["forwards"] >= 1
    assert reference["link_updates_applied"] >= 1


def _runahead_and_report(
    p: ShardBenchParams,
    shard_counts: tuple[int, ...],
    speedup_floor: float | None,
) -> None:
    """Run-ahead gates: every shard count lands on the one-shard
    reference bit for bit, the schedule really crosses grid windows
    without meeting, its sync traffic is pinned exactly, and — when the
    host has the cores — the wall-clock curve actually bends down."""
    from repro.sim.barrier import rendezvous_schedule

    runs = {
        n: run_sharded_cluster(p, n, "serial" if n == 1 else "fork")
        for n in shard_counts
    }
    reference, _, ref_events, _ = runs[1]
    for n, (merged, _, events, _) in runs.items():
        assert merged == reference, (
            f"run-ahead shards={n} diverged from the one-shard "
            f"reference: " + str({
                key: (reference[key], merged[key])
                for key in reference
                if reference[key] != merged.get(key)
            })
        )
        assert events == ref_events, (n, events, ref_events)
    syncs = {n: sync for n, (_, sync, _, _) in runs.items()}
    walls = {n: wall for n, (_, _, _, wall) in runs.items()}

    top = max(shard_counts)
    # Meeting at every period multiple is the horizon-phase upper bound
    # the dynamic scheduler only ever skips forward from; reported for
    # reference — the measured rounds additionally include the
    # all-pairs drain phase.
    config = SystemConfig(
        machines=p.machines, topology=p.topology, latency=p.latency,
        shards=top, backbone_latency=p.backbone_latency,
    )
    plan = ShardPlan.build(config, config.build_topology())
    static_rounds = 2 * len(
        rendezvous_schedule(plan.pair_periods, p.duration)
    )
    assert syncs[top]["windows_elided"] > 0

    cores = os.cpu_count() or 1
    speedups = {
        n: walls[1] / max(walls[n], 1e-9)
        for n in shard_counts
        if n > 1
    }
    if speedup_floor is not None and cores >= 4 and 4 in speedups:
        assert speedups[4] >= speedup_floor, (
            f"shards=4 speedup {speedups[4]:.2f}x on a {cores}-core "
            f"host, floor {speedup_floor}x"
        )

    print_table(
        f"E11: run-ahead execution ({p.machines} machines, shards "
        f"{list(shard_counts)}, backbone {p.backbone_latency}us)",
        ["metric", "value"],
        [
            [f"sync rounds x{n} (gated)", syncs[n]["rounds"]]
            for n in shard_counts if n > 1
        ]
        + [
            [f"sync bytes x{n} (gated)", syncs[n]["bytes_sent"]]
            for n in shard_counts if n > 1
        ]
        + [
            [f"windows elided x{top} (gated)",
             syncs[top]["windows_elided"]],
            [f"static-cadence rounds x{top} (gated)", static_rounds],
            ["events_fired (gated)", ref_events],
        ]
        + [
            [f"wall s x{n} (not gated)", f"{walls[n]:.2f}"]
            for n in shard_counts
        ]
        + [
            [f"speedup x{n} (not gated)", f"{s:.2f}x"]
            for n, s in speedups.items()
        ],
        notes=f"all counters byte-identical across shards "
              f"{list(shard_counts)}; "
              f"wall clock honest for cpu_count={cores}",
    )
    write_bench_artifact(
        p.name,
        {
            **reference,
            **{
                f"runahead_sync_rounds_x{n}": syncs[n]["rounds"]
                for n in shard_counts if n > 1
            },
            **{
                f"runahead_sync_bytes_x{n}": syncs[n]["bytes_sent"]
                for n in shard_counts if n > 1
            },
            f"runahead_windows_elided_x{top}":
                syncs[top]["windows_elided"],
            f"static_cadence_rounds_x{top}": static_rounds,
        },
        meta={
            "machines": p.machines,
            "topology": p.topology,
            "shard_counts_gated": list(shard_counts),
            "lookahead_us": p.latency,
            "backbone_latency_us": p.backbone_latency,
            "events_fired": ref_events,
            "cpu_count": cores,
            **{
                f"wall_seconds_x{n}": round(walls[n], 3)
                for n in shard_counts
            },
            **{
                f"speedup_x{n}": round(s, 2)
                for n, s in speedups.items()
            },
            "paper": "between rendezvous each shard owns a provably "
                     "safe local time range and runs it without "
                     "synchronising; meetings happen only when the "
                     "pair can actually exchange traffic",
        },
    )
    assert reference["pingers_done"] == p.machines * p.pingers_per_server
    assert reference["compute_done"] == reference["compute_jobs"]


def test_e11_shards(bench_once):
    bench_once(_parity_and_report, FULL)


def test_e11_shards_mesh(bench_once):
    bench_once(_parity_and_report, MESH, gate_sync=True)


def test_e11_shards_smoke(bench_once):
    bench_once(_parity_and_report, SMOKE)


def test_e11_shards_xsparse(bench_once):
    bench_once(_parity_and_report, XSPARSE)


def test_e11_shards_runahead(bench_once):
    bench_once(_runahead_and_report, RUNAHEAD, (1, 2, 4, 8), 1.5)


def test_e11_shards_runahead_smoke(bench_once):
    bench_once(_runahead_and_report, RUNAHEAD_SMOKE, (1, 2, 4), None)
