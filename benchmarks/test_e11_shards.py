"""E11 — Sharded parallel execution: determinism parity and speedup.

The sharded engine (``repro.sim.shard``) splits the cluster across
worker processes that run ahead through their safe time ranges and
meet pairwise (``repro.sim.barrier``).  Its whole value rests on one
claim: **the shard count is invisible in the simulation's results**.
These arms run the e11 scenario (``e11.py``) on ``shards=1`` (the
serial reference executor: one keyed loop that meets nobody) and on
``shards=N`` forked workers, assert every gated counter is
byte-identical, gate the synchronisation traffic exactly, and report
the wall-clock speedup (meta only, not gated: wall time depends on the
host).

Beside 1 ms wires, the arms differ from the classic ones in one record
field: a balancer domain per torus row, so no domain straddles a shard
and no forced move carries a live process generator across a fork.
"""

from __future__ import annotations

import os
from dataclasses import replace

import e11

from repro.sim.barrier import rendezvous_schedule
from repro.sim.shard import ShardPlan

PAPER = (
    "per-processor kernels make the machine the unit of distribution; "
    "conservative windows keep the simulation bit-exact across workers"
)
RUNAHEAD_PAPER = (
    "between rendezvous each shard runs its provably safe time range "
    "alone; a pair meets only when it can exchange traffic"
)


def sweep(p: e11.Arm, counts: tuple[int, ...]) -> dict[int, e11.Run]:
    """Run *p* at every shard count; each must equal the serial shards=1."""
    runs = {
        n: e11.run(replace(p, shards=n), "serial" if n == 1 else "fork")
        for n in counts
    }
    metrics = runs[1].counters
    for n, run in runs.items():
        diverged = {
            key: (value, run.counters[key])
            for key, value in metrics.items()
            if run.counters[key] != value
        }
        assert not diverged, f"shards={n} diverged from shards=1: {diverged}"
        assert run.events == runs[1].events, (n, run.events)
    # Sanity floor, same spirit as the classic e11 checks.
    assert metrics["pingers_done"] == p.machines * p.clients
    assert metrics["compute_done"] == metrics["compute_jobs"]
    assert metrics["balancer_migrations"] >= 1
    assert metrics["link_updates_applied"] >= 1
    return runs


def parity(p: e11.Arm, gate_sync: bool = False) -> None:
    """shards=1 vs forked shards=N; *gate_sync* pins the forked run's
    rendezvous traffic too."""
    runs = sweep(p, (1, p.shards))
    metrics = dict(runs[1].counters)
    if gate_sync:
        metrics.update(runs[p.shards].sync)
    e11.publish(p, runs, metrics, PAPER)


def runahead(
    p: e11.Arm, counts: tuple[int, ...], speedup_floor: float | None
) -> None:
    """Every shard count lands on shards=1 bit for bit, the schedule
    crosses grid windows without meeting, its sync traffic is pinned,
    and — when the host has the cores — the wall-clock curve bends."""
    runs = sweep(p, counts)
    top = max(counts)
    # Meeting at every period multiple: the cadence run-ahead only ever
    # skips forward from (the measured rounds also count the drain).
    config = e11.config(replace(p, shards=top))
    plan = ShardPlan.build(config, config.build_topology())
    static_rounds = 2 * len(rendezvous_schedule(plan.pair_periods, p.duration))
    cores = os.cpu_count() or 1
    if speedup_floor is not None and cores >= 4 and 4 in runs:
        speedup = runs[1].wall / max(runs[4].wall, 1e-9)
        assert speedup >= speedup_floor, (
            f"shards=4 speedup {speedup:.2f}x on a {cores}-core "
            f"host, floor {speedup_floor}x"
        )
    metrics = dict(runs[1].counters)
    for n in counts[1:]:
        metrics[f"runahead_sync_rounds_x{n}"] = runs[n].sync["sync_rounds"]
        metrics[f"runahead_sync_bytes_x{n}"] = runs[n].sync["sync_bytes_sent"]
    elided = runs[top].sync["sync_windows_elided"]
    assert elided > 0
    metrics[f"runahead_windows_elided_x{top}"] = elided
    metrics[f"static_cadence_rounds_x{top}"] = static_rounds
    e11.publish(p, runs, metrics, RUNAHEAD_PAPER)


def test_e11_shards(bench_once):
    bench_once(parity, e11.SHARDS)


def test_e11_shards_mesh(bench_once):
    bench_once(parity, e11.SHARDS_MESH, gate_sync=True)


def test_e11_shards_smoke(bench_once):
    bench_once(parity, e11.SHARDS_SMOKE)


def test_e11_shards_xsparse(bench_once):
    bench_once(parity, e11.SHARDS_XSPARSE)


def test_e11_shards_runahead(bench_once):
    bench_once(runahead, e11.SHARDS_RUNAHEAD, (1, 2, 4, 8), 1.5)


def test_e11_shards_runahead_smoke(bench_once):
    bench_once(runahead, e11.SHARDS_RUNAHEAD_SMOKE, (1, 2, 4), None)
