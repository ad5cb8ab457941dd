"""The workload helpers on the sharded engine.

A pool's clients spawn on their own machines' shard loops and observe
into those shards' registries; the merged snapshot must read the same
for every shard layout, and an arrival plan must land each spawn on
the machine it names.
"""

import pytest

from repro.core.config import SystemConfig
from repro.core.system import System
from repro.sim.shard import ShardedSystem
from repro.workloads.closed_loop import (
    REQUEST_LATENCY_METRIC,
    ClientPool,
    ClosedLoopConfig,
    OpenLoopConfig,
)
from repro.workloads.generators import Arrival
from repro.workloads.pingpong import echo_server
from tests.conftest import drain

POOLS = {
    "closed": ClosedLoopConfig(
        clients=6, requests_per_client=4, mean_think_us=2_000
    ),
    "open": OpenLoopConfig(
        clients=6,
        mean_interarrival_us=20_000,
        duration=120_000,
        deadline_us=40_000,
        drain_grace_us=200_000,
    ),
}


def sharded(shards):
    return ShardedSystem(
        SystemConfig(machines=4, topology="torus", shards=shards, seed=3)
    )


def run_pool(config, shards):
    """Echo server on machine 1, clients on every machine, the server
    migrated across the shard boundary mid-conversation."""
    cluster = sharded(shards)
    server = cluster.spawn(
        lambda ctx: echo_server(ctx), machine=1, name="echo"
    )
    pool = ClientPool(cluster, config)
    pool.install()
    cluster.call_at(30_000, 1, cluster.migrate, server, 3)
    drain(cluster, max_events=5_000_000)
    return cluster, pool


@pytest.mark.parametrize("mode", sorted(POOLS))
def test_pool_reads_the_same_on_every_shard_layout(mode):
    outcomes = []
    for shards in (1, 2):
        cluster, pool = run_pool(POOLS[mode], shards)
        assert pool.done
        assert pool.mismatches == 0
        histogram = cluster.snapshot().histogram(REQUEST_LATENCY_METRIC)
        outcomes.append(
            (
                pool.request_counts,
                histogram.count,
                histogram.p50,
                histogram.p99,
            )
        )
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] > 0


def test_clients_observe_into_their_machines_shard():
    cluster, pool = run_pool(POOLS["closed"], shards=2)
    counts = [
        shard.metrics.snapshot().histogram(REQUEST_LATENCY_METRIC).count
        for shard in cluster.shards
    ]
    # Six clients cycle over machines 0..3: four live on shard 0
    # (machines 0, 1), two on shard 1, four requests each.
    assert counts == [16, 8]
    assert sum(pool.request_counts) == 24


def test_arrival_generator_spawns_each_arrival_on_its_machine():
    def arrivals(cluster):
        seen = []

        def job(ctx):
            seen.append((ctx.now, ctx.machine, ctx.pid.creating_machine))
            yield ctx.exit()

        plan = [
            Arrival(at=1_000 + 700 * i, machine=m, program=job)
            for i, m in enumerate((3, 0, 2, 1, 3))
        ]
        for arrival in plan:
            cluster.schedule_spawn(
                arrival.at, arrival.machine, arrival.program, arrival.name
            )
        drain(cluster)
        return seen

    seen = arrivals(sharded(2))
    machines = [(machine, home) for _, machine, home in seen]
    assert machines == [(m, m) for m in (3, 0, 2, 1, 3)]
    # Each job starts on its own machine's loop at the planned tick
    # plus the dispatch delay, exactly as on the single loop.
    assert seen == arrivals(
        System(SystemConfig(machines=4, topology="torus", seed=3))
    )
