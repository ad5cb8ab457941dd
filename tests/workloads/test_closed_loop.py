"""Tests for the closed-loop client pool.

Covers the pool mechanics (quotas, service cycling, latency recording),
the seed-determinism property the benchmark baselines rely on, and the
§4 transparency regression: a client awaiting a reply from a process
that migrates mid-request gets exactly one reply — no duplicate, no
loss — whether the migration catches the request in service or in
flight through the forwarding path.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.servers.common import lookup_service, rpc
from repro.workloads.closed_loop import (
    REQUEST_LATENCY_METRIC,
    ClientPool,
    ClosedLoopConfig,
)
from repro.workloads.pingpong import echo_server
from tests.conftest import drain, make_system

BOUNDED = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def run_pool(
    seed: int,
    clients: int,
    requests: int,
    mean_think: int,
    migrate_at: int | None = 40_000,
):
    """One fresh system: echo server on machine 1, pool spread across
    machines, optional forced server migration mid-run."""
    system = make_system(machines=4, seed=seed)
    server = system.spawn(lambda ctx: echo_server(ctx), machine=1,
                          name="echo")
    pool = ClientPool(
        system,
        ClosedLoopConfig(
            clients=clients,
            requests_per_client=requests,
            mean_think_us=mean_think,
        ),
    )
    pool.install()
    if migrate_at is not None:
        system.loop.call_at(migrate_at, lambda: system.migrate(server, 3))
    drain(system)
    return system, pool


class TestClientPool:
    def test_every_client_completes_its_quota(self):
        system, pool = run_pool(seed=0, clients=3, requests=5,
                                mean_think=1_000)
        assert pool.request_counts == [5, 5, 5]
        assert pool.done
        assert len(pool.spawned) == 3
        assert len(pool.board.get("closed-loop")) == 3

    def test_latencies_recorded_in_registry(self):
        system, pool = run_pool(seed=0, clients=2, requests=4,
                                mean_think=500)
        snap = system.metrics.snapshot()
        histogram = snap.histogram(REQUEST_LATENCY_METRIC)
        assert histogram.count == 8
        assert histogram.min > 0
        assert histogram.p50 <= histogram.p95 <= histogram.p99
        assert histogram.p99 <= histogram.max
        assert snap.total("workload.requests_completed") == 8

    def test_services_cycle_across_clients(self):
        system = make_system(machines=4)
        for m, name in ((1, "echo-a"), (2, "echo-b")):
            system.spawn(
                lambda ctx, _n=name: echo_server(ctx, service_name=_n),
                machine=m,
            )
        pool = ClientPool(
            system,
            ClosedLoopConfig(clients=4, requests_per_client=2,
                             mean_think_us=0),
            services=("echo-a", "echo-b"),
        )
        pool.install()
        drain(system)
        targeted = sorted(r["service"] for r in pool.board.get("closed-loop"))
        assert targeted == ["echo-a", "echo-a", "echo-b", "echo-b"]

    def test_zero_think_time_supported(self):
        system, pool = run_pool(seed=0, clients=2, requests=3, mean_think=0,
                                migrate_at=None)
        assert pool.done

    def test_disabled_metrics_registry_still_completes(self):
        system = make_system(machines=4, metrics_enabled=False)
        system.spawn(lambda ctx: echo_server(ctx), machine=1)
        pool = ClientPool(
            system, ClosedLoopConfig(clients=2, requests_per_client=3),
        )
        pool.install()
        drain(system)
        assert pool.done
        assert system.metrics.snapshot().histogram(
            REQUEST_LATENCY_METRIC
        ) is None

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ClosedLoopConfig(clients=0).validate()
        with pytest.raises(ConfigError):
            ClosedLoopConfig(requests_per_client=0).validate()
        with pytest.raises(ConfigError):
            ClosedLoopConfig(mean_think_us=-1).validate()

    def test_empty_service_list_rejected(self):
        system = make_system(machines=2)
        with pytest.raises(ConfigError):
            ClientPool(system, services=())


class TestClosedLoopDeterminism:
    @BOUNDED
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        clients=st.integers(min_value=1, max_value=5),
        requests=st.integers(min_value=1, max_value=5),
        mean_think=st.sampled_from([0, 700, 2_500]),
    )
    def test_same_seed_same_counts_and_buckets(
        self, seed, clients, requests, mean_think
    ):
        """Same seed + config => byte-identical request-count and bucket
        -count vectors across two fresh System runs."""

        def observe(run):
            system, pool = run
            histogram = system.metrics.snapshot().histogram(
                REQUEST_LATENCY_METRIC
            )
            return (
                list(pool.request_counts),
                histogram.bucket_counts,
                histogram.count,
                histogram.sum,
                histogram.min,
                histogram.max,
            )

        first = observe(run_pool(seed, clients, requests, mean_think))
        second = observe(run_pool(seed, clients, requests, mean_think))
        assert first == second
        assert first[0] == [requests] * clients

    def test_different_seeds_differ_in_think_times(self):
        # Not a guarantee for every pair, but these two must diverge:
        # think times are the only stochastic input.
        _, pool_a = run_pool(seed=1, clients=2, requests=4, mean_think=5_000)
        _, pool_b = run_pool(seed=2, clients=2, requests=4, mean_think=5_000)
        assert pool_a._think_times != pool_b._think_times


class TestMidMigrationReply:
    def test_exactly_one_reply_when_server_migrates_in_service(self):
        """The server migrates while computing on the request; the client
        still receives exactly one reply, from the new machine."""
        system = make_system(machines=4)
        server = system.spawn(
            lambda ctx: echo_server(ctx, compute_per_request=100_000),
            machine=1, name="echo",
        )
        replies = []

        def client(ctx):
            service = yield from lookup_service(ctx, "echo")
            reply = yield from rpc(ctx, service, "echo", {"round": 0})
            replies.append(reply.payload)
            # A duplicate or stray forwarded copy would land here.
            extra = yield ctx.receive(timeout=300_000)
            assert extra is None
            yield ctx.exit()

        system.spawn(client, machine=2, name="client")
        # Well inside the 100ms service window: request in service.
        system.loop.call_at(40_000, lambda: system.migrate(server, 3))
        drain(system)
        assert len(replies) == 1
        assert replies[0]["echo"]["round"] == 0
        assert replies[0]["machine"] == 3

    def test_exactly_one_reply_when_request_chases_through_forwarding(self):
        """The request leaves after the server has already moved, reaches
        the stale machine, and is forwarded; still exactly one reply."""
        system = make_system(machines=4)
        server = system.spawn(lambda ctx: echo_server(ctx), machine=1,
                              name="echo")
        replies = []

        def client(ctx):
            service = yield from lookup_service(ctx, "echo")
            # Wait out the migration so the link is stale when we send.
            yield ctx.sleep(80_000)
            reply = yield from rpc(ctx, service, "echo", {"round": 7})
            replies.append(reply.payload)
            extra = yield ctx.receive(timeout=300_000)
            assert extra is None
            yield ctx.exit()

        system.spawn(client, machine=2, name="client")
        system.loop.call_at(20_000, lambda: system.migrate(server, 3))
        drain(system)
        assert len(replies) == 1
        assert replies[0]["echo"]["round"] == 7
        assert replies[0]["machine"] == 3
        assert replies[0]["forwarded"] >= 1

    def test_pool_completes_through_repeated_server_churn(self):
        """A whole pool keeps its exactly-once request/reply pairing
        while the server hops machines repeatedly mid-conversation."""
        system = make_system(machines=4)
        server = system.spawn(
            lambda ctx: echo_server(ctx, compute_per_request=2_000),
            machine=1, name="echo",
        )
        pool = ClientPool(
            system,
            ClosedLoopConfig(clients=4, requests_per_client=10,
                             mean_think_us=1_500),
        )
        pool.install()
        for i, dest in enumerate((3, 0, 2, 1)):
            system.loop.call_at(
                30_000 + 40_000 * i,
                lambda _d=dest: system.migrate(server, _d),
            )
        drain(system)
        assert pool.request_counts == [10] * 4
        histogram = system.metrics.snapshot().histogram(
            REQUEST_LATENCY_METRIC
        )
        assert histogram.count == 40
        moved = [
            r for r in pool.board.get("closed-loop")
            if len(r["server_machines"]) > 1
        ]
        assert moved, "no client ever saw the server on a second machine"
