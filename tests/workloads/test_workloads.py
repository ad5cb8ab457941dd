"""Tests for the synthetic workload programs and generators."""

from repro.core.config import SystemConfig
from repro.sim.shard import ShardedSystem
from repro.workloads.compute import compute_bound, migratory_compute
from repro.workloads.generators import burst_plan, poisson_plan
from repro.workloads.pingpong import echo_server, make_pair_programs, pinger
from repro.workloads.results import ResultsBoard
from tests.conftest import drain, make_bare_system, make_system


class TestResultsBoard:
    def test_post_and_get(self):
        board = ResultsBoard()
        board.post("k", 1)
        board.post("k", 2)
        assert board.get("k") == [1, 2]

    def test_only_asserts_single(self):
        import pytest

        board = ResultsBoard()
        board.post("k", 1)
        assert board.only("k") == 1
        board.post("k", 2)
        with pytest.raises(AssertionError):
            board.only("k")

    def test_clear_and_len(self):
        board = ResultsBoard()
        board.post("a", 1)
        board.post("b", 2)
        assert len(board) == 2
        board.clear()
        assert len(board) == 0
        assert board.keys() == []


class TestComputeWorkloads:
    def test_compute_bound_posts_summary(self, board):
        system = make_bare_system()
        system.spawn(
            lambda ctx: compute_bound(ctx, total=5_000, board=board),
            machine=0,
        )
        drain(system)
        record = board.only("compute")
        assert record["elapsed"] >= 5_000
        assert record["machines"] == [0]

    def test_migratory_compute_hops(self, board):
        system = make_bare_system()
        system.spawn(
            lambda ctx: migratory_compute(
                ctx, total=20_000, hop_to=2, hop_after=5_000, board=board,
            ),
            machine=0,
        )
        drain(system)
        record = board.only("migratory-compute")
        assert record["hopped"]
        assert record["finished_on"] == 2

    def test_compute_records_machines_visited(self, board):
        system = make_bare_system()
        pid = system.spawn(
            lambda ctx: compute_bound(
                ctx, total=30_000, slice_size=1_000, board=board,
            ),
            machine=0,
        )
        system.loop.call_at(5_000, lambda: system.migrate(pid, 1))
        drain(system)
        record = board.only("compute")
        assert record["machines"] == [0, 1]


class TestPingPong:
    def test_round_trips_recorded(self, board):
        system = make_system()
        system.spawn(lambda ctx: echo_server(ctx), machine=1, name="echo")
        system.spawn(
            lambda ctx: pinger(ctx, rounds=3, board=board, key="p"),
            machine=2,
        )
        drain(system)
        assert len(board.get("p")) == 3
        summary = board.only("p-summary")
        assert summary["rounds"] == 3
        assert all(t["latency"] > 0 for t in summary["transcript"])

    def test_pair_programs_complete(self, board):
        system = make_system()
        leader, follower = make_pair_programs(board, rounds=5)
        system.spawn(leader, machine=1, name="leader")
        system.spawn(follower, machine=2, name="follower")
        drain(system)
        assert board.only("pair-leader")["machine"] == 1
        assert board.only("pair-follower")["elapsed"] > 0


class TestGenerators:
    def test_burst_plan_shape(self):
        plan = burst_plan(lambda ctx: iter(()), machine=2, count=3,
                          start=100, spacing=50)
        assert [a.at for a in plan] == [100, 150, 200]
        assert all(a.machine == 2 for a in plan)

    def test_arrival_generator_spawns_on_schedule(self, board):
        # A plan lands through Cluster.schedule_spawn, one call per
        # arrival, on either engine.
        starts = []

        def job(ctx):
            starts.append((ctx.now, ctx.machine))
            yield from compute_bound(ctx, total=1_000, board=board)

        plan = burst_plan(job, machine=1, count=4, start=1_000, spacing=2_000)
        for cluster in (
            make_bare_system(machines=4),
            ShardedSystem(
                SystemConfig(machines=4, shards=2, boot_servers=False)
            ),
        ):
            for arrival in plan:
                cluster.schedule_spawn(
                    arrival.at, arrival.machine, arrival.program, arrival.name
                )
            drain(cluster)
        assert len(board.get("compute")) == 8
        # Every job starts on its machine, one dispatch after its tick.
        delay = starts[0][0] - plan[0].at
        assert starts == [(a.at + delay, 1) for a in plan] * 2

    def test_poisson_plan_is_deterministic(self):
        system_a = make_bare_system(seed=5)
        system_b = make_bare_system(seed=5)
        plan_a = poisson_plan(
            system_a, lambda ctx: iter(()), rate_per_ms=0.5,
            duration=100_000, machine_weights={0: 0.7, 1: 0.3},
        )
        plan_b = poisson_plan(
            system_b, lambda ctx: iter(()), rate_per_ms=0.5,
            duration=100_000, machine_weights={0: 0.7, 1: 0.3},
        )
        assert [(a.at, a.machine) for a in plan_a] == [
            (b.at, b.machine) for b in plan_b
        ]

    def test_poisson_plan_respects_weights(self):
        system = make_bare_system(seed=1)
        plan = poisson_plan(
            system, lambda ctx: iter(()), rate_per_ms=2.0,
            duration=200_000, machine_weights={0: 0.9, 1: 0.1},
        )
        on_zero = sum(1 for a in plan if a.machine == 0)
        assert on_zero > len(plan) * 0.6
        assert all(a.at < 200_000 for a in plan)
