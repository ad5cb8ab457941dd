"""Unit tests for the sharded parallel execution engine.

Covers the partitioner, the window-grid math, the ``ShardedSystem``
lifecycle under both executors, and the determinism gate in miniature:
every counter identical for every shard count.
"""

import pytest

from repro.core.config import SystemConfig
from repro.errors import ConfigError, SimulationError
from repro.net.channel import FaultPlan
from repro.sim.barrier import HopRecord, window_end
from repro.sim.loop import KeyedEventLoop
from repro.sim.shard import (
    ShardedSystem,
    partition_machines,
    shard_alignment,
)
from repro.stats.collector import collect_report
from repro.workloads.pingpong import echo_server, pinger
from repro.workloads.results import ResultsBoard


def sharded(machines=8, shards=2, topology="torus", **overrides):
    return ShardedSystem(SystemConfig(
        machines=machines, shards=shards, topology=topology, **overrides,
    ))


class TestPartitioner:
    def test_contiguous_and_near_even(self):
        groups = partition_machines(list(range(10)), 3)
        assert groups == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]

    def test_alignment_keeps_units_whole(self):
        groups = partition_machines(list(range(12)), 2, alignment=4)
        assert groups == [[0, 1, 2, 3, 4, 5, 6, 7], [8, 9, 10, 11]]
        for group in groups:
            assert len(group) % 4 == 0

    def test_single_shard_takes_everything(self):
        assert partition_machines(list(range(5)), 1) == [list(range(5))]

    def test_more_shards_than_units_rejected(self):
        with pytest.raises(ConfigError, match="cannot split"):
            partition_machines(list(range(8)), 3, alignment=4)

    def test_non_dividing_alignment_rejected(self):
        with pytest.raises(ConfigError, match="do not divide"):
            partition_machines(list(range(10)), 2, alignment=4)

    def test_zero_shards_rejected(self):
        with pytest.raises(ConfigError, match="shards must be >= 1"):
            partition_machines(list(range(4)), 0)

    def test_torus_alignment_is_row_width(self):
        # 16 machines -> 4x4 torus, a row is 4 machines.
        config = SystemConfig(machines=16, topology="torus")
        assert shard_alignment(config) == 4

    def test_cliques_alignment_is_clique_size(self):
        config = SystemConfig(machines=12, topology="cliques")
        assert shard_alignment(config) == 3

    def test_dense_shapes_partition_freely(self):
        assert shard_alignment(SystemConfig(machines=9)) == 1
        assert shard_alignment(
            SystemConfig(machines=8, topology="hypercube")
        ) == 1


class TestWindowMath:
    def test_window_end_snaps_to_grid(self):
        assert window_end(0, 100) == 100
        assert window_end(99, 100) == 100
        assert window_end(100, 100) == 200
        assert window_end(250, 100) == 300

    def test_sort_records_is_canonical(self):
        # The canonical order is the keyed loop's: it files each record
        # under its own data, whatever order they were handed over in.
        records = [
            HopRecord(200, 1, 2, 1, "b"),
            HopRecord(100, 3, 0, 2, "a"),
            HopRecord(100, 1, 2, 2, "c"),
            HopRecord(100, 1, 2, 1, "d"),
        ]
        loop = KeyedEventLoop(100)
        ordered = []
        for record in records:
            loop.schedule_record(record, ordered.append, record)
        loop.run()
        assert [(r.arrival, r.src, r.dst, r.wire_seq) for r in ordered] == [
            (100, 1, 2, 1), (100, 1, 2, 2), (100, 3, 0, 2), (200, 1, 2, 1),
        ]


class TestShardPlan:
    def test_lookahead_is_min_wire_latency(self):
        system = sharded(machines=8, shards=2, latency=70)
        assert system.plan.lookahead == 70

    def test_shard_of_covers_every_machine(self):
        system = sharded(machines=16, shards=4)
        seen = {}
        for index, group in enumerate(system.plan.shards):
            for machine in group:
                assert system.plan.shard_of(machine) == index
                seen[machine] = index
        assert sorted(seen) == list(range(16))

    def test_unknown_machine_rejected(self):
        system = sharded()
        with pytest.raises(ConfigError, match="no machine"):
            system.plan.shard_of(99)

    def test_torus_rows_never_straddle_shards(self):
        system = sharded(machines=16, shards=4)  # 4x4 torus
        for row in range(4):
            shards = {
                system.plan.shard_of(m)
                for m in range(row * 4, row * 4 + 4)
            }
            assert len(shards) == 1


class TestConfigValidation:
    def test_more_shards_than_machines_rejected(self):
        with pytest.raises(ConfigError, match="cannot split"):
            SystemConfig(machines=2, shards=3).validate()

    def test_zero_latency_sharding_rejected(self):
        with pytest.raises(ConfigError, match="lookahead"):
            SystemConfig(machines=4, shards=2, latency=0).validate()

    def test_single_shard_zero_latency_still_fine(self):
        config = SystemConfig(machines=4, shards=1, latency=0)
        config.validate()  # the single-loop System needs no lookahead
        # ...the sharded engine does, whatever the shard count, and
        # says so when it is built rather than mid-run.
        with pytest.raises(ConfigError, match="lookahead"):
            ShardedSystem(config)


class TestShardedSystemBuild:
    def test_kernels_distributed_by_plan(self):
        system = sharded(machines=8, shards=2)
        assert len(system.shards) == 2
        for shard in system.shards:
            assert sorted(shard.kernels) == shard.machines
            for machine, kernel in shard.kernels.items():
                assert kernel.machine == machine
                assert kernel.loop is shard.loop
        assert system.kernel(5).machine == 5

    def test_boots_same_servers_as_classic_system(self):
        from tests.conftest import make_system

        classic = make_system(machines=8, topology="torus")
        shard_sys = sharded(machines=8, shards=2)
        assert shard_sys.well_known.keys() == classic.well_known.keys()
        assert {
            str(pid) for pid in shard_sys.server_pids.values()
        } == {str(pid) for pid in classic.server_pids.values()}

    def test_domain_view_must_stay_in_one_shard(self):
        system = sharded(machines=16, shards=4)
        view = system.domain_view([0, 1, 2, 3])
        assert [k.machine for k in view.kernels] == [0, 1, 2, 3]
        assert view.kernel(2).machine == 2
        with pytest.raises(ConfigError, match="not in shard"):
            system.domain_view([0, 15])
        with pytest.raises(ConfigError, match="outside this domain"):
            view.kernel(15)
        with pytest.raises(ConfigError, match="at least one machine"):
            system.domain_view([])

    def test_repr_mentions_shards(self):
        assert "shards=2" in repr(sharded())


def pingpong_scenario(system):
    """Echo server + pinger per machine; returns the per-shard boards."""
    boards = [ResultsBoard() for _ in system.shards]
    count = system.config.machines
    for m in system.topology.machines:
        system.spawn(
            lambda ctx, _m=m: echo_server(ctx, service_name=f"echo-{_m}"),
            machine=m, name=f"echo-{m}",
        )
        client = (m + 3) % count
        board = boards[system.plan.shard_of(client)]
        system.schedule_spawn(
            30_000 + 500 * m, client,
            lambda ctx, _m=m, _b=board: pinger(
                ctx, service_name=f"echo-{_m}", rounds=3,
                board=_b, key=f"p{_m}",
            ),
            name=f"pinger-{m}",
        )
    return boards


def fingerprint(system):
    """Everything that must not depend on the shard count — which the
    synchronisation traffic does (a one-shard run meets nobody)."""
    report = collect_report(system).to_dict()
    sync = report.pop("sync_overhead")
    if len(system.shards) == 1:
        assert not any(sync.values())
    else:
        assert sync["rounds"] > 0
    report["events_fired"] = system.events_fired()
    return report


class TestSerialExecution:
    def test_quiesces_and_counts_events(self):
        system = sharded()
        pingpong_scenario(system)
        system.drain()
        assert system.quiescent()
        assert system.events_fired() > 0
        assert system.now() > 0

    def test_run_until_stops_all_clocks_at_horizon(self):
        system = sharded()
        pingpong_scenario(system)
        system.run(until=40_000)
        assert all(s.loop.now == 40_000 for s in system.shards)

    def test_shard_count_does_not_change_any_counter(self):
        reference = None
        for shards in (1, 2):
            system = sharded(machines=8, shards=shards)
            pingpong_scenario(system)
            system.drain()
            report = fingerprint(system)
            if reference is None:
                reference = report
            else:
                assert report == reference

    def test_faulty_network_parity(self):
        faults = FaultPlan(
            drop_probability=0.05, duplicate_probability=0.02,
            max_jitter=30,
        )
        reports = []
        for shards in (1, 2):
            system = sharded(machines=8, shards=shards, faults=faults)
            pingpong_scenario(system)
            system.drain()
            reports.append(fingerprint(system))
        assert reports[0] == reports[1]
        assert reports[0]["network"]["packets_dropped"] > 0

    def test_cross_shard_migration_works_serially(self):
        system = sharded(machines=8, shards=2)
        progress = []

        def worker(ctx):
            while True:
                yield ctx.compute(5_000)
                progress.append(ctx.machine)

        pid = system.spawn(worker, machine=0, name="subject")
        dest = system.shards[1].machines[0]
        ticket = system.migrate(pid, dest)
        system.run(until=2_000_000)
        assert ticket.done and ticket.success
        assert system.where_is(pid) == dest
        assert dest in progress

    def test_schedule_migration_skips_absent_pid(self):
        system = sharded(machines=8, shards=2)

        def short_lived(ctx):
            yield ctx.compute(1_000)
            yield ctx.exit()

        pid = system.spawn(short_lived, machine=2, name="gone")
        # By 500ms the process has long exited; the request must be
        # skipped, not crash or migrate a recycled slot.
        system.schedule_migration(500_000, pid, 2, 3)
        system.run(until=1_000_000)
        system.drain()
        assert not system.migration_records()

    def test_migration_records_merged_across_shards(self):
        system = sharded(machines=8, shards=2)

        def parked(ctx):
            while True:
                yield ctx.receive()

        pid = system.spawn(parked, machine=1, name="subject")
        system.schedule_migration(10_000, pid, 1, 2)
        system.run(until=1_000_000)
        records = system.migration_records()
        assert len(records) == 1
        assert records[0].source == 1 and records[0].dest == 2


def forever(ctx):
    while True:
        yield ctx.sleep(500)


class TestEventBudget:
    """``run(max_events=...)`` is the same hang guard ``System.run``
    has, checked between drain rounds and at meetings."""

    def test_budget_stops_a_run_that_never_drains(self):
        system = sharded(boot_servers=False)
        system.spawn(forever, machine=5, name="forever")
        fired = system.run(max_events=1_000)
        # At most one round past the budget: one 100us window here.
        assert 1_000 <= fired < 1_010
        assert not system.quiescent()
        # Stopped between rounds, so the run resumes where it stopped.
        assert system.run(max_events=1_000) >= 1_000
        assert system.events_fired() >= 2_000

    def test_a_budget_cut_horizon_resumes_to_identical_counters(self):
        straight = sharded()
        pingpong_scenario(straight)
        straight.run(until=120_000)
        cut = sharded()
        pingpong_scenario(cut)
        assert cut.run(until=120_000, max_events=500) >= 500
        assert cut.now() < 120_000
        cut.run(until=120_000)
        assert all(s.loop.now == 120_000 for s in cut.shards)
        assert fingerprint(cut) == fingerprint(straight)

    def test_one_shard_drains_in_one_run_stopped_exactly_at_the_budget(
        self,
    ):
        system = sharded(shards=1, boot_servers=False)
        system.spawn(forever, machine=5, name="forever")
        assert system.run(max_events=1_000) == 1_000
        assert system.run(max_events=1_000) == 1_000
        assert system.events_fired() == 2_000

    def test_one_shard_drain_leaves_the_clock_at_its_last_window_end(self):
        system = sharded(shards=1, boot_servers=False)
        grid = system.barrier_grid
        system.call_at(123 * grid + 45, 3, lambda: None)
        system.drain()
        assert system.now() == 124 * grid - 1


class TestForkExecution:
    def test_fork_matches_serial(self):
        def run(executor, shards):
            system = sharded(machines=8, shards=shards)
            pingpong_scenario(system)
            results = system.execute(
                None,
                lambda shard: (
                    shard.metrics.snapshot(),
                    shard.loop.events_fired,
                ),
                executor=executor,
            )
            from repro.obs.metrics import merge_snapshots

            merged = merge_snapshots([r[0] for r in results])
            return (
                {
                    name: merged.total(name)
                    for name in merged.counters
                    # sync overhead counts barrier traffic between
                    # workers — real work, but by construction a
                    # function of the shard count (shards=1 has no
                    # peers), so it is not part of the parity set
                    if not name.startswith("sim.sync.")
                },
                sum(r[1] for r in results),
            )

        assert run("fork", 2) == run("serial", 1)

    def test_forked_system_cannot_be_reused(self):
        system = sharded()
        pingpong_scenario(system)
        system.execute(None, lambda shard: None, executor="fork")
        with pytest.raises(SimulationError, match="stale"):
            system.run()

    def test_unknown_executor_rejected(self):
        system = sharded()
        with pytest.raises(ConfigError, match="unknown executor"):
            system.execute(None, lambda shard: None, executor="threads")

    def test_worker_death_reported_not_hung(self):
        system = sharded(machines=8, shards=2)
        pingpong_scenario(system)
        # A live generator cannot cross the result pipe: the worker
        # dies trying to pickle it, and the parent must turn that into
        # a diagnosis instead of deadlocking.
        with pytest.raises(SimulationError, match="died"):
            system.execute(
                None,
                lambda shard: next(iter(
                    shard.kernels.values()
                )).processes,
                executor="fork",
            )


class TestShardNetworkOwnership:
    def test_fault_plans_touch_only_owned_wires(self):
        system = sharded()
        first, second = (shard.network for shard in system.shards)
        plan = FaultPlan(drop_probability=0.5)
        # Wire pair 0-4 straddles the boundary: handed the same plan,
        # each network rewrites its own outbound wire and nothing else.
        for network in (first, second):
            network.set_faults(plan, 0, 4)
        assert list(first._channels) == [(0, 4)]
        assert list(second._channels) == [(4, 0)]
        assert first._channels[(0, 4)].faults is plan
        assert second._channels[(4, 0)].faults is plan
        # The all-wires form moves only this network's default.
        first.set_faults(plan)
        assert first._default_faults is plan
        assert second._default_faults is not plan
        # One network flipping its routing alone would desynchronise
        # the shards: the crash entry point is the cluster's, which
        # fans the redirect out to every shard.
        system.crash_transport(0, 5)
        assert [
            shard.network.effective_destination(0)
            for shard in system.shards
        ] == [5, 5]
