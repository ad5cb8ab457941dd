"""The engine's action interpreters against live systems."""

import pytest

from repro.chaos import (
    ChaosEngine,
    ChaosScenario,
    CrashMachine,
    Evacuation,
    FaultEvent,
    FlakyLinks,
    MigrationStorm,
    Move,
    Partition,
)
from repro.core.config import SystemConfig
from repro.errors import ConfigError, SimulationError
from repro.net.channel import FaultPlan
from repro.sim.shard import ShardedSystem
from repro.workloads.pingpong import echo_server
from tests.conftest import make_system


def parked(ctx):
    while True:
        yield ctx.receive()


class TestCrashAction:
    def test_protected_crash_recovers_onto_executor(self):
        system = make_system(machines=4)
        pid = system.spawn(parked, machine=2, name="victim")
        engine = ChaosEngine(system, ChaosScenario(
            "t", (CrashMachine(at=10_000, machine=2, executor=3),),
        ))
        engine.install()
        system.run(until=50_000)
        assert system.kernel(2).crashed
        assert pid in system.kernel(3).processes
        assert engine.counts == {"crash": 1}
        report = engine.crash_reports[0]
        assert report.recovered == [pid]
        assert report.casualties == []

    def test_unprotected_crash_leaves_casualties(self):
        system = make_system(machines=4)
        pid = system.spawn(parked, machine=2, name="victim")
        engine = ChaosEngine(system, ChaosScenario(
            "t",
            (
                CrashMachine(
                    at=10_000, machine=2, executor=3, protect=False,
                ),
            ),
        ))
        engine.install()
        system.run(until=50_000)
        assert not system.is_alive(pid)
        assert engine.crash_reports[0].casualties == [pid]


class TestPartitionAction:
    def test_partition_stalls_and_heal_releases(self):
        system = make_system(machines=4)
        engine = ChaosEngine(system, ChaosScenario(
            "t",
            (
                Partition(
                    at=5_000, heal_at=40_000,
                    group_a=(0, 1), group_b=(2, 3),
                ),
            ),
        ))
        engine.install()

        delivered = []

        def ponger(ctx):
            yield from echo_server(ctx, service_name="pong")

        def sender(ctx):
            from repro.servers.common import lookup_service, rpc

            service = yield from lookup_service(ctx, "pong")
            yield ctx.sleep(8_000)  # inside the partition window
            reply = yield from rpc(ctx, service, "echo", {"n": 1})
            delivered.append(ctx.now)
            yield ctx.exit()

        system.spawn(ponger, machine=0, name="ponger")
        system.spawn(sender, machine=3, name="sender")
        system.run(until=30_000)
        # Cut at 5ms, request sent around 9ms: still undelivered.
        assert delivered == []
        system.run(until=300_000)
        # Healed at 40ms: retransmission gets it through, exactly once.
        assert len(delivered) == 1
        assert delivered[0] > 40_000
        assert [e.kind for e in engine.ledger()] == ["partition", "heal"]


class TestFlakyAction:
    def test_flaky_window_restores_baseline(self):
        system = make_system(machines=4)
        plan = FaultPlan(drop_probability=0.5, max_jitter=100)
        engine = ChaosEngine(system, ChaosScenario(
            "t", (FlakyLinks(at=1_000, until=2_000, faults=plan),),
        ))
        engine.install()
        baseline = system.network._default_faults
        system.run(until=1_500)
        assert system.network._default_faults is plan
        system.run(until=5_000)
        assert system.network._default_faults is baseline
        assert engine.counts == {"flaky": 1, "flaky-end": 1}


class TestStormAction:
    def test_storm_moves_and_skips_deterministically(self):
        system = make_system(machines=4)
        pid = system.spawn(parked, machine=2, name="mover")
        ghost_pid = system.spawn(parked, machine=3, name="ghost")
        # The ghost exits before the storm fires.
        system.loop.call_at(
            5_000, lambda: system.kernel(3).terminate(ghost_pid)
        )
        engine = ChaosEngine(system, ChaosScenario(
            "t",
            (MigrationStorm(at=10_000, moves=(
                Move(pid, 2, 0), Move(ghost_pid, 3, 0),
            )),),
        ))
        engine.install()
        system.run(until=200_000)
        assert pid in system.kernel(0).processes
        assert engine.counts == {"storm-move": 1, "storm-skip": 1}
        kinds = sorted(e.kind for e in engine.ledger())
        assert kinds == ["storm-move", "storm-skip"]


class TestEvacuationAction:
    def test_drain_refuses_inbound_and_kill_finds_empty_machine(self):
        system = make_system(machines=4)
        resident = system.spawn(parked, machine=2, name="resident")
        outsider = system.spawn(parked, machine=0, name="outsider")
        engine = ChaosEngine(system, ChaosScenario(
            "t",
            (
                Evacuation(
                    drain_at=10_000, machine=2, kill_at=300_000,
                    executor=3, dests=(3,),
                ),
                # Inbound move against the draining machine: refused.
                MigrationStorm(
                    at=20_000, moves=(Move(outsider, 0, 2),),
                ),
            ),
        ))
        engine.install()
        system.run(until=400_000)
        assert system.kernel(2).draining
        assert system.kernel(2).crashed
        assert resident in system.kernel(3).processes
        assert outsider in system.kernel(0).processes
        assert engine.counts["drain-migrations"] == 1
        report = engine.crash_reports[0]
        assert report.recovered == [] and report.casualties == []
        refusals = system.tracer.records("migrate", "refuse-draining")
        assert len(refusals) == 1


class TestEngineDiscipline:
    def test_double_install_rejected(self):
        system = make_system(machines=4)
        engine = ChaosEngine(system, ChaosScenario(
            "t", (CrashMachine(at=1_000, machine=2, executor=3),),
        ))
        engine.install()
        with pytest.raises(SimulationError, match="already installed"):
            engine.install()

    def test_sharded_system_rejects_wire_surgery_actions(self):
        system = ShardedSystem(SystemConfig(
            machines=4, topology="torus", latency=1_000, shards=2,
        ))
        with pytest.raises(ConfigError, match="fault plans"):
            ChaosEngine(system, ChaosScenario(
                "t",
                (
                    Partition(
                        at=1_000, heal_at=2_000,
                        group_a=(0, 1), group_b=(2, 3),
                    ),
                ),
            ))

    def test_sharded_crash_needs_grid_aligned_time(self):
        system = ShardedSystem(SystemConfig(
            machines=4, topology="torus", latency=1_000, shards=2,
        ))
        with pytest.raises(ConfigError, match="window grid"):
            ChaosEngine(system, ChaosScenario(
                "t", (CrashMachine(at=1_500, machine=2, executor=3),),
            ))

    def test_sharded_crash_time_must_not_collide_with_storm(self):
        system = ShardedSystem(SystemConfig(
            machines=4, topology="torus", latency=1_000, shards=2,
        ))
        pid = system.spawn(parked, machine=1, name="mover")
        with pytest.raises(ConfigError, match="collides"):
            ChaosEngine(system, ChaosScenario(
                "t",
                (
                    MigrationStorm(at=10_000, moves=(Move(pid, 1, 3),)),
                    CrashMachine(at=10_000, machine=2, executor=3),
                ),
            ))

    def test_sharded_crash_recovers_across_shards(self):
        # Machine 3 lives in shard 1, executor 1 in shard 0: the runner
        # drives every shard to the crash tick and fires it frozen,
        # recovery moves the live process state across the shard
        # boundary there, the rendezvous schedule re-arms, and the
        # redirect carries later traffic to machine 1.
        system = ShardedSystem(SystemConfig(
            machines=4, topology="torus", latency=1_000, shards=2,
        ))
        pid = system.spawn(parked, machine=3, name="victim")
        engine = ChaosEngine(system, ChaosScenario(
            "t", (CrashMachine(at=10_000, machine=3, executor=1),),
        ))
        engine.install()
        system.drain()
        assert system.kernel(3).crashed
        assert pid in system.kernel(1).processes
        assert engine.counts == {"crash": 1}
        assert engine.crash_reports[0].recovered == [pid]
        for shard in system.shards:
            assert shard.network.effective_destination(3) == 1
        assert engine.ledger() == [
            FaultEvent(10_000, "crash", "machine 3 -> executor 1"),
        ]

    def test_sharded_storm_runs_and_ledgers(self):
        system = ShardedSystem(SystemConfig(
            machines=4, topology="torus", latency=1_000, shards=2,
        ))
        pid = system.spawn(parked, machine=1, name="mover")
        engine = ChaosEngine(system, ChaosScenario(
            "t", (MigrationStorm(at=10_000, moves=(Move(pid, 1, 3),)),),
        ))
        engine.install()
        system.drain()
        assert pid in system.kernel(3).processes
        assert engine.ledger() == [
            FaultEvent(10_000, "storm-move", f"{pid} 1 -> 3"),
        ]
