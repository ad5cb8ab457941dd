"""Tests for migration decision policies (§3.1 / §7 continuing work)."""

from repro.kernel.ids import parse_pid
from repro.policy.affinity import AffinityPolicy
from repro.policy.load_balancer import ThresholdLoadBalancer
from repro.policy.metrics import (
    CommunicationMatrix,
    imbalance,
    machine_loads,
    memory_demand,
    migratable_processes,
)
from repro.workloads.compute import compute_bound
from repro.workloads.pingpong import make_pair_programs
from tests.conftest import drain, make_bare_system, make_system


class TestMetrics:
    def test_machine_loads_reflect_run_queues(self):
        system = make_bare_system(machines=2)
        for _ in range(3):
            system.spawn(
                lambda ctx: compute_bound(ctx, total=50_000), machine=0,
            )
        system.run(until=1_000)
        loads = machine_loads(system)
        assert loads[0] >= 2
        assert loads[1] == 0

    def test_imbalance(self):
        assert imbalance({0: 5, 1: 1}) == 4
        assert imbalance({}) == 0
        assert imbalance({0: 2, 1: 2}) == 0

    def test_memory_demand(self):
        system = make_bare_system(machines=2)
        system.spawn(lambda ctx: iter(()), machine=0)
        demand = memory_demand(system)
        assert demand[0] > 0 and demand[1] == 0

    def test_migratable_excludes_named_servers(self):
        system = make_bare_system(machines=2)
        system.spawn(lambda ctx: compute_bound(ctx, total=10**6),
                     machine=0, name="keep-me")
        system.spawn(lambda ctx: compute_bound(ctx, total=10**6),
                     machine=0, name="pinned")
        system.run(until=1_000)
        movable = migratable_processes(
            system, 0, exclude_names=frozenset({"pinned"}),
        )
        names = {system.process_state(p).name for p in movable}
        assert names == {"keep-me"}

    def test_communication_matrix_counts_pairs(self):
        system = make_bare_system(machines=2)
        matrix = CommunicationMatrix()
        system.tracer.subscribe(matrix.observe)

        def server(ctx):
            while True:
                msg = yield ctx.receive()
                if msg.delivered_link_ids:
                    yield ctx.send(msg.delivered_link_ids[0], op="r")

        def client(ctx, server_pid):
            for _ in range(5):
                reply_link = yield ctx.create_link()
                yield ctx.send(ctx.bootstrap["peer"], op="q",
                              links=(reply_link,))
                yield ctx.receive()
                yield ctx.destroy_link(reply_link)
            yield ctx.exit()

        from repro.kernel.ids import ProcessAddress

        server_pid = system.spawn(server, machine=0)
        client_pid = system.kernel(1).spawn(
            lambda ctx: client(ctx, server_pid),
            extra_links={"peer": ProcessAddress(server_pid, 0)},
        )
        drain(system)
        assert matrix.traffic_between(str(client_pid), str(server_pid)) == 10
        ((pair, count),) = matrix.heaviest_pairs(1)
        assert count == 5


class TestThresholdLoadBalancer:
    def make_imbalanced(self, jobs=6, total=200_000):
        system = make_bare_system(machines=2)
        for _ in range(jobs):
            system.spawn(
                lambda ctx: compute_bound(ctx, total=total), machine=0,
            )
        return system

    def test_balancer_moves_work_to_idle_machine(self):
        system = self.make_imbalanced()
        balancer = ThresholdLoadBalancer(
            system, interval=5_000, threshold=2, sustain=1,
        )
        balancer.install()
        system.run(until=400_000)
        balancer.stop()
        drain(system)
        assert balancer.stats.migrations_started >= 1
        assert balancer.stats.migrations_succeeded >= 1
        # Work genuinely ran on machine 1 afterwards.
        assert system.kernel(1).stats.processes_exited >= 1

    def test_balancer_idle_when_balanced(self):
        system = make_bare_system(machines=2)
        for machine in (0, 1):
            system.spawn(
                lambda ctx: compute_bound(ctx, total=50_000),
                machine=machine,
            )
        balancer = ThresholdLoadBalancer(
            system, interval=5_000, threshold=2, sustain=1,
        )
        balancer.install()
        system.run(until=100_000)
        balancer.stop()
        drain(system)
        assert balancer.stats.migrations_started == 0

    def test_sustain_requires_consecutive_imbalance(self):
        system = self.make_imbalanced(jobs=4, total=30_000)
        balancer = ThresholdLoadBalancer(
            system, interval=5_000, threshold=2, sustain=100,
        )
        balancer.install()
        system.run(until=150_000)
        balancer.stop()
        drain(system)
        assert balancer.stats.migrations_started == 0
        assert balancer.stats.imbalanced_samples > 0

    def test_cooldown_limits_repeat_moves_of_same_pid(self):
        system = make_bare_system(machines=2)
        system.spawn(
            lambda ctx: compute_bound(ctx, total=500_000), machine=0,
            name="only-job",
        )
        # Threshold 1 with a single job: without cooldown it would bounce.
        balancer = ThresholdLoadBalancer(
            system, interval=5_000, threshold=1, sustain=1,
            cooldown=10**9,
        )
        balancer.install()
        system.run(until=300_000)
        balancer.stop()
        drain(system)
        assert balancer.stats.migrations_started <= 1

    def test_stop_prevents_further_samples(self):
        system = self.make_imbalanced()
        balancer = ThresholdLoadBalancer(system, interval=5_000)
        balancer.install()
        balancer.stop()
        system.run(until=50_000)
        assert balancer.stats.samples <= 1


class TestAffinityPolicy:
    def test_parse_pid_round_trip(self):
        from repro.kernel.ids import ProcessId

        assert parse_pid("p2.5") == ProcessId(2, 5)
        assert parse_pid("kernel[2]") is None
        assert parse_pid("px.y") is None

    def test_chatty_pair_colocated(self, board):
        system = make_system()
        leader, follower = make_pair_programs(
            board, rounds=200, key="aff",
        )
        system.spawn(leader, machine=2, name="leader")
        system.spawn(follower, machine=3, name="follower")
        policy = AffinityPolicy(
            system, interval=20_000, message_threshold=10,
        )
        policy.install()
        system.run(until=600_000)
        policy.stop()
        drain(system)
        assert policy.stats.migrations_started >= 1
        leader_rec = board.only("aff-leader")
        follower_rec = board.only("aff-follower")
        assert leader_rec["machine"] == follower_rec["machine"]
