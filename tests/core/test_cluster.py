"""Contract tests for the ``Cluster`` surface.

Scenarios, policies and chaos are written against
:class:`repro.core.cluster.Cluster`; this file drives every public
method of it once, on one small torus scenario, under each engine
variant — the single-loop ``System`` and ``ShardedSystem`` with one and
two shards — and requires the protocol counters to come out equal.
"""

import dataclasses

import pytest

from repro.chaos.runner import protocol_counters
from repro.chaos.invariants import check_quiescence
from repro.core.cluster import Cluster, DomainView, MigrationTicket, Shard
from repro.core.config import SystemConfig
from repro.core.system import System
from repro.errors import ConfigError
from repro.policy.load_balancer import DomainLoadBalancer
from repro.policy.recovery import CrashRecoveryManager
from repro.sim.shard import ShardedSystem
from repro.stats.collector import collect_report
from repro.workloads.compute import compute_bound
from repro.workloads.pingpong import echo_server, pinger
from repro.workloads.results import ResultsBoard

ENGINES = {
    "system": (System, 1),
    "shards=1": (ShardedSystem, 1),
    "shards=2": (ShardedSystem, 2),
}


def build(engine, machines=8, **overrides) -> Cluster:
    cluster_class, shards = ENGINES[engine]
    return cluster_class(SystemConfig(
        machines=machines, topology="torus", latency=1_000,
        shards=shards, **overrides,
    ))


@pytest.fixture(params=list(ENGINES))
def engine(request):
    return request.param


def parked(ctx):
    while True:
        yield ctx.receive()


# ---------------------------------------------------------------------------
# One scenario, every method, every engine
# ---------------------------------------------------------------------------

DURATION = 300_000
CRASH_AT = 150_000  # on the 1,000us window grid, no other action's tick
VICTIM, EXECUTOR = 6, 7


def drive_everything(engine):
    """Two torus rows of four: echo servers with pingers, a compute
    flood one row's balancer has to spread, a scheduled row-local
    server move, an immediate cross-row move, and a protected
    fail-stop crash — every ``Cluster`` method once."""
    cluster = build(engine, rto=100_000)
    board = ResultsBoard()
    servers = {
        m: cluster.spawn(
            lambda ctx, _m=m: echo_server(ctx, service_name=f"e{_m}"),
            machine=m, name=f"e{m}",
        )
        for m in range(8)
    }
    # Pinger clients keep off the crash victim: fail-stop abandons its
    # unacked sends (see the fuzzer's generator for the same rule).
    for m in (0, 1, 2, 4, 5):
        client = (m + 3) % 8
        assert client != VICTIM
        cluster.schedule_spawn(
            10_000 + 700 * m, client,
            lambda ctx, _m=m: pinger(
                ctx, service_name=f"e{_m}", rounds=4, payload_bytes=32,
                gap=1_000, board=board, key=f"ping-{_m}",
            ),
            name=f"pinger-{m}",
        )
    for index in range(12):
        cluster.schedule_spawn(
            4_000 * index, 0,
            lambda ctx: compute_bound(ctx, total=40_000, board=board),
            name=f"job-{index}",
        )
    view = cluster.domain_view([0, 1, 2, 3])
    balancer = DomainLoadBalancer(
        view, domain="row0", interval=20_000, threshold=3, sustain=2,
        cooldown=100_000,
    )
    balancer.install()
    cluster.call_at(DURATION, 0, balancer.stop)
    cluster.schedule_migration(80_000, servers[1], 1, 3)
    subject = cluster.spawn(parked, machine=2, name="subject")
    ticket = cluster.migrate(subject, dest=5)
    recovery = CrashRecoveryManager(cluster)

    def crash():
        recovery.protect_all(VICTIM)
        recovery.crash(VICTIM, executor=EXECUTOR)

    cluster.call_at_barrier(CRASH_AT, ("crash", VICTIM, EXECUTOR), crash)

    per_shard = cluster.execute(
        DURATION,
        lambda shard: sum(
            kernel.stats.messages_delivered
            for kernel in shard.kernels.values()
        ),
    )
    return cluster, {
        "view": view,
        "ticket": ticket,
        "subject": subject,
        "servers": servers,
        "board": board,
        "balancer": balancer,
        "recovery": recovery,
        "per_shard": per_shard,
    }


def fingerprint(cluster, extras):
    """Everything that must not depend on the engine."""
    report = collect_report(cluster).to_dict()
    for engine_dependent in ("now_us", "sync_overhead"):
        report.pop(engine_dependent)
    return {
        "protocol": protocol_counters(cluster),
        "kernels": [dataclasses.asdict(k.stats) for k in cluster.kernels],
        "migrations": [
            (r.started_at, r.source, r.dest, r.success, r.downtime)
            for r in cluster.migration_records()
        ],
        "forwarding_entries": cluster.total_forwarding_entries(),
        "delivered": sum(extras["per_shard"]),
        "balancer_moves": extras["balancer"].stats.migrations_started,
        "crash": [
            dataclasses.asdict(r) for r in extras["recovery"].reports
        ],
        "where": {
            name: cluster.where_is(pid)
            for name, pid in sorted(extras["servers"].items())
        },
        "report": report,
    }


@pytest.fixture(scope="module")
def runs():
    return {engine: drive_everything(engine) for engine in ENGINES}


class TestClusterContract:
    def test_every_engine_is_a_cluster_of_shards(self, runs, engine):
        cluster, extras = runs[engine]
        assert isinstance(cluster, Cluster)
        assert len(cluster.shards) == ENGINES[engine][1]
        assert len(extras["per_shard"]) == len(cluster.shards)
        for index, shard in enumerate(cluster.shards):
            assert isinstance(shard, Shard) and shard.index == index
            assert sorted(shard.kernels) == shard.machines
        assert [k.machine for k in cluster.kernels] == list(range(8))
        for machine in range(8):
            assert cluster.kernel(machine) is cluster.kernels[machine]
            owner = cluster.shard_for(machine)
            assert owner.kernels[machine] is cluster.kernels[machine]

    def test_the_scenario_did_what_it_says(self, runs, engine):
        cluster, extras = runs[engine]
        ticket = extras["ticket"]
        assert isinstance(ticket, MigrationTicket)
        assert ticket.initiated and ticket.done and ticket.success
        assert cluster.where_is(extras["subject"]) == 5
        assert cluster.is_alive(extras["subject"])
        assert cluster.process_state(extras["subject"]).name == "subject"
        assert cluster.kernel_hosting(extras["subject"]).machine == 5
        assert cluster.where_is(extras["servers"][1]) == 3
        assert isinstance(extras["view"], DomainView)
        assert extras["balancer"].stats.migrations_started > 0
        (crash,) = extras["recovery"].reports
        assert crash.recovered and not crash.casualties
        assert cluster.where_is(extras["servers"][VICTIM]) == EXECUTOR
        assert cluster.kernel(VICTIM).crashed
        assert set(cluster.loads()) == set(range(8))
        for m in (0, 1, 2, 4, 5):
            summary = extras["board"].only(f"ping-{m}-summary")
            assert len(summary["transcript"]) == 4

    def test_inspectors_after_execute(self, runs, engine):
        cluster, _ = runs[engine]
        assert cluster.quiescent()
        assert check_quiescence(cluster) == []
        assert cluster.now() >= DURATION
        assert cluster.events_fired() > 0
        snapshot = cluster.snapshot()
        report = collect_report(cluster)
        assert report.machines == 8
        assert report.now == cluster.now()
        assert report.migrations_completed == int(
            snapshot.total("migration.completed")
        ) == len(cluster.migration_records())

    def test_every_engine_lands_on_the_same_counters(self, runs):
        reference = fingerprint(*runs["system"])
        assert reference["protocol"]["messages_forwarded"] > 0
        assert reference["report"]["network"]["retransmissions"] == 0
        for engine in ("shards=1", "shards=2"):
            assert fingerprint(*runs[engine]) == reference, engine
        # The one engine-level difference: the crash is an event on the
        # single loop and a between-windows action on the runner.
        events = {name: runs[name][0].events_fired() for name in ENGINES}
        assert events["shards=1"] == events["shards=2"]
        assert events["system"] == events["shards=1"] + 1


# ---------------------------------------------------------------------------
# Where the two classes had drifted
# ---------------------------------------------------------------------------


class TestOneAnswerPerQuestion:
    def test_each_kernel_owns_its_config(self, engine):
        """§3.2: a destination may refuse.  Setting one machine's
        verdict must not set its neighbours'."""
        cluster = build(engine, boot_servers=False)
        cluster.kernel(2).config.accept_migration = lambda pid, size: False
        for machine in (0, 1, 3, 7):
            assert cluster.kernel(machine).config.accept_migration is None
        assert cluster.kernel(0).config is not cluster.kernel(3).config

        pid = cluster.spawn(parked, machine=0, name="subject")
        refused = cluster.migrate(pid, dest=2)
        accepted = cluster.migrate(
            cluster.spawn(parked, machine=1, name="other"), dest=3
        )
        cluster.run(until=1_000_000)
        assert refused.done and not refused.success
        assert accepted.done and accepted.success
        assert cluster.where_is(pid) == 0

    @pytest.mark.parametrize("machine", [-1, 8, 99])
    def test_no_such_machine(self, engine, machine):
        cluster = build(engine, boot_servers=False)
        with pytest.raises(ConfigError, match=f"no machine {machine}"):
            cluster.kernel(machine)
        with pytest.raises(ConfigError, match=f"no machine {machine}"):
            cluster.shard_for(machine)
        with pytest.raises(ConfigError, match=f"no machine {machine}"):
            cluster.call_at(1_000, machine, lambda: None)
        with pytest.raises(ConfigError, match=f"no machine {machine}"):
            cluster.spawn(parked, machine=machine)

    def test_an_empty_domain_is_refused(self, engine):
        cluster = build(engine, boot_servers=False)
        with pytest.raises(ConfigError, match="at least one machine"):
            cluster.domain_view([])
        with pytest.raises(ConfigError, match="outside this domain"):
            cluster.domain_view([0, 1]).kernel(2)

    def test_barrier_grid_is_derived_from_the_engine(self, engine):
        cluster = build(engine, boot_servers=False)
        expected = None if engine == "system" else 1_000
        assert cluster.barrier_grid == expected
        with pytest.raises(AttributeError):
            cluster.barrier_grid = 500  # never set by a caller

    def test_quiescence_check_names_the_shard(self, engine):
        from repro.kernel.ids import ProcessAddress
        from repro.kernel.messages import MessageKind

        cluster = build(engine, boot_servers=False)
        pid = cluster.spawn(parked, machine=5, name="target")
        cluster.run(until=2_000)
        cluster.kernel(4).send_to_process(
            ProcessAddress(pid, 5), "probe", {}, kind=MessageKind.USER,
        )
        assert not cluster.quiescent()
        (problem,) = check_quiescence(cluster)
        shard = cluster.shard_for(4).index
        assert problem.startswith(f"shard {shard} transport not quiescent")


class TestSingleLoopExecute:
    def test_fork_is_refused_before_anything_runs(self):
        system = build("system")
        system.schedule_spawn(1_000, 0, parked, name="late")
        with pytest.raises(ConfigError, match="unknown executor 'fork'"):
            system.execute(None, lambda shard: None, executor="fork")
        assert system.events_fired() == 0
        assert system.now() == 0

    def test_call_at_barrier_is_an_ordinary_loop_event(self):
        system = build("system", boot_servers=False)
        fired = []
        # No grid on one loop: any tick will do, and the key is unused.
        system.call_at_barrier(1_234, ("x",), fired.append, "global")
        system.call_at(1_234, 3, fired.append, "anchored")
        system.run()
        assert fired == ["global", "anchored"]
        assert system.now() == 1_234
