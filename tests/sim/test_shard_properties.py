"""Property-based tests for the sharded execution engine.

The determinism argument in :mod:`repro.sim.barrier` makes three load-
bearing claims that deserve adversarial inputs rather than examples:
per-sender FIFO survives the barrier handoff, same-tick wakeups batch
identically on both sides of a shard boundary, and the whole observable
state is a function of the scenario alone — never of the shard count.
Plus one regression: a process that migrates across a shard boundary
mid-request answers (and is answered) exactly once.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.kernel.ids import ProcessAddress
from repro.kernel.messages import MessageKind
from repro.net.channel import FaultPlan
from repro.sim.shard import ShardedSystem
from repro.workloads.pingpong import echo_server, pinger
from repro.workloads.results import ResultsBoard
from tests.sim.test_shard import fingerprint

BOUNDED = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

fault_plans = st.builds(
    FaultPlan,
    drop_probability=st.sampled_from([0.0, 0.05, 0.15]),
    duplicate_probability=st.sampled_from([0.0, 0.05]),
    max_jitter=st.sampled_from([0, 40]),
)

seeds = st.integers(min_value=0, max_value=10**6)


def sharded(machines=4, shards=2, **overrides):
    overrides.setdefault("topology", "torus")
    return ShardedSystem(SystemConfig(
        machines=machines, shards=shards, **overrides,
    ))


class TestPerSenderFifo:
    @BOUNDED
    @given(
        gaps=st.lists(
            st.integers(min_value=0, max_value=4_000),
            min_size=1, max_size=12,
        ),
        faults=fault_plans,
        seed=seeds,
    )
    def test_fifo_across_a_shard_boundary(self, gaps, faults, seed):
        """Messages from one sender arrive in send order at a receiver
        in another shard, whatever the channel does in between."""
        system = sharded(boot_servers=False, faults=faults, seed=seed)
        # Machine 0 lives in shard 0, machine 3 in shard 1 (2x2 torus).
        assert system.plan.shard_of(0) != system.plan.shard_of(3)
        received = []

        def sink(ctx):
            while True:
                msg = yield ctx.receive()
                received.append(msg.payload)

        pid = system.spawn(sink, machine=3, name="sink")
        at = 1_000
        for index, gap in enumerate(gaps):
            at += gap
            system.call_at(
                at, 0,
                lambda _i=index: system.kernel(0).send_to_process(
                    ProcessAddress(pid, 3), "n", _i,
                    kind=MessageKind.USER,
                ),
            )
        system.run(until=at)
        system.drain()
        assert received == list(range(len(gaps)))


class TestSameTickWakeups:
    @BOUNDED
    @given(
        schedule=st.lists(
            st.tuples(
                st.sampled_from([10_000, 20_000, 20_000, 30_000]),
                st.integers(min_value=0, max_value=3),
            ),
            min_size=2, max_size=8,
        ),
        seed=seeds,
    )
    def test_colliding_wakeups_batch_identically(self, schedule, seed):
        """Wakeups that collide on one tick — on machines that land in
        different shards — fire in the same relative order for every
        shard count, so the downstream message timings are identical."""

        def run(shards):
            system = sharded(
                shards=shards, boot_servers=False, seed=seed,
            )
            posts = []
            arrivals = []

            def sink(ctx):
                while True:
                    msg = yield ctx.receive()
                    arrivals.append((ctx.now, msg.payload))

            sink_pid = system.spawn(sink, machine=3, name="sink")

            def waker(ctx, tag):
                yield ctx.compute(500)
                posts.append((ctx.now, ctx.machine, tag))
                system.kernel(ctx.machine).send_to_process(
                    ProcessAddress(sink_pid, 3), "poke", tag,
                    kind=MessageKind.USER,
                )
                yield ctx.exit()

            for tag, (at, machine) in enumerate(schedule):
                system.schedule_spawn(
                    at, machine,
                    lambda ctx, _t=tag: waker(ctx, _t),
                    name=f"w{tag}",
                )
            system.drain()
            return sorted(posts), arrivals, fingerprint(system)

        assert run(1) == run(2)


class TestShardCountInvariance:
    @BOUNDED
    @given(
        targets=st.lists(
            st.integers(min_value=0, max_value=7),
            min_size=1, max_size=5,
        ),
        faults=fault_plans,
        seed=seeds,
    )
    def test_full_reports_identical_across_shard_counts(
        self, targets, faults, seed,
    ):
        """The merged system report is a function of the scenario, not
        of how many shards executed it."""

        def run(shards):
            system = ShardedSystem(SystemConfig(
                machines=8, topology="torus", shards=shards,
                faults=faults, seed=seed,
            ))
            boards = [ResultsBoard() for _ in system.shards]
            for m in system.topology.machines:
                system.spawn(
                    lambda ctx, _m=m: echo_server(
                        ctx, service_name=f"echo-{_m}",
                    ),
                    machine=m, name=f"echo-{m}",
                )
            for index, target in enumerate(targets):
                client = (target + 3) % 8
                board = boards[system.plan.shard_of(client)]
                system.schedule_spawn(
                    25_000 + 1_500 * index, client,
                    lambda ctx, _t=target, _b=board, _i=index: pinger(
                        ctx, service_name=f"echo-{_t}", rounds=2,
                        board=_b, key=f"p{_i}",
                    ),
                    name=f"pinger-{index}",
                )
            system.drain()
            rounds = sorted(
                (key, entry["round"], entry["server_machine"])
                for board in boards
                for key in board.keys()
                if not key.endswith("-summary")
                for entry in board.get(key)
            )
            return fingerprint(system), rounds

        assert run(1) == run(2)


class TestMigrationMidRequest:
    @BOUNDED
    @given(
        migrate_at=st.integers(min_value=1_000, max_value=150_000),
        seed=seeds,
    )
    def test_server_crossing_shards_mid_request_replies_exactly_once(
        self, migrate_at, seed,
    ):
        """Regression: a server migrated across the shard boundary in
        the middle of a request stream answers every request exactly
        once — no lost reply at the boundary, no duplicate."""
        rounds = 4
        system = sharded(seed=seed)
        board = ResultsBoard()
        # Server starts on machine 1 (shard 0); machine 3 is in shard 1.
        pid = system.spawn(
            lambda ctx: echo_server(ctx, service_name="svc"),
            machine=1, name="svc",
        )
        system.spawn(
            lambda ctx: pinger(
                ctx, service_name="svc", rounds=rounds,
                board=board, key="p",
            ),
            machine=0, name="client",
        )
        system.schedule_migration(migrate_at, pid, 1, 3)
        system.run(until=2_000_000)
        system.drain()
        replies = board.get("p")
        assert [entry["round"] for entry in replies] == list(range(rounds))
        summary = board.only("p-summary")
        assert summary["rounds"] == rounds
        assert system.where_is(pid) == 3


def delivery_order(
    shape, shard_count, seed, install, horizons, faults=None,
):
    """Per-machine hop-record delivery sequences of one run: echo
    servers everywhere, whatever clients *install* adds."""
    topology, machines, _, backbone = shape
    system = ShardedSystem(SystemConfig(
        machines=machines, topology=topology, latency=1_000,
        shards=shard_count, backbone_latency=backbone,
        faults=faults or FaultPlan(), seed=seed,
        trace_categories=(), metrics_enabled=False,
    ))
    deliveries = {m: [] for m in range(machines)}

    def record_hook(record):
        packet = record.packet
        deliveries[record.dst].append((
            record.arrival, record.src, record.dst,
            record.wire_seq, packet.kind.value, packet.seq,
            packet.payload_bytes,
        ))

    for shard in system.shards:
        shard.network.on_record_delivered = record_hook
    for m in range(machines):
        system.spawn(
            lambda ctx, _m=m: echo_server(ctx, service_name=f"svc-{_m}"),
            machine=m,
        )
    install(system, machines)
    for until in horizons:
        system.run(until=until)
    system.drain()
    return deliveries


class TestElisionOrderEquivalence:
    """For any topology and shard count, the pairwise rendezvous
    schedule delivers every hop record to every machine in exactly the
    order one shard would — one keyed loop that never meets anybody —
    bitwise, per machine."""

    @BOUNDED
    @given(
        shape=st.sampled_from([
            ("torus", 8, 2, None),
            ("torus", 8, 2, 4_000),
            ("torus", 16, 4, 2_000),
            ("torus", 16, 4, None),
            ("cliques", 8, 2, 3_000),
            ("cliques", 16, 4, 2_000),
            ("mesh", 8, 2, None),
        ]),
        faults=fault_plans,
        seed=seeds,
    )
    def test_elided_delivery_order_matches_classic(
        self, shape, faults, seed,
    ):
        def pingers(system, machines):
            for m in range(0, machines, 2):
                system.schedule_spawn(
                    5_000 + 900 * m, (m + 3) % machines,
                    lambda ctx, _m=m: pinger(
                        ctx, service_name=f"svc-{_m}", rounds=3,
                        gap=2_000, board=ResultsBoard(), key="p",
                    ),
                )

        def run(shard_count):
            return delivery_order(
                shape, shard_count, seed, pingers, [250_000], faults,
            )

        assert run(shape[2]) == run(1)

    @BOUNDED
    @given(
        shape=st.sampled_from([
            ("torus", 8, 2, 4_000),
            ("cliques", 8, 2, 3_000),
            ("torus", 16, 4, 2_000),
        ]),
        idle=st.sampled_from([40_000, 90_000]),
        cuts=st.lists(
            st.integers(min_value=1, max_value=399_999),
            min_size=0, max_size=3,
        ),
        seed=seeds,
    )
    def test_runahead_idle_gaps_and_resume_match_classic(
        self, shape, idle, cuts, seed,
    ):
        """The run-ahead scheduler's favourite terrain: short traffic
        bursts separated by long idle stretches (meetings get skipped
        wholesale) with the horizon chopped at arbitrary off-grid ticks
        (every re-entry re-arms the meeting schedule).  Delivery order
        must still be bitwise the single-shard order."""

        def bursts(system, machines):
            # Three bursts, each a single exchange, `idle` apart: the
            # inter-burst stretches are dead air the engine should
            # cross without a rendezvous.
            for burst in range(3):
                target = (2 * burst + 1) % machines
                system.schedule_spawn(
                    5_000 + burst * idle,
                    (target + machines // 2) % machines,
                    lambda ctx, _t=target: pinger(
                        ctx, service_name=f"svc-{_t}", rounds=1,
                        board=ResultsBoard(), key="p",
                    ),
                )

        def run(shard_count, horizons):
            return delivery_order(
                shape, shard_count, seed, bursts, horizons,
            )

        full = [400_000]
        reference = run(1, full)
        assert run(shape[2], sorted(set(cuts)) + full) == reference
        assert run(shape[2], full) == reference
