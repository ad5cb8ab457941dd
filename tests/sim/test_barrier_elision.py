"""Run-ahead rendezvous: keyed tie-breaks, meeting cadence, sync stats.

The sharded engine's claim is that skipping barriers is unobservable in
the simulation: the keyed event loop orders every hop record by its own
data, so the gated counters are identical for every shard count — the
reference being ``shards=1``, one keyed loop that never meets anybody —
and equal to the single-loop ``System`` on the same scenario.
"""

import dataclasses
import pickle
from collections import Counter
from operator import attrgetter

import pytest

from repro.core.config import SystemConfig
from repro.core.system import System
from repro.errors import ClockError, ConfigError, SimulationError
from repro.net.topology import Topology
from repro.policy.load_balancer import DomainLoadBalancer
from repro.sim.barrier import (
    CapturedPayload,
    HopRecord,
    SerialRunner,
    SyncStats,
    WorkerBarrier,
    pack_blob,
    pack_record,
    rendezvous_schedule,
    unpack_record,
)
from repro.sim.loop import EventLoop, KeyedEventLoop
from repro.sim.shard import ShardedSystem, ShardPlan
from repro.workloads.compute import compute_bound
from repro.workloads.pingpong import echo_server, pinger
from repro.workloads.results import ResultsBoard


# ---------------------------------------------------------------------------
# KeyedEventLoop units
# ---------------------------------------------------------------------------


class TestKeyedEventLoop:
    def test_grid_must_be_positive(self):
        with pytest.raises(ValueError, match="grid"):
            KeyedEventLoop(0)

    def test_locals_keep_schedule_order_within_a_window(self):
        loop = KeyedEventLoop(10)
        fired = []
        loop.call_at(25, fired.append, "a")
        loop.call_after(25, fired.append, "b")
        loop.call_at(25, fired.append, "c")
        loop.run()
        assert fired == ["a", "b", "c"]

    def test_records_slot_between_window_locals(self):
        """The canonical slot: window-g locals, then window-g records,
        then window-g+1 locals — regardless of injection order."""
        loop = KeyedEventLoop(10)
        fired = []
        # Window-1 record injected *before* anything else exists.
        loop.schedule_record(
            HopRecord(25, 0, 1, 1, None, gen=1), fired.append, "rec-g1"
        )
        loop.schedule_record(
            HopRecord(25, 0, 1, 2, None, gen=0), fired.append, "rec-g0-b"
        )
        loop.schedule_record(
            HopRecord(25, 0, 1, 1, None, gen=0), fired.append, "rec-g0-a"
        )
        loop.call_at(25, fired.append, "local-g0")  # now=0 -> window 0
        # Advance the clock into window 1, then schedule another local.
        loop.call_at(12, loop.call_at, 25, fired.append, "local-g1")
        loop.run()
        assert fired == [
            "local-g0", "rec-g0-a", "rec-g0-b", "local-g1", "rec-g1",
        ]

    def test_record_order_is_injection_order_free(self):
        loop_a = KeyedEventLoop(10)
        loop_b = KeyedEventLoop(10)
        records = [
            HopRecord(40, src, dst, seq, None, gen=2)
            for src, dst, seq in [(3, 1, 1), (0, 1, 5), (0, 1, 2)]
        ]
        fired_a, fired_b = [], []
        for r in records:
            loop_a.schedule_record(r, fired_a.append, r)
        for r in reversed(records):
            loop_b.schedule_record(r, fired_b.append, r)
        loop_a.run()
        loop_b.run()
        assert fired_a == fired_b == sorted(
            records, key=attrgetter("arrival", "src", "dst", "wire_seq")
        )

    def test_schedule_record_rejects_past_arrivals(self):
        loop = KeyedEventLoop(10)
        loop.call_at(50, lambda: None)
        loop.run()
        with pytest.raises(ClockError):
            loop.schedule_record(
                HopRecord(25, 0, 1, 1, None), lambda: None
            )


# ---------------------------------------------------------------------------
# Schedule helpers
# ---------------------------------------------------------------------------


class TestRendezvousSchedule:
    def test_pairs_meet_at_their_own_cadence(self):
        schedule = rendezvous_schedule({(0, 1): 2, (1, 2): 3}, 6)
        assert schedule == [
            (2, 0, 1), (3, 1, 2), (4, 0, 1), (6, 0, 1), (6, 1, 2),
        ]

    def test_empty_before_first_period(self):
        assert rendezvous_schedule({(0, 1): 1000}, 999) == []


class TestPackBlob:
    def test_roundtrip(self):
        record = HopRecord(10, 0, 1, 1, "payload", gen=3)
        assert pickle.loads(pack_blob([record])) == [record]


class TestRecordWireFormat:
    """The per-record blob: atom tokens, positional state, envelopes."""

    @staticmethod
    def _record(serial_burn=0):
        from repro.kernel.ids import ProcessAddress, ProcessId
        from repro.kernel.links import (
            DataArea,
            Link,
            LinkAttribute,
            LinkSnapshot,
        )
        from repro.kernel.messages import Message, MessageKind
        from repro.net.packet import Packet, PacketKind

        # Burn serials so two builds of the "same" record come from
        # visibly different counter states (the serial-executor case).
        for _ in range(serial_burn):
            Packet(0, 0, PacketKind.ACK, 0, None, 0)
        snap = LinkSnapshot(
            ProcessAddress(ProcessId(1, 7), 3),
            LinkAttribute.DATA_READ,
            DataArea(0, 64),
        )
        message = Message(
            dest=ProcessAddress(ProcessId(2, 9), 4),
            sender=ProcessAddress(ProcessId(0, 3), 0),
            kind=MessageKind.USER,
            op="req",
            payload={"n": 1},
            payload_bytes=16,
            links=(snap, LinkSnapshot.of(Link(snap.address))),
        )
        message.delivered_link_ids = (9, 10)  # receiver-local noise
        packet = Packet(0, 4, PacketKind.DATA, 5, message, 40)
        return HopRecord(12_000, 0, 4, 5, packet, gen=12)

    def test_roundtrip_restores_the_wire_fields(self):
        from repro.kernel.links import LinkAttribute
        from repro.net.packet import PacketKind

        blob = pack_record(self._record())
        back = unpack_record(blob)
        assert (back.arrival, back.src, back.dst, back.wire_seq) == (
            12_000, 0, 4, 5,
        )
        assert back.gen == 12
        packet = back.packet
        assert packet.kind is PacketKind.DATA
        message = packet.payload
        assert message.op == "req"
        assert message.links[0].attributes is LinkAttribute.DATA_READ
        assert message.dest.pid.local_id == 9
        assert hash(message.dest.pid) == hash(message.dest.pid)

    def test_receiver_local_state_is_minted_fresh(self):
        original = self._record()
        back = unpack_record(pack_record(original))
        # Serials are address-space diagnostics: re-minted, not copied.
        assert back.packet.serial != original.packet.serial
        assert back.packet.payload.serial != original.packet.payload.serial
        # Delivery marks belong to the receiver that made them.
        assert original.packet.payload.delivered_link_ids == (9, 10)
        assert back.packet.payload.delivered_link_ids == ()

    def test_blob_bytes_ignore_producer_counter_state(self):
        """The executor-exactness core: two object graphs that differ
        only in address-space-local counters pack to identical bytes."""
        assert pack_record(self._record()) == pack_record(
            self._record(serial_burn=17)
        )

    def test_unpicklable_payload_packs_as_capture_envelope(self):
        def live():
            yield

        generator = live()
        record = HopRecord(500, 1, 2, 3, generator, gen=0)
        surrogate = unpack_record(pack_record(record))
        captured = surrogate.packet
        assert isinstance(captured, CapturedPayload)
        assert captured.kind == "generator"
        assert captured.size_bytes == 0
        # The envelope's bytes are as deterministic as any other's.
        assert pack_record(record) == pack_record(record)


# ---------------------------------------------------------------------------
# Plan / config wiring
# ---------------------------------------------------------------------------


class TestPairPeriods:
    def test_backbone_pairs_get_coarse_periods(self):
        config = SystemConfig(
            machines=8, topology="torus", latency=1_000,
            backbone_latency=4_000, shards=2,
        )
        plan = ShardPlan.build(config, config.build_topology())
        assert plan.lookahead == 1_000
        assert plan.pair_periods == {(0, 1): 4_000}

    def test_uniform_latency_degenerates_to_the_window_grid(self):
        config = SystemConfig(
            machines=8, topology="torus", latency=1_000, shards=2,
        )
        plan = ShardPlan.build(config, config.build_topology())
        assert plan.pair_periods == {(0, 1): 1_000}

    def test_wireless_pairs_are_absent(self):
        # 4x4 torus in 4 one-row shards: rows form a ring, so shards
        # 0-2 and 1-3 share no wire and must never rendezvous.
        config = SystemConfig(
            machines=16, topology="torus", latency=1_000, shards=4,
        )
        plan = ShardPlan.build(config, config.build_topology())
        assert set(plan.pair_periods) == {
            (0, 1), (1, 2), (2, 3), (0, 3),
        }

    def test_period_snaps_down_to_the_grid(self):
        config = SystemConfig(
            machines=8, topology="torus", latency=1_000,
            backbone_latency=2_500, shards=2,
        )
        plan = ShardPlan.build(config, config.build_topology())
        assert plan.pair_periods == {(0, 1): 2_000}


class TestConfigValidation:
    def test_backbone_needs_a_backbone_topology(self):
        with pytest.raises(ConfigError, match="backbone"):
            SystemConfig(
                machines=8, topology="mesh", backbone_latency=500,
            ).validate()

    def test_backbone_slower_than_local_wires(self):
        with pytest.raises(ConfigError, match="backbone_latency"):
            SystemConfig(
                machines=8, topology="torus", latency=1_000,
                backbone_latency=500,
            ).validate()

    def test_elision_needs_a_keyed_loop(self):
        from repro.net.network import ShardNetwork

        with pytest.raises(SimulationError, match="KeyedEventLoop"):
            ShardNetwork(
                EventLoop(), Topology.line(2, latency=100),
                shard_index=0, shard_of=lambda m: 0, machines=[0, 1],
            )


# ---------------------------------------------------------------------------
# Satellite: WorkerBarrier error paths
# ---------------------------------------------------------------------------


class _StubPeer:
    """Just enough ShardPeer for exercising barrier error paths."""

    def __init__(self, outboxes):
        self._outboxes = outboxes
        self.injected = []

    def next_event_time(self):
        return None

    def run_window(self, deadline):
        raise AssertionError("should not run")

    def advance_to(self, time):
        pass

    def drain_outboxes(self):
        out, self._outboxes = self._outboxes, {}
        return out

    def take_outbox(self, dest):
        return self._outboxes.pop(dest, [])

    def inject(self, records):
        self.injected.extend(records)


class TestWorkerBarrierErrors:
    """The worker's all-pairs drain exchange (``_exchange``)."""

    def test_unknown_destination_shard_is_an_error(self):
        barrier = WorkerBarrier(0, {}, 1_000, {})
        peer = _StubPeer({5: [HopRecord(10, 0, 1, 1, None)]})
        with pytest.raises(RuntimeError, match=r"unknown\s+shards \[5\]"):
            barrier._exchange(peer)

    def test_own_shard_records_loop_back_without_a_pipe(self):
        record = HopRecord(10, 0, 1, 1, None)
        barrier = WorkerBarrier(0, {}, 1_000, {})
        peer = _StubPeer({0: [record]})
        assert barrier._exchange(peer) == 10
        assert peer.injected == [record]
        assert barrier.sync.as_dict() == SyncStats().as_dict()

    def test_dead_worker_is_diagnosed_not_hung(self):
        """A worker that dies in the drain exchange (it refuses the
        captured payload its peer shipped) must surface as
        SimulationError with exit codes, not deadlock its peers."""
        system = _build_pingpong(shards=2, backbone=None)
        # A payload closure over a generator cannot cross the pipe.
        gen = (x for x in range(3))
        system.schedule_spawn(
            40_000, 0,
            lambda ctx: _poison_sender(ctx, gen),
            name="poison",
        )
        # No horizon: the run is drain rounds from the first tick.
        with pytest.raises(SimulationError, match="died.*exit codes"):
            system.execute(None, lambda shard: None, executor="fork")


def _poison_sender(ctx, payload):
    # Machine 0 is in shard 0; the "e7" server is on machine 7 in
    # shard 1 for the 8-machine 2-shard split, so this message must
    # cross the worker pipe — and a generator payload cannot pickle.
    from repro.servers.common import lookup_service

    service = yield from lookup_service(ctx, "e7")
    yield ctx.send(service, op="poison", payload=payload)


# ---------------------------------------------------------------------------
# End-to-end parity
# ---------------------------------------------------------------------------


def _build_pingpong(shards, backbone, machines=8):
    system = ShardedSystem(SystemConfig(
        machines=machines, topology="torus", latency=1_000,
        shards=shards, trace_categories=(), metrics_enabled=False,
        backbone_latency=backbone,
    ))
    boards = [ResultsBoard() for _ in system.shards]
    for m in range(machines):
        system.spawn(
            lambda ctx, _m=m: echo_server(ctx, service_name=f"e{_m}"),
            machine=m,
        )
    for m in range(machines):
        client = (m + 3) % machines
        board = boards[system.plan.shard_of(client)]
        system.schedule_spawn(
            10_000 + 700 * m, client,
            lambda ctx, _m=m, _b=board: pinger(
                ctx, service_name=f"e{_m}", rounds=6,
                payload_bytes=32, gap=1_000, board=_b, key="ping",
            ),
        )
    return system


def _collect(shard):
    kstats = [shard.kernels[m].stats for m in shard.machines]
    return {
        "delivered": sum(s.messages_delivered for s in kstats),
        "spawned": sum(s.processes_spawned for s in kstats),
        "packets": shard.network.stats.packets_sent,
        "wire_bytes": shard.network.stats.bytes_sent,
        "events": shard.loop.events_fired,
    }


def _merged(parts):
    return {key: sum(part[key] for part in parts) for key in parts[0]}


def _run(shards, backbone, executor=None, until=300_000):
    system = _build_pingpong(shards, backbone)
    executor = executor or ("serial" if shards == 1 else "fork")
    parts = system.execute(
        until,
        lambda shard: (_collect(shard), shard.network.sync.as_dict()),
        executor=executor,
    )
    return (
        _merged([part[0] for part in parts]),
        _merged([part[1] for part in parts]),
    )


def _resumed(horizons):
    system = _build_pingpong(2, 4_000)
    for until in horizons:
        system.run(until=until)
    system.drain()
    return _merged([_collect(shard) for shard in system.shards])


class TestElisionParity:
    """The reference is ``shards=1``: no pairs, no rendezvous, one
    keyed loop."""

    def test_elided_counters_match_classic_uniform_latency(self):
        reference, _ = _run(1, None)
        assert _run(2, None, executor="serial")[0] == reference
        assert _run(2, None)[0] == reference

    def test_elided_counters_match_classic_backbone(self):
        reference, _ = _run(1, 4_000)
        assert _run(2, 4_000, executor="serial")[0] == reference
        assert _run(2, 4_000)[0] == reference

    def test_serial_and_fork_elided_agree(self):
        serial, serial_sync = _run(2, 4_000, executor="serial")
        fork, fork_sync = _run(2, 4_000, executor="fork")
        assert serial == fork
        # The schedule is executor-exact; bytes exist only where a
        # pipe ships them.
        for key in ("rounds", "records_sent", "records_received",
                    "windows_elided"):
            assert serial_sync[key] == fork_sync[key], key
        assert serial_sync["bytes_sent"] == 0
        assert fork_sync["bytes_sent"] == fork_sync["bytes_received"] > 0

    def test_elision_actually_elides(self):
        until = 300_000
        _, sync = _run(2, 4_000, executor="serial", until=until)
        plan = _build_pingpong(2, 4_000).plan
        # Meeting at every period multiple is the static upper bound
        # (each meeting is counted once by each of its two shards);
        # run-ahead skips most of them, drain rounds included.
        static = 2 * len(rendezvous_schedule(plan.pair_periods, until))
        assert sync["windows_elided"] > 0
        assert 0 < sync["rounds"] < static * 0.8

    def test_resumed_horizons_match_a_single_run(self):
        single = _run(2, 4_000, executor="serial")[0]
        assert _resumed((140_000, 300_000)) == single

    def test_resume_mid_runahead_off_grid_matches_a_single_run(self):
        """Interrupting a horizon at an off-grid tick mid-run-ahead and
        resuming must not replay a meeting or re-execute a window: the
        runner persists the agreed schedule and the completed clock, so
        chopped-up horizons land on the identical counters."""
        single = _run(2, 4_000, executor="serial")[0]
        assert _resumed((7_919, 53_147, 147_001, 300_000)) == single

    def test_rendezvous_replay_is_refused(self):
        """The runner's replay guard: a pair scheduled to meet at or
        before its last completed rendezvous is a scheduler bug and
        must surface, not silently double-exchange."""

        class _Inert:
            pass

        runner = SerialRunner([_Inert(), _Inert()], 1_000, {(0, 1): 1_000})
        runner._last_met[(0, 1)] = 4_000
        with pytest.raises(SimulationError, match="replay"):
            runner.run(horizon=2_000)

    def test_shards_1_elided_never_packs_a_blob(self):
        _, sync = _run(1, 4_000)
        assert sync == SyncStats().as_dict()

    def test_hand_over_order_is_invisible(self, monkeypatch):
        """Nothing sorts an outbox before hand-over, because nothing
        needs to: the keyed loop files every record under its own key,
        and a frame's size does not depend on the order of its blobs.
        Reversing every outbox changes no counter under the serial
        runner and no shipped byte under the fork executor."""
        from repro.net.network import ShardNetwork

        natural = {
            executor: _run(2, 4_000, executor=executor)
            for executor in ("serial", "fork")
        }
        take_outbox = ShardNetwork.take_outbox
        take_outboxes = ShardNetwork.take_outboxes
        longest = [0]

        def reversed_outbox(self, dest):
            records = take_outbox(self, dest)
            longest[0] = max(longest[0], len(records))
            return records[::-1]

        def reversed_outboxes(self):
            return {
                dest: records[::-1]
                for dest, records in take_outboxes(self).items()
            }

        monkeypatch.setattr(ShardNetwork, "take_outbox", reversed_outbox)
        monkeypatch.setattr(ShardNetwork, "take_outboxes", reversed_outboxes)
        for executor in ("serial", "fork"):
            counters, sync = _run(2, 4_000, executor=executor)
            assert (counters, sync) == natural[executor], executor
        assert longest[0] > 1  # some hand-over really was reversed
        assert natural["fork"][1]["bytes_sent"] > 0


# ---------------------------------------------------------------------------
# The independent oracle: the single-loop System
# ---------------------------------------------------------------------------


def _torus_protocol_counters(cluster_class, shards=1):
    """The quiet-rto two-tier torus of ``benchmarks/perf`` at its smoke
    size: echo servers with pingers, a compute flood one balancer per
    row has to spread, forced row-local server moves — every protocol
    counter, per machine."""
    machines, cols, duration = 16, 4, 700_000
    cluster = cluster_class(SystemConfig(
        machines=machines, topology="torus", latency=1_000,
        backbone_latency=4_000, rto=100_000, shards=shards,
        trace_categories=(), metrics_enabled=False,
        control_machine=machines - 1, file_system_machine=machines - 2,
    ))
    servers = {
        m: cluster.spawn(
            lambda ctx, _m=m: echo_server(ctx, service_name=f"e{_m}"),
            machine=m, name=f"e{m}",
        )
        for m in range(machines)
    }
    for m in range(machines):
        for k in range(2):
            cluster.schedule_spawn(
                20_000 + 15_000 * (m // 2) + 500 * k,
                (m + 9 + 7 * k) % machines,
                lambda ctx, _m=m: pinger(
                    ctx, service_name=f"e{_m}", rounds=6,
                    payload_bytes=32, gap=1_000, board=ResultsBoard(),
                    key="ping",
                ),
                name="pinger",
            )
    for index in range(50):
        cluster.schedule_spawn(
            4_000 * index, index % 4,
            lambda ctx: compute_bound(
                ctx, total=40_000, board=ResultsBoard()
            ),
            name=f"job-{index}",
        )
    for row in range(machines // cols):
        row_machines = list(range(row * cols, (row + 1) * cols))
        balancer = DomainLoadBalancer(
            cluster.domain_view(row_machines), domain=f"row{row}",
            interval=20_000, threshold=3, sustain=2, cooldown=100_000,
        )
        balancer.install()
        cluster.call_at(duration, row_machines[0], balancer.stop)
    for j in range(4):
        victim = 2 * j
        row_start = (victim // cols) * cols
        dest = row_start + (victim - row_start + cols // 2) % cols
        cluster.schedule_migration(
            80_000 + 15_000 * j, servers[victim], victim, dest
        )
    cluster.execute(duration, lambda shard: None)
    kernels = cluster.kernels
    network = Counter()
    for shard in cluster.shards:
        network.update(shard.network.stats.snapshot())
    return {
        "kernels": [dataclasses.asdict(k.stats) for k in kernels],
        "network": dict(network),
        "migrations": sorted(
            (r.started_at, r.source, r.dest, r.success, r.downtime,
             r.admin_message_count, r.state_transfer_bytes)
            for k in kernels
            for r in k.migration.completed
        ),
        "forwarding_entries": [len(k.forwarding) for k in kernels],
        "events_fired": cluster.events_fired(),
    }


class TestClassicSystemOracle:
    def test_single_loop_system_and_every_shard_count_agree(self):
        """The sharded parity tests above compare the engine with
        itself; this one compares it with the engine that has no
        records, keys or rendezvous at all."""
        classic = _torus_protocol_counters(System)
        assert len(classic["migrations"]) >= 4
        assert sum(k["messages_forwarded"] for k in classic["kernels"]) > 0
        assert classic["network"]["retransmissions"] == 0
        for shards in (1, 2):
            assert (
                _torus_protocol_counters(ShardedSystem, shards) == classic
            )


# ---------------------------------------------------------------------------
# Live payloads across shards
# ---------------------------------------------------------------------------


class TestLivePayloadsUnderElision:
    """A live process generator cannot pickle.  The serial runner hands
    the live record across shards untouched; a forked worker ships a
    capture envelope in its place and the receiving worker refuses
    it."""

    @staticmethod
    def _migrating(shards):
        system = ShardedSystem(SystemConfig(
            machines=8, topology="torus", latency=1_000, shards=shards,
            trace_categories=(), metrics_enabled=False,
            backbone_latency=4_000,
        ))
        progress = []

        def worker(ctx):
            while True:
                yield ctx.compute(5_000)
                progress.append(ctx.machine)

        pid = system.spawn(worker, machine=0, name="subject")
        dest = 4  # the first machine of the second shard at shards=2
        assert system.plan.shard_of(dest) == shards - 1
        ticket = system.migrate(pid, dest)
        system.run(until=2_000_000)
        merged = {
            key: sum(_collect(s)[key] for s in system.shards)
            for key in (
                "delivered", "spawned", "packets", "wire_bytes",
            )
        }
        assert ticket.done and ticket.success
        assert system.where_is(pid) == dest
        assert dest in progress
        return merged

    def test_live_generator_migration_parity(self):
        # The migrating process's generator frame is live (it closes
        # over `progress`); the move must work across the shard
        # boundary and land on the one-shard counters.
        assert self._migrating(shards=2) == self._migrating(shards=1)

    def test_fork_still_rejects_live_cross_shard_payloads(self):
        system = _build_pingpong(shards=2, backbone=4_000)
        gen = (x for x in range(3))
        system.schedule_spawn(
            40_000, 0,
            lambda ctx: _poison_sender(ctx, gen),
            name="poison",
        )
        # The capture envelope makes the *frame* picklable, so the
        # sender survives; the receiving worker refuses to rehydrate
        # the surrogate and dies with a diagnosis.
        with pytest.raises(SimulationError, match="died"):
            system.execute(
                300_000, lambda shard: None, executor="fork",
            )
