"""Layer probes: each layer alone, timed around its public functions.

Every probe reports the median of five timings taken in this process,
in host microseconds per operation unless the name says otherwise.  A
probe answers "what does one event / hop / round trip / migration /
record / rendezvous cost today", so that when an end-to-end number
moves, the layer that moved it can be named (README, "How the metrics
interact").
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

from repro.kernel.ids import ProcessAddress, ProcessId
from repro.kernel.memory import MemoryImage
from repro.net.network import Network
from repro.net.topology import Topology
from repro.servers.common import rpc
from repro.sim.barrier import pack_record, unpack_record
from repro.sim.loop import EventLoop, KeyedEventLoop

import scenarios

REPEATS = 5


def _median_us(run: Callable[[], int], repeats: int = REPEATS) -> float:
    """Median host microseconds per operation; *run* builds what it
    needs untimed, returns ``(seconds, operations)``."""
    samples = []
    for _ in range(repeats):
        seconds, operations = run()
        samples.append(seconds * 1e6 / operations)
    return statistics.median(samples)


def _timed(work: Callable[[], object]) -> float:
    started = time.perf_counter()
    work()
    return time.perf_counter() - started


def _noop() -> None:
    pass


# ----------------------------------------------------------------------
# sim.loop
# ----------------------------------------------------------------------


def probe_event_loops(events: int = 40_000) -> dict[str, float]:
    """`call_after` + fire of no-op events on both loops."""

    def run(loop_factory):
        loop = loop_factory()

        def work():
            call_after = loop.call_after
            for i in range(events):
                call_after(i % 97, _noop)
            loop.run()

        return _timed(work), events

    return {
        "sim.loop.noop_event_us": _median_us(lambda: run(EventLoop)),
        "sim.loop.keyed_noop_event_us": _median_us(
            lambda: run(lambda: KeyedEventLoop(1_000))
        ),
    }


# ----------------------------------------------------------------------
# net
# ----------------------------------------------------------------------


def probe_packets(packets: int = 1_500) -> dict[str, float]:
    """`Network.send` to a registered receiver over one wire and over
    eight, each packet acknowledged."""

    def run(machines: int):
        loop = EventLoop()
        network = Network(loop, Topology.line(machines, bandwidth=100_000))
        last = machines - 1
        network.register_receiver(0, lambda src, payload: None)
        network.register_receiver(last, lambda src, payload: None)

        def work():
            for i in range(packets):
                network.send(0, last, i, 32)
            loop.run()

        seconds = _timed(work)
        assert network.stats.packets_delivered == packets
        return seconds, packets

    return {
        "net.hop1_packet_us": _median_us(lambda: run(2)),
        "net.hop8_packet_us": _median_us(lambda: run(9)),
    }


def probe_routes(side: int = 16) -> dict[str, float]:
    """`Topology.next_hop` on a torus: from sources never routed from
    (one Dijkstra each) and from cached ones."""
    machines = side * side

    def cold():
        topology = Topology.torus2d(side, side)
        seconds = _timed(
            lambda: [
                topology.next_hop(src, (src + machines // 2) % machines)
                for src in range(machines)
            ]
        )
        return seconds, machines

    warm_topology = Topology.torus2d(side, side)
    pairs = [
        (src, (src * 7 + 3) % machines)
        for src in range(machines)
        if src != (src * 7 + 3) % machines
    ] * 40
    for src, dst in pairs[:machines]:
        warm_topology.next_hop(src, dst)

    def warm():
        next_hop = warm_topology.next_hop
        return _timed(lambda: [next_hop(s, d) for s, d in pairs]), len(pairs)

    return {
        "net.route_cold_us": _median_us(cold),
        "net.route_warm_us": _median_us(warm),
    }


# ----------------------------------------------------------------------
# kernel.ipc
# ----------------------------------------------------------------------


def _bare_system(machines: int = 2, **config):
    """A classic ``System`` with no servers, tracing and metrics off."""
    return scenarios.build_cluster(
        None, machines=machines, boot_servers=False, **config
    ).system


def _replier(ctx):
    while True:
        message = yield ctx.receive()
        reply_link = message.delivered_link_ids[0]
        yield ctx.send(reply_link, op="pong")
        yield ctx.destroy_link(reply_link)


def probe_ipc(rounds: int = 1_500) -> dict[str, float]:
    """Two programs ping-ponging on one machine and across one wire."""
    syscall_us = []

    def run(client_machine: int):
        system = _bare_system()
        server = system.spawn(_replier, machine=0, name="replier")

        def caller(ctx):
            for _ in range(rounds):
                yield from rpc(ctx, ctx.bootstrap["peer"], "ping")
            yield ctx.exit()

        system.kernel(client_machine).spawn(
            caller, name="caller",
            extra_links={"peer": ProcessAddress(server, 0)},
        )
        seconds = _timed(system.run)
        syscalls = sum(k.stats.syscalls for k in system.kernels)
        assert syscalls >= 7 * rounds
        syscall_us.append(seconds * 1e6 / syscalls)
        return seconds, rounds

    return {
        "kernel.ipc.local_rtt_us": _median_us(lambda: run(0)),
        "kernel.ipc.remote_rtt_us": _median_us(lambda: run(1)),
        "kernel.ipc.syscall_us": statistics.median(syscall_us),
    }


# ----------------------------------------------------------------------
# kernel.migration
# ----------------------------------------------------------------------


def _parked(ctx):
    while True:
        yield ctx.receive()


def probe_migration(bounces: int = 60) -> dict[str, float]:
    """The e1 subject (10 links: 250 B resident + 600 B swappable state)
    bounced between two machines, at the paper's three program sizes."""
    links = {
        f"svc{i}": ProcessAddress(ProcessId(3, 100 + i), 3)
        for i in range(10)
    }
    results = {}
    for label, size in (("1k", 1 << 10), ("8k", 8 << 10), ("64k", 64 << 10)):
        downtimes: list[int] = []

        def run(_size=size, _downtimes=downtimes):
            system = _bare_system(machines=4, memory_capacity=1 << 30)
            pid = system.kernel(0).spawn(
                _parked, name="subject",
                memory=MemoryImage.sized(
                    code=_size // 2, data=_size - _size // 2, stack=0
                ),
                extra_links=links,
            )
            done = []

            def bounce(ok, record):
                done.append(record.downtime)
                if len(done) < bounces:
                    system.migrate(pid, 1 - record.dest, on_done=bounce)

            system.migrate(pid, 1, on_done=bounce)
            seconds = _timed(system.run)
            assert len(done) == bounces
            _downtimes.extend(done)
            return seconds, bounces

        results[f"kernel.migration.host_us_{label}"] = _median_us(run)
        results[f"kernel.migration.sim_freeze_us_{label}"] = (
            statistics.median(downtimes)
        )
    return results


# ----------------------------------------------------------------------
# sim.barrier
# ----------------------------------------------------------------------


def _sample_records():
    """The hop record of a 32 B user request and of a 1 KB data-move
    chunk (the largest packet of their category: payload plus message
    header), caught crossing between the two shards of a tiny system."""
    cluster = scenarios.build_cluster(
        2, machines=2, latency=1_000, boot_servers=False
    )
    caught = {}

    def catch(record):
        category = record.packet.category
        best = caught.get(category)
        if (
            best is None
            or record.packet.payload_bytes > best.packet.payload_bytes
        ):
            caught[category] = record

    for shard in cluster.shards:
        shard.network.on_record_delivered = catch
    server = cluster.spawn(_replier, machine=0, name="replier")

    def caller(ctx):
        yield from rpc(ctx, ctx.bootstrap["peer"], "ping", payload_bytes=32)
        yield ctx.exit()

    cluster.kernel(1).spawn(
        caller, name="caller",
        extra_links={"peer": ProcessAddress(server, 0)},
    )
    subject = cluster.spawn(
        _parked, machine=0, name="subject",
        memory=MemoryImage.sized(code=1_024, data=1_024, stack=0),
    )
    cluster.schedule_migration(5_000, subject, 0, 1)
    cluster.run()
    cluster.drain()
    return caught["user"], caught["datamove"]


def probe_records(calls: int = 4_000) -> dict[str, float]:
    """`pack_record` / `unpack_record` on real records."""
    results = {}
    for suffix, record in zip(("", "_1k"), _sample_records()):
        blob = pack_record(record)
        assert unpack_record(blob).arrival == record.arrival
        results[f"sim.barrier.pack_record{suffix}_us"] = _median_us(
            lambda: (
                _timed(lambda: [pack_record(record) for _ in range(calls)]),
                calls,
            )
        )
        results[f"sim.barrier.unpack_record{suffix}_us"] = _median_us(
            lambda: (
                _timed(lambda: [unpack_record(blob) for _ in range(calls)]),
                calls,
            )
        )
        results[f"sim.barrier.record{suffix}_bytes"] = float(len(blob))
    return results


def probe_rendezvous(windows: int = 1_500) -> dict[str, float]:
    """A bare 2-machine system with one no-op timer per machine per
    window: what is left of the wall time after taking off the same run
    on one shard, per meeting of the two shards."""
    horizon = windows * 1_000

    def run(shards: int, executor: str) -> tuple[float, float]:
        """Median wall seconds, and how often the two shards met."""
        walls, meetings = [], 0.0
        for _ in range(REPEATS):
            cluster = scenarios.build_cluster(
                shards, machines=2, latency=1_000, boot_servers=False
            )
            for at in range(0, horizon, 1_000):
                for machine in (0, 1):
                    cluster.call_at(at, machine, _noop)
            rounds = []
            walls.append(
                _timed(
                    lambda: rounds.extend(
                        cluster.execute(
                            horizon,
                            lambda shard: shard.network.sync.rounds,
                            executor=executor,
                        )
                    )
                )
            )
            # each meeting is counted once by each of the two shards
            meetings = sum(rounds) / 2
        return statistics.median(walls), meetings

    base, _ = run(1, "serial")
    results = {}
    for executor in ("serial", "fork"):
        wall, meetings = run(2, executor)
        results[f"sim.barrier.rendezvous_{executor}_us"] = (
            (wall - base) * 1e6 / meetings
        )
    return results


# ----------------------------------------------------------------------
# obs
# ----------------------------------------------------------------------


def probe_observation(seed: int, pairs: int = 3) -> dict[str, float]:
    """`mesh_churn` at probe scale with metrics on vs off and tracing on
    vs off, in alternating pairs; each tax is the ratio of medians - 1."""

    def wall(**config) -> float:
        prepared = scenarios.build_mesh_churn(seed, "probe", **config)
        return _timed(prepared.run)

    results = {}
    for name, on in (
        ("obs.metrics_on_tax", {"metrics_enabled": True}),
        ("obs.trace_on_tax", {"trace_categories": None}),
    ):
        with_it, without = [], []
        for _ in range(pairs):
            with_it.append(wall(**on))
            without.append(wall())
        results[name] = (
            statistics.median(with_it) / statistics.median(without) - 1
        )
    return results


def run_all(seed: int) -> dict[str, float]:
    """Every probe; about ten seconds."""
    results: dict[str, float] = {}
    for probe in (
        probe_event_loops, probe_packets, probe_routes, probe_ipc,
        probe_migration, probe_records, probe_rendezvous,
    ):
        results.update(probe())
    results.update(probe_observation(seed))
    return results


#: every metric :func:`run_all` reports: name -> (unit, better)
METRICS = {
    "sim.loop.noop_event_us": ("us", "lower"),
    "sim.loop.keyed_noop_event_us": ("us", "lower"),
    "net.hop1_packet_us": ("us", "lower"),
    "net.hop8_packet_us": ("us", "lower"),
    "net.route_cold_us": ("us", "lower"),
    "net.route_warm_us": ("us", "lower"),
    "kernel.ipc.local_rtt_us": ("us", "lower"),
    "kernel.ipc.remote_rtt_us": ("us", "lower"),
    "kernel.ipc.syscall_us": ("us", "lower"),
    "kernel.migration.host_us_1k": ("us", "lower"),
    "kernel.migration.host_us_8k": ("us", "lower"),
    "kernel.migration.host_us_64k": ("us", "lower"),
    "kernel.migration.sim_freeze_us_1k": ("sim_us", "lower"),
    "kernel.migration.sim_freeze_us_8k": ("sim_us", "lower"),
    "kernel.migration.sim_freeze_us_64k": ("sim_us", "lower"),
    "sim.barrier.pack_record_us": ("us", "lower"),
    "sim.barrier.unpack_record_us": ("us", "lower"),
    "sim.barrier.record_bytes": ("B", "lower"),
    "sim.barrier.pack_record_1k_us": ("us", "lower"),
    "sim.barrier.unpack_record_1k_us": ("us", "lower"),
    "sim.barrier.record_1k_bytes": ("B", "lower"),
    "sim.barrier.rendezvous_serial_us": ("us", "lower"),
    "sim.barrier.rendezvous_fork_us": ("us", "lower"),
    "obs.metrics_on_tax": ("ratio", "lower"),
    "obs.trace_on_tax": ("ratio", "lower"),
}
