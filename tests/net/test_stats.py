"""Tests for network accounting and wire occupancy."""

from repro.net.channel import Channel
from repro.net.packet import PACKET_HEADER_BYTES, Packet, PacketKind
from repro.net.stats import NetworkStats
from repro.net.topology import Wire
from repro.sim.loop import EventLoop


def make_packet(size=100, seq=0, category="user"):
    return Packet(
        src=0, dst=1, kind=PacketKind.DATA, seq=seq,
        payload=None, payload_bytes=size, category=category,
    )


def first_send(stats, packet):
    """The two counter bumps a transport's send site makes for a first
    transmission."""
    stats.sends_by_category[packet.category] += 1
    stats.payload_bytes_by_category[packet.category] += packet.payload_bytes


class TestNetworkStats:
    def test_note_send_accumulates(self):
        stats = NetworkStats()
        first_send(stats, make_packet(100, category="admin"))
        first_send(stats, make_packet(50, category="admin"))
        assert stats.packets_sent == 2
        assert stats.payload_bytes_sent == 150
        assert stats.bytes_sent == 150 + 2 * PACKET_HEADER_BYTES
        assert stats.sends_by_category["admin"] == 2
        assert stats.payload_bytes_by_category["admin"] == 150

    def test_retransmits_not_double_counted_per_category(self):
        stats = NetworkStats()
        packet = make_packet(100, category="user")
        first_send(stats, packet)
        stats.note_retransmit(packet)
        assert stats.packets_sent == 2
        assert stats.payload_bytes_sent == 200
        assert stats.retransmissions == 1
        assert stats.sends_by_category["user"] == 1

    def test_snapshot_shapes(self):
        stats = NetworkStats()
        first_send(stats, make_packet())
        stats.delivered_by_category["user"] += 1  # the receiver's bump
        snapshot = stats.snapshot()
        assert snapshot["packets_sent"] == 1
        assert snapshot["packets_delivered"] == 1
        categories = stats.category_snapshot()
        assert categories["user"] == (1, 100)


class TestWireOccupancy:
    def test_back_to_back_packets_serialise(self):
        """The wire is serial: N equal packets take N serialization
        periods, which is what makes bulk state transfer scale (E1)."""
        loop = EventLoop()
        arrivals = []
        wire = Wire(0, 1, latency=100, bandwidth=1_000)  # 1B/us
        channel = Channel(
            loop, wire,
            loop.hop_lander(0, 1, lambda *hop: arrivals.append(loop.now)),
        )
        size = 1_000 - PACKET_HEADER_BYTES  # 1ms serialization each
        for seq in range(3):
            channel.transmit(make_packet(size, seq=seq))
        loop.run()
        assert arrivals == [1_100, 2_100, 3_100]

    def test_idle_wire_does_not_accumulate_delay(self):
        loop = EventLoop()
        arrivals = []
        wire = Wire(0, 1, latency=100, bandwidth=1_000)
        channel = Channel(
            loop, wire,
            loop.hop_lander(0, 1, lambda *hop: arrivals.append(loop.now)),
        )
        size = 1_000 - PACKET_HEADER_BYTES
        channel.transmit(make_packet(size, seq=0))
        loop.run()
        assert arrivals == [1_100]
        # Much later, a second packet starts on a free wire: it pays one
        # transfer time from its own send instant, with no queueing debt.
        loop.call_after(
            10_000, lambda: channel.transmit(make_packet(size, seq=1)),
        )
        loop.run()
        sent_at = 1_100 + 10_000
        assert arrivals[1] == sent_at + 1_000 + 100

    def test_topology_shapes_reachable_in_system(self):
        for shape in ("mesh", "line", "torus"):
            from tests.conftest import make_bare_system

            system = make_bare_system(machines=4, topology=shape)
            got = []

            def receiver(ctx):
                msg = yield ctx.receive()
                got.append(msg.op)
                yield ctx.exit()

            from repro.kernel.ids import ProcessAddress
            from repro.kernel.messages import MessageKind

            pid = system.spawn(receiver, machine=3)
            system.kernel(0).send_to_process(
                ProcessAddress(pid, 3), f"via-{shape}", {},
                kind=MessageKind.USER,
            )
            system.run(max_events=100_000)
            assert got == [f"via-{shape}"], shape
