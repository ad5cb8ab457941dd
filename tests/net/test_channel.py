"""Tests for the lossy channel and packet framing."""

import random

from repro.net.channel import Channel, FaultPlan
from repro.net.network import Network
from repro.net.packet import PACKET_HEADER_BYTES, Packet, PacketKind
from repro.net.topology import Topology, Wire
from repro.sim.loop import EventLoop


def make_packet(size=100, seq=0):
    return Packet(
        src=0, dst=1, kind=PacketKind.DATA, seq=seq,
        payload="x", payload_bytes=size,
    )


def landing(loop, deliver):
    """The loop's lander for wire 0 -> 1, handing each packet that
    arrives to *deliver*."""
    return loop.hop_lander(
        0, 1, lambda src, dst, wire_seq, packet, gen: deliver(packet)
    )


class TestPacket:
    def test_size_includes_header(self):
        packet = make_packet(size=100)
        assert packet.size_bytes == 100 + PACKET_HEADER_BYTES


class TestPerfectChannel:
    def test_delivers_after_wire_delay(self):
        loop = EventLoop()
        seen = []
        wire = Wire(0, 1, latency=100, bandwidth=1_000)
        channel = Channel(loop, wire, landing(loop, seen.append))
        packet = make_packet(size=1_000 - PACKET_HEADER_BYTES)
        channel.transmit(packet)
        loop.run()
        assert seen == [packet]
        assert loop.now == 100 + 1_000  # latency + serialization

    def test_in_flight_counter(self):
        # The network counts the copies on its wires: one packet over
        # one wire is one hop in flight until it lands.
        loop = EventLoop()
        network = Network(loop, Topology.line(2, latency=10))
        network.register_receiver(1, lambda src, payload: None)
        network._channel(0, 1).transmit(make_packet())
        assert network.in_flight() == 1
        loop.run()
        assert network.in_flight() == 0

    def test_fault_plan_is_perfect_by_default(self):
        # With a random stream to draw from, a default plan still drops,
        # duplicates and delays nothing: each copy lands once, on time.
        loop = EventLoop()
        seen, dropped, duplicated = [], [], []
        channel = Channel(
            loop,
            Wire(0, 1, 10, 1_000),
            landing(loop, lambda packet: seen.append((loop.now, packet))),
            faults=FaultPlan(),
            make_rng=lambda: random.Random(0),
            on_drop=dropped.append,
            on_duplicate=duplicated.append,
        )
        packets = [make_packet(seq=seq) for seq in range(20)]
        for packet in packets:
            channel.transmit(packet)
        loop.run()
        period = make_packet().size_bytes  # a 1 B/us wire
        assert seen == [
            (10 + (index + 1) * period, packet)
            for index, packet in enumerate(packets)
        ]
        assert dropped == duplicated == []


class TestFaultInjection:
    def test_full_drop_loses_everything(self):
        loop = EventLoop()
        seen, dropped = [], []
        channel = Channel(
            loop, Wire(0, 1, 10, 1_000), landing(loop, seen.append),
            faults=FaultPlan(drop_probability=1.0),
            make_rng=lambda: random.Random(0), on_drop=dropped.append,
        )
        channel.transmit(make_packet())
        loop.run()
        assert seen == []
        assert len(dropped) == 1

    def test_duplication_delivers_twice(self):
        loop = EventLoop()
        seen = []
        channel = Channel(
            loop, Wire(0, 1, 10, 1_000), landing(loop, seen.append),
            faults=FaultPlan(duplicate_probability=1.0),
            make_rng=lambda: random.Random(0),
        )
        channel.transmit(make_packet())
        loop.run()
        assert len(seen) == 2

    def test_jitter_delays_delivery(self):
        loop = EventLoop()
        seen = []
        channel = Channel(
            loop, Wire(0, 1, 10, 1_000_000),
            landing(loop, lambda p: seen.append(loop.now)),
            faults=FaultPlan(max_jitter=500),
            make_rng=lambda: random.Random(1),
        )
        channel.transmit(make_packet(size=0))
        loop.run()
        assert len(seen) == 1
        assert 10 <= seen[0] <= 510

    def test_partial_drop_statistics(self):
        loop = EventLoop()
        seen = []
        channel = Channel(
            loop, Wire(0, 1, 1, 1_000_000), landing(loop, seen.append),
            faults=FaultPlan(drop_probability=0.5),
            make_rng=lambda: random.Random(7),
        )
        for i in range(200):
            channel.transmit(make_packet(seq=i))
        loop.run()
        assert 50 < len(seen) < 150  # roughly half survive
