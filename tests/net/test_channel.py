"""Tests for the lossy channel and packet framing."""

import random

from repro.net.channel import Channel, FaultPlan
from repro.net.packet import PACKET_HEADER_BYTES, Packet, PacketKind
from repro.net.topology import Wire
from repro.sim.loop import EventLoop, KeyedEventLoop


def make_packet(size=100, seq=0):
    return Packet(
        src=0, dst=1, kind=PacketKind.DATA, seq=seq,
        payload="x", payload_bytes=size,
    )


class TestPacket:
    def test_size_includes_header(self):
        packet = make_packet(size=100)
        assert packet.size_bytes == 100 + PACKET_HEADER_BYTES

    def test_serials_unique(self):
        assert make_packet().serial != make_packet().serial


class TestPerfectChannel:
    def test_delivers_after_wire_delay(self):
        loop = EventLoop()
        seen = []
        wire = Wire(0, 1, latency=100, bandwidth=1_000)
        channel = Channel(loop, wire, deliver=seen.append)
        packet = make_packet(size=1_000 - PACKET_HEADER_BYTES)
        channel.transmit(packet)
        loop.run()
        assert seen == [packet]
        assert loop.now == 100 + 1_000  # latency + serialization

    def test_in_flight_counter(self):
        loop = EventLoop()
        wire = Wire(0, 1, latency=10, bandwidth=1_000)
        channel = Channel(loop, wire, deliver=lambda p: None)
        channel.transmit(make_packet())
        assert channel.in_flight == 1
        loop.run()
        assert channel.in_flight == 0

    def test_arrivals_on_a_keyed_loop_take_the_local_key(self):
        # With no network lander, an arrival is filed where call_after
        # would file it: a local event, keyed by the loop's counter.
        loop = KeyedEventLoop(100)
        loop.clock.advance_to(250)
        seen = []
        channel = Channel(loop, Wire(0, 1, 10, 1_000), deliver=seen.append)
        packet = make_packet()
        channel.transmit(packet)
        later = loop.call_after(0, lambda: None)
        (arrival,) = [e for e in loop._queue._heap if e is not later]
        assert arrival[1] == later[1] - 1
        loop.run()
        assert seen == [packet]

    def test_fault_plan_is_perfect_by_default(self):
        assert FaultPlan().is_perfect
        assert not FaultPlan(drop_probability=0.1).is_perfect


class TestFaultInjection:
    def test_full_drop_loses_everything(self):
        loop = EventLoop()
        seen, dropped = [], []
        channel = Channel(
            loop, Wire(0, 1, 10, 1_000), deliver=seen.append,
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
            loop, Wire(0, 1, 10, 1_000), deliver=seen.append,
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
            loop, Wire(0, 1, 10, 1_000_000), deliver=lambda p: seen.append(loop.now),
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
            loop, Wire(0, 1, 1, 1_000_000), deliver=seen.append,
            faults=FaultPlan(drop_probability=0.5),
            make_rng=lambda: random.Random(7),
        )
        for i in range(200):
            channel.transmit(make_packet(seq=i))
        loop.run()
        assert 50 < len(seen) < 150  # roughly half survive
