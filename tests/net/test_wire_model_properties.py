"""Property-based tests for the wire model: ``Channel.transmit`` against
a four-line reference, and forwarding against a redirect installed
while the packet is on its way."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net.channel import Channel, FaultPlan
from repro.net.network import Network
from repro.net.packet import PACKET_HEADER_BYTES, Packet, PacketKind
from repro.net.topology import Topology, Wire
from repro.sim.loop import EventLoop, KeyedEventLoop

BOUNDED = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: (microseconds since the previous send, payload bytes)
sends = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3_000),
        st.integers(min_value=0, max_value=4_096),
    ),
    min_size=1,
    max_size=30,
)
wires = st.builds(
    Wire,
    src=st.just(0),
    dst=st.just(1),
    latency=st.integers(min_value=1, max_value=5_000),
    bandwidth=st.integers(min_value=0, max_value=100_000),
)


def reference(wire, timed_sizes):
    """The wire model in four lines: arrival time of each packet, and
    when the wire falls idle."""
    busy, arrivals = 0, []
    for now, size in timed_sizes:
        busy = max(now, busy) + size * 1_000 // max(wire.bandwidth, 1)
        arrivals.append(busy + wire.latency)
    return arrivals, busy


class CountingRandom(random.Random):
    draws = 0

    def random(self):
        self.draws += 1
        return super().random()


def run_channel(wire, gaps_and_bytes, faults, rng=None):
    """Transmit each packet at its send time; ``(arrival, seq)`` in
    arrival order, the wire's busy horizon, and the absolute sends."""
    loop = EventLoop()
    arrivals = []
    channel = Channel(
        loop, wire,
        loop.hop_lander(
            wire.src, wire.dst,
            lambda src, dst, wire_seq, packet, gen: arrivals.append(
                (loop.now, packet.seq)
            ),
        ),
        faults=faults,
        make_rng=None if rng is None else (lambda: rng),
    )
    now, timed_sizes = 0, []
    for seq, (gap, payload_bytes) in enumerate(gaps_and_bytes):
        now += gap
        packet = Packet(0, 1, PacketKind.DATA, seq, None, payload_bytes)
        loop.call_at(now, channel.transmit, packet)
        timed_sizes.append((now, payload_bytes + PACKET_HEADER_BYTES))
    loop.run()
    assert loop.pending_events == 0
    return arrivals, channel._busy_until, timed_sizes


class TestWireModel:
    @BOUNDED
    @given(wire=wires, gaps_and_bytes=sends)
    def test_perfect_drawing_and_reference_wires_agree(
        self, wire, gaps_and_bytes
    ):
        perfect, perfect_busy, timed_sizes = run_channel(
            wire, gaps_and_bytes, FaultPlan()
        )
        # A drop probability that never fires still draws once a packet.
        rng = CountingRandom(7)
        drawing, drawing_busy, _ = run_channel(
            wire, gaps_and_bytes, FaultPlan(drop_probability=1e-300), rng
        )
        expected, expected_busy = reference(wire, timed_sizes)
        assert rng.draws == len(gaps_and_bytes)
        assert perfect == drawing == list(zip(expected, range(len(expected))))
        assert perfect_busy == drawing_busy == expected_busy

    @BOUNDED
    @given(wire=wires, gaps_and_bytes=sends)
    def test_the_duplicate_serialises_behind_the_first_copy(
        self, wire, gaps_and_bytes
    ):
        arrivals, busy, timed_sizes = run_channel(
            wire, gaps_and_bytes, FaultPlan(duplicate_probability=1.0),
            random.Random(7),
        )
        twice = [entry for entry in timed_sizes for _ in range(2)]
        expected, expected_busy = reference(wire, twice)
        assert [at for at, _ in arrivals] == expected
        assert [seq for _, seq in arrivals] == [
            seq for seq in range(len(timed_sizes)) for _ in range(2)
        ]
        assert busy == expected_busy


LINE = 6
HOP_US = 100 + (PACKET_HEADER_BYTES + 8) * 1_000 // 1_000


def classic_line():
    loop = EventLoop()
    return loop, Network(loop, Topology.line(LINE), rto=1_000_000)


def sharded_line():
    loop = KeyedEventLoop(100)
    return loop, Network(loop, Topology.line(LINE), rto=1_000_000)


class TestRedirectMidPath:
    @pytest.mark.parametrize("build", [classic_line, sharded_line])
    @BOUNDED
    @given(
        hops_done=st.integers(min_value=0, max_value=LINE - 2),
        executor=st.integers(min_value=0, max_value=LINE - 2),
    )
    def test_a_redirect_is_honoured_at_the_next_hop(
        self, build, hops_done, executor
    ):
        loop, network = build()
        dead = LINE - 1
        delivered = []

        def receiver(machine):
            return lambda src, payload: delivered.append((machine, loop.now))

        for machine in range(LINE):
            network.register_receiver(machine, receiver(machine))
        network.send(0, dead, "payload", 8)
        # The packet is on the wire out of machine `hops_done`.
        redirect_at = hops_done * HOP_US + 1
        loop.run_until(redirect_at)
        network.install_redirect(dead, executor)
        loop.run()
        # It lands at machine hops_done + 1, and from there walks
        # straight to the executor: no further step toward `dead`.
        landed = hops_done + 1
        walk = abs(landed - executor)
        assert delivered == [(executor, (landed + walk) * HOP_US)]
        assert network.quiescent()
