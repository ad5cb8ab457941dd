"""The host work one wire hop costs, counted in function calls.

A packet sent down ``Topology.line(9)`` and acknowledged crosses eight
wires each way: sixteen hops.  ``sys.setprofile`` counts every function
the interpreter enters on the way (Python frames and C builtins alike),
so calls per hop is a work ratio that reads the same on any host — the
kind of number the ROADMAP says to gate.  The retransmission timeout
sits above the path round trip, so no packet is sent twice and the
ratio is exact.
"""

import sys

import pytest

from repro.net.network import Network
from repro.net.topology import Topology
from repro.sim.loop import EventLoop, KeyedEventLoop
from tests.conftest import count_calls

MACHINES = 9
QUIET_RTO = 1_000_000
#: exact count, calls per hop on both loops (54 calls per 8 hops):
#: six a hop — forward, transmit, land, heappush, heappop, arrive (the
#: forwarding-table and transport probes are subscripts, not calls; the
#: landing frame pushes its heap entry itself) — plus each hop's share
#: of the transport's send, ack and delivery
CALLS_PER_HOP = 6.75


def classic_network():
    loop = EventLoop()
    topology = Topology.line(MACHINES, bandwidth=100_000)
    return loop, Network(loop, topology, rto=QUIET_RTO)


def keyed_network():
    loop = KeyedEventLoop(1_000)
    topology = Topology.line(MACHINES, bandwidth=100_000)
    return loop, Network(loop, topology, rto=QUIET_RTO)


def calls_for(build, packets):
    """Function calls made sending *packets* end to end and running
    the loop dry, every one acknowledged, none retransmitted."""
    loop, network = build()
    last = MACHINES - 1
    network.register_receiver(0, lambda src, payload: None)
    network.register_receiver(last, lambda src, payload: None)

    def run():
        for i in range(packets):
            network.send(0, last, i, 32)
        loop.run()

    calls = count_calls(run)
    assert network.stats.packets_delivered == packets
    assert network.stats.retransmissions == 0
    assert network.quiescent()
    return calls


def calls_and_hops(build, few=100, many=300):
    """Calls and hops that *many* packets add over *few*: what is paid
    once (routes, channels, the first timer) cancels out."""
    calls = calls_for(build, many) - calls_for(build, few)
    return calls, (many - few) * 2 * (MACHINES - 1)


@pytest.mark.skipif(
    sys.getprofile() is not None, reason="another profiler is installed"
)
class TestHopBudget:
    def test_a_hop_costs_at_most_sixteen_calls_on_both_networks(self):
        classic, hops = calls_and_hops(classic_network)
        keyed, _ = calls_and_hops(keyed_network)
        # One network, one landing path: the two loops differ only in
        # the key their hop_lander builds, which costs no call.
        assert classic == CALLS_PER_HOP * hops, classic / hops
        assert keyed == classic, (classic, keyed, hops)
