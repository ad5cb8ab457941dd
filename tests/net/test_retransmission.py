"""Tests for retransmission timing: backoff, cap, and recovery."""

from repro.core.config import SystemConfig
from repro.core.system import System
from repro.net.channel import FaultPlan
from repro.net.network import Network
from repro.net.reliable import DEFAULT_RTO, MAX_RTO, RTO_BACKOFF
from repro.net.topology import Topology
from repro.sim.loop import EventLoop
from repro.sim.rng import RandomStreams


def make_pair(faults=None, seed=0, rto=DEFAULT_RTO):
    loop = EventLoop()
    topo = Topology.full_mesh(2)
    net = Network(loop, topo, rngs=RandomStreams(seed), faults=faults,
                  rto=rto)
    inbox = []
    net.register_receiver(1, lambda src, p: inbox.append((loop.now, p)))
    net.register_receiver(0, lambda src, p: None)
    return loop, net, inbox


class TestRetransmission:
    def test_no_retransmit_on_clean_channel(self):
        loop, net, inbox = make_pair()
        net.send(0, 1, "x", 8)
        loop.run()
        assert net.stats.retransmissions == 0

    def test_backoff_doubles_and_caps(self):
        assert RTO_BACKOFF == 2
        assert MAX_RTO == 200_000
        # Total blackout: retransmits march out with exponential spacing.
        loop, net, inbox = make_pair(
            faults=FaultPlan(drop_probability=1.0), rto=1_000,
        )
        net.send(0, 1, "x", 8)
        loop.run_until(70_000)
        # 1ms, 2ms, 4ms, ... doubling: about log2(70) ~ 6-7 attempts,
        # far fewer than 70 fixed-interval attempts.
        assert 4 <= net.stats.retransmissions <= 9

    def test_delivery_after_blackout_lifts(self):
        loop, net, inbox = make_pair(
            faults=FaultPlan(drop_probability=1.0), rto=1_000,
        )
        net.send(0, 1, "precious", 8)
        loop.run_until(20_000)
        assert inbox == []
        net.set_faults(FaultPlan())  # network heals
        loop.run()
        assert [p for _, p in inbox] == ["precious"]
        assert net.quiescent()

    def test_ack_loss_causes_duplicate_suppression(self):
        # Drop half the packets; every payload still arrives exactly once
        # even though data packets are retransmitted after ack losses.
        loop, net, inbox = make_pair(
            faults=FaultPlan(drop_probability=0.5), seed=9, rto=1_000,
        )
        for i in range(30):
            net.send(0, 1, i, 8)
        loop.run()
        assert [p for _, p in inbox] == list(range(30))

    def test_retransmit_toward_crashed_machine_we_execute(self):
        # Regression: when the sender is also the executor for a crashed
        # destination, the network hands retransmitted packets straight
        # back to the sender's own transport, and the resulting ack pops
        # the unacked dict while _on_timer is walking it.  This used to
        # raise "dictionary changed size during iteration"; now the
        # stream must settle to quiescence.
        # The crash sequence belongs to the cluster (it spans every
        # network of a sharded one), so this pair sits inside a System.
        system = System(SystemConfig(
            machines=2, boot_servers=False, rto=1_000,
            faults=FaultPlan(drop_probability=1.0),
        ))
        loop, net, inbox = system.loop, system.network, []
        net.register_receiver(1, lambda src, p: inbox.append((loop.now, p)))
        net.register_receiver(0, lambda src, p: None)
        for i in range(5):
            net.send(0, 1, i, 8)
        loop.run_until(2_500)  # at least one retransmission pass
        assert inbox == []
        system.crash_transport(1, executor=0)
        net.set_faults(FaultPlan())  # network heals
        loop.run()
        # The executor absorbed machine 1's streams: every payload is
        # delivered (to its receiver) exactly once and nothing is left
        # in flight or awaiting an ack.
        assert net.quiescent()
        deliveries = net.stats.delivered_by_category.get("user", 0)
        assert deliveries == 5

    def test_custom_rto_honoured(self):
        loop, net, inbox = make_pair(
            faults=FaultPlan(drop_probability=1.0), rto=50_000,
        )
        net.send(0, 1, "x", 8)
        loop.run_until(49_000)
        assert net.stats.retransmissions == 0
        loop.run_until(101_000)
        assert net.stats.retransmissions >= 1
