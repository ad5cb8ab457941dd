"""Tests for balancer victim-selection strategies (§3.1 resource-use
patterns)."""

import pytest

from repro.errors import ConfigError
from repro.kernel.memory import MemoryImage
from repro.policy.load_balancer import ThresholdLoadBalancer
from repro.workloads.compute import compute_bound
from tests.conftest import drain, make_bare_system


def parked(ctx):
    while True:
        yield ctx.receive()


class TestVictimStrategies:
    def test_unknown_strategy_rejected(self):
        system = make_bare_system()
        with pytest.raises(ConfigError):
            ThresholdLoadBalancer(system, victim_strategy="vibes")

    def test_cheapest_moves_the_smallest_process(self):
        system = make_bare_system(machines=2)
        big = system.kernel(0).spawn(
            lambda ctx: compute_bound(ctx, total=500_000), name="big",
            memory=MemoryImage.sized(code=64_000, data=64_000, stack=1_000),
        )
        small = system.kernel(0).spawn(
            lambda ctx: compute_bound(ctx, total=500_000), name="small",
            memory=MemoryImage.sized(code=1_000, data=1_000, stack=500),
        )
        balancer = ThresholdLoadBalancer(
            system, interval=5_000, threshold=1, sustain=1,
            cooldown=10**9, victim_strategy="cheapest",
        )
        balancer.install()
        system.run(until=100_000)
        balancer.stop()
        drain(system, max_events=50_000_000)
        moved_pids = [pid for pid, _, _ in balancer.stats.moves]
        assert moved_pids and moved_pids[0] == str(small)

    def test_hungriest_moves_the_cpu_heavy_process(self):
        system = make_bare_system(machines=2)
        # A CPU hog and an idle waiter share machine 0.
        hog = system.kernel(0).spawn(
            lambda ctx: compute_bound(ctx, total=800_000), name="hog",
        )
        idler = system.kernel(0).spawn(parked, name="idler")
        # Give the hog time to accumulate CPU before balancing starts.
        system.run(until=50_000)
        balancer = ThresholdLoadBalancer(
            system, interval=5_000, threshold=1, sustain=1,
            cooldown=10**9, victim_strategy="hungriest",
        )
        balancer.install()
        system.run(until=200_000)
        balancer.stop()
        drain(system, max_events=50_000_000)
        moved_pids = [pid for pid, _, _ in balancer.stats.moves]
        assert moved_pids and moved_pids[0] == str(hog)

    def test_first_strategy_matches_paper_arbitrariness(self):
        """"The decision to move a particular process and the choice of
        destination were arbitrary" — the default picks the first
        eligible candidate deterministically."""
        system = make_bare_system(machines=2)
        a = system.kernel(0).spawn(
            lambda ctx: compute_bound(ctx, total=400_000), name="a",
        )
        b = system.kernel(0).spawn(
            lambda ctx: compute_bound(ctx, total=400_000), name="b",
        )
        balancer = ThresholdLoadBalancer(
            system, interval=5_000, threshold=1, sustain=1,
            cooldown=10**9, victim_strategy="first",
        )
        balancer.install()
        system.run(until=100_000)
        balancer.stop()
        drain(system, max_events=50_000_000)
        moved_pids = [pid for pid, _, _ in balancer.stats.moves]
        assert moved_pids and moved_pids[0] == str(min((a, b), key=str))
