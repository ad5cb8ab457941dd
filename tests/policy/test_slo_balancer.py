"""Tests for the latency-aware (SLO) balancer mode.

The decision state machine (:class:`SloTrigger`) is pure, so its
hysteresis guarantees — no firing without a sustained breach, no two
firings closer than the cooldown, hence no migration storm when p99
oscillates around the SLO — are property-tested directly over arbitrary
p99 sequences.  The integration tests then run the full loop: open-loop
overload on co-located hot services, windowed p99 read off the domain
histogram via ``delta_since``, one migration that spreads the pair.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.policy.load_balancer import (
    DomainLoadBalancer,
    SloPolicy,
    SloTrigger,
)
from repro.workloads.closed_loop import ClientPool, OpenLoopConfig
from repro.workloads.pingpong import echo_server
from tests.conftest import drain, make_system

BOUNDED = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestSloPolicyValidation:
    def test_rejects_bad_settings(self):
        with pytest.raises(ConfigError):
            SloPolicy(p99_slo_us=0).validate()
        with pytest.raises(ConfigError):
            SloPolicy(p99_slo_us=1_000, sustain=0).validate()
        with pytest.raises(ConfigError):
            SloPolicy(p99_slo_us=1_000, cooldown=-1).validate()
        with pytest.raises(ConfigError):
            SloPolicy(p99_slo_us=1_000, min_window_count=0).validate()

    def test_trigger_validates_on_construction(self):
        with pytest.raises(ConfigError):
            SloTrigger(SloPolicy(p99_slo_us=-5))


class TestSloTrigger:
    def policy(self, **overrides):
        defaults = dict(p99_slo_us=10_000, sustain=2, cooldown=100_000,
                        min_window_count=4)
        defaults.update(overrides)
        return SloPolicy(**defaults)

    def test_single_breach_does_not_fire(self):
        trigger = SloTrigger(self.policy())
        assert trigger.observe(20_000, 50, now=0) is False

    def test_sustained_breach_fires_once(self):
        trigger = SloTrigger(self.policy())
        assert trigger.observe(20_000, 50, now=0) is False
        assert trigger.observe(20_000, 50, now=10_000) is True
        # Streak resets after firing; the next breach starts over and
        # the cooldown gags it anyway.
        assert trigger.observe(20_000, 50, now=20_000) is False

    def test_cooldown_blocks_refire(self):
        trigger = SloTrigger(self.policy(sustain=1))
        assert trigger.observe(20_000, 50, now=0) is True
        assert trigger.observe(20_000, 50, now=99_999) is False
        assert trigger.observe(20_000, 50, now=100_000) is True

    def test_clear_band_keeps_streak_alive(self):
        """p99 dipping below the SLO but above CLEAR_FACTOR*SLO does not
        reset the streak — the hysteresis band."""
        trigger = SloTrigger(self.policy(sustain=2))
        assert trigger.observe(20_000, 50, now=0) is False
        # 9_000 < slo but > 0.8 * slo: streak survives.
        assert trigger.observe(9_000, 50, now=10_000) is False
        assert trigger.observe(20_000, 50, now=20_000) is True

    def test_clean_window_resets_streak(self):
        trigger = SloTrigger(self.policy(sustain=2))
        assert trigger.observe(20_000, 50, now=0) is False
        # Below the clear band: full reset.
        assert trigger.observe(7_000, 50, now=10_000) is False
        assert trigger.observe(20_000, 50, now=20_000) is False

    def test_thin_window_is_ignored_and_resets(self):
        trigger = SloTrigger(self.policy(min_window_count=10))
        assert trigger.observe(50_000, 3, now=0) is False
        assert trigger.observe(50_000, 3, now=10_000) is False
        # An idle window also clears a pending streak.
        trigger2 = SloTrigger(self.policy(sustain=2))
        trigger2.observe(20_000, 50, now=0)
        trigger2.observe(None, 0, now=10_000)
        assert trigger2.observe(20_000, 50, now=20_000) is False

    @BOUNDED
    @given(
        p99s=st.lists(
            st.one_of(
                st.none(),
                st.floats(min_value=1.0, max_value=40_000.0,
                          allow_nan=False),
            ),
            min_size=1,
            max_size=120,
        ),
        interval=st.sampled_from([5_000, 20_000]),
        cooldown=st.sampled_from([0, 60_000, 200_000]),
        sustain=st.integers(min_value=1, max_value=4),
    )
    def test_no_migration_storm_for_any_p99_sequence(
        self, p99s, interval, cooldown, sustain
    ):
        """However p99 oscillates around the SLO, firings stay at least
        one cooldown apart and a window needs *sustain* breaches — the
        no-storm guarantee the e13 burst leans on."""
        policy = SloPolicy(p99_slo_us=10_000, sustain=sustain,
                           cooldown=cooldown, min_window_count=1)
        trigger = SloTrigger(policy)
        fired_at = []
        for step, p99 in enumerate(p99s):
            now = step * interval
            if trigger.observe(p99, 0 if p99 is None else 50, now):
                fired_at.append(now)
        for earlier, later in zip(fired_at, fired_at[1:]):
            assert later - earlier >= cooldown
        if cooldown:
            elapsed = (len(p99s) - 1) * interval
            assert len(fired_at) <= 1 + elapsed // cooldown
        breached = sum(
            1 for p in p99s if p is not None and p > policy.p99_slo_us
        )
        assert len(fired_at) <= breached // sustain

    @BOUNDED
    @given(
        p99s=st.lists(
            st.floats(min_value=1.0, max_value=10_000.0, allow_nan=False),
            min_size=1, max_size=60,
        )
    )
    def test_never_fires_below_the_slo(self, p99s):
        trigger = SloTrigger(SloPolicy(p99_slo_us=10_000,
                                       min_window_count=1))
        assert not any(
            trigger.observe(p99, 50, now=i * 10_000)
            for i, p99 in enumerate(p99s)
        )


def run_hot_pair_scenario(seed=0, slo=None, threshold=3, compute=500):
    """Two hot echo services co-located on machine 3, each under single-
    machine capacity alone but over it together once the burst hits; an
    SLO (or queue-depth) domain balancer watches the 4-machine domain.

    Clients live on machines 0-2, so the overload queues in the servers'
    *mailboxes*: machine 3's run queue holds just the two servers and
    the e11 queue-depth threshold (spread >= 3) never trips — the
    blindness the latency-aware mode exists to fix.
    """
    system = make_system(machines=4, seed=seed)
    for name in ("svc-0", "svc-1"):
        system.spawn(
            lambda ctx, _n=name: echo_server(
                ctx, service_name=_n, compute_per_request=compute
            ),
            machine=3, name=name,
        )
    pool = ClientPool(
        system,
        OpenLoopConfig(
            clients=24,
            mean_interarrival_us=20_000,
            duration=400_000,
            deadline_us=10_000,
            drain_grace_us=150_000,
            burst_start=120_000,
            burst_end=280_000,
            burst_factor=3.0,
        ),
        services=("svc-0", "svc-1"),
        domains={"svc-0": "all", "svc-1": "all"},
        machines=(0, 1, 2),
        key="hot",
    )
    pool.install()
    balancer = DomainLoadBalancer(
        system.domain_view([0, 1, 2, 3]),
        domain="all",
        interval=25_000,
        threshold=threshold,
        sustain=2,
        cooldown=100_000,
        victim_strategy="hungriest",
        slo=slo,
    )
    balancer.install()
    system.loop.call_at(450_000, balancer.stop)
    drain(system, max_events=10_000_000)
    return system, pool, balancer


class TestSloBalancerIntegration:
    def test_slo_balancer_spreads_the_hot_pair(self):
        slo = SloPolicy(p99_slo_us=10_000, sustain=2, cooldown=150_000,
                        min_window_count=5)
        system, pool, balancer = run_hot_pair_scenario(slo=slo)
        assert balancer.stats.slo_breach_samples >= 2
        assert balancer.stats.migrations_started >= 1
        assert balancer.stats.migrations_succeeded >= 1
        # The first move came off the overloaded machine, SLO-traced.
        assert balancer.stats.moves[0][1] == 3
        assert len(balancer.stats.move_times) == len(balancer.stats.moves)
        records = [r for r in system.tracer if r.event == "slo_balance"]
        assert records and records[0].fields["slo"] == 10_000
        assert records[0].time == balancer.stats.move_times[0]
        assert records[0].fields["p99"] > 10_000
        # The services now sit on different machines.
        machines = {
            system.where_is(pid)
            for pid in (
                next(p for k in system.kernels
                     for p, s in k.processes.items() if s.name == "svc-0"),
                next(p for k in system.kernels
                     for p, s in k.processes.items() if s.name == "svc-1"),
            )
        }
        assert len(machines) == 2

    def test_cooldown_bounds_total_moves(self):
        """An SLO set below even the healthy tail fires as fast as the
        trigger allows — and the cooldown still caps the move count."""
        slo = SloPolicy(p99_slo_us=1_000, sustain=1, cooldown=120_000,
                        min_window_count=1)
        _, _, balancer = run_hot_pair_scenario(slo=slo)
        assert balancer.stats.migrations_started >= 1
        # The balancer stops at 450_000: at most 1 + elapsed/cooldown.
        assert balancer.stats.migrations_started <= 1 + 450_000 // 120_000

    def test_queue_depth_balancer_misses_mailbox_overload(self):
        """The comparison e13 quantifies: the burst queues in the
        servers' mailboxes while machine 3's run queue holds just the
        two servers, so the e11 queue-depth balancer never sees a
        spread worth acting on and the tail is left to rot."""
        system, pool, balancer = run_hot_pair_scenario(slo=None,
                                                       threshold=3)
        assert balancer.stats.migrations_started == 0
        histogram = system.metrics.snapshot().histogram(
            "workload.request_latency_us"
        )
        # ...and the users felt it: the tail is far past the 10ms SLO.
        assert histogram.p99 > 50_000

    def test_slo_mode_publishes_stats_with_domain_label(self):
        slo = SloPolicy(p99_slo_us=10_000, sustain=2, cooldown=150_000,
                        min_window_count=5)
        system, _, balancer = run_hot_pair_scenario(slo=slo)
        snap = system.metrics.snapshot()
        assert snap.get(
            "policy.balancer.slo_breach_samples", domain="all"
        ) == balancer.stats.slo_breach_samples
        assert snap.get(
            "policy.balancer.migrations_started", domain="all"
        ) == balancer.stats.migrations_started

    def test_same_seed_same_decisions(self):
        slo = SloPolicy(p99_slo_us=10_000, sustain=2, cooldown=150_000,
                        min_window_count=5)
        first = run_hot_pair_scenario(seed=3, slo=slo)[2].stats
        second = run_hot_pair_scenario(seed=3, slo=slo)[2].stats
        assert first.moves == second.moves
        assert first.slo_breach_samples == second.slo_breach_samples
