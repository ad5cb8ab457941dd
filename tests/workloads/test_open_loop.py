"""Tests for the open-loop (Poisson-arrival) client pool.

Covers the pool mechanics (schedules honoured, replies matched by id,
per-domain histograms), the deadline regression — a reply arriving after
its client's SLO window must count *late*, never in-SLO — next to the
reply-echo ``mismatches`` check it rides along with, and the two
determinism properties the e13 baselines rely on: same seed => identical
arrival schedule, and the bitwise equality of the merged per-domain
digests with the global one.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.obs.metrics import merge_histogram_snapshots
from repro.workloads.closed_loop import (
    REQUEST_LATENCY_METRIC,
    ClientPool,
    LoadShape,
    OpenLoopConfig,
    open_loop_schedules,
)
from repro.workloads.pingpong import echo_server
from tests.conftest import drain, make_system

BOUNDED = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SHAPES = [
    LoadShape(),
    LoadShape(kind="burst", burst_start=20_000, burst_end=60_000,
              burst_factor=5.0),
    LoadShape(kind="diurnal", ramp_factor=3.0),
    LoadShape(kind="hot_key", hot_services=1, hot_share=0.8),
]


def small_config(**overrides) -> OpenLoopConfig:
    defaults = dict(
        clients=12,
        mean_interarrival_us=25_000,
        duration=150_000,
        deadline_us=40_000,
        drain_grace_us=200_000,
    )
    defaults.update(overrides)
    return OpenLoopConfig(**defaults)


def run_open_pool(config: OpenLoopConfig, seed: int = 0, compute: int = 0,
                  domains=None, services=("echo",), server_machines=(1,)):
    """Fresh system, echo servers on *server_machines*, one pool run."""
    system = make_system(machines=4, seed=seed)
    for name, machine in zip(services, server_machines):
        system.spawn(
            lambda ctx, _n=name: echo_server(
                ctx, service_name=_n, compute_per_request=compute
            ),
            machine=machine, name=name,
        )
    pool = ClientPool(
        system, config, services=services, domains=domains, key="open",
    )
    pool.install()
    drain(system, max_events=5_000_000)
    return system, pool


class TestOpenLoopPool:
    def test_every_client_finishes_and_counts_reconcile(self):
        system, pool = run_open_pool(small_config())
        assert pool.open_loop
        assert pool.done
        assert pool.finished_clients == 12
        sent = sum(pool.request_counts)
        assert sent > 0
        # Every request is accounted for exactly once.
        assert pool.in_slo + pool.late + pool.unanswered == sent
        assert pool.mismatches == 0
        snap = system.metrics.snapshot()
        assert snap.total("workload.requests_sent") == sent
        assert snap.total("workload.requests_completed") == (
            pool.in_slo + pool.late
        )

    def test_sent_counts_match_predrawn_schedules(self):
        system, pool = run_open_pool(small_config())
        assert pool.request_counts == [
            len(schedule) for schedule in pool._schedules
        ]

    def test_slow_server_does_not_throttle_arrivals(self):
        """The open-loop contract: offered load is schedule-driven, so a
        slow server receives exactly as many requests as a fast one."""
        fast = run_open_pool(small_config(), compute=0)[1]
        slow = run_open_pool(small_config(), compute=30_000)[1]
        assert slow.request_counts == fast.request_counts

    def test_board_records_per_client_outcomes(self):
        _, pool = run_open_pool(small_config())
        rows = pool.board.get("open")
        assert len(rows) == 12
        assert all(row["sent"] == pool.request_counts[row["client"]]
                   for row in rows)


class TestDeadlineVerdicts:
    """The SLO-window bugfix plus the mismatch check it sits beside."""

    def test_reply_after_deadline_counts_late_not_in_slo(self):
        """Regression: the server takes longer than the deadline window,
        so every answered request must land in ``late`` — a reply the
        user already gave up on is not an in-SLO success."""
        config = small_config(deadline_us=10_000)
        _, pool = run_open_pool(config, compute=25_000)
        answered = pool.in_slo + pool.late
        assert answered > 0
        assert pool.in_slo == 0
        assert pool.late == answered
        assert pool.mismatches == 0

    def test_fast_replies_count_in_slo(self):
        config = small_config(deadline_us=45_000)
        _, pool = run_open_pool(config, compute=0)
        assert pool.in_slo > 0
        assert pool.late + pool.unanswered + pool.in_slo == sum(
            pool.request_counts
        )

    def _absorb(self, pool, now, sent_at, echo, pending):
        """Drive _absorb_reply with a stub context and message."""

        class Ctx:
            def __init__(self):
                self.now = now
                self.destroyed = []

            def destroy_link(self, link):
                self.destroyed.append(link)
                return ("destroy", link)

        class Msg:
            def __init__(self, payload):
                self.payload = payload

        ctx = Ctx()
        gen = pool._absorb_reply(ctx, 0, None, Msg({"echo": echo}), pending)
        for _ in gen:
            pass
        return ctx

    def make_pool(self, deadline):
        system = make_system(machines=2)
        return ClientPool(
            system, small_config(deadline_us=deadline), key="unit",
        )

    def test_boundary_reply_at_deadline_is_in_slo(self):
        pool = self.make_pool(deadline=5_000)
        pending = {3: (1_000, 77)}
        ctx = self._absorb(pool, now=6_000, sent_at=1_000,
                           echo={"client": 0, "req": 3}, pending=pending)
        assert (pool.in_slo, pool.late) == (1, 0)
        assert ctx.destroyed == [77]
        assert not pending

    def test_boundary_reply_one_tick_past_deadline_is_late(self):
        pool = self.make_pool(deadline=5_000)
        ctx = self._absorb(pool, now=6_001, sent_at=1_000,
                           echo={"client": 0, "req": 3},
                           pending={3: (1_000, 77)})
        assert (pool.in_slo, pool.late) == (0, 1)
        assert ctx.destroyed == [77]

    def test_mismatched_echo_counts_mismatch_not_slo(self):
        """A reply echoing another client's request is a mismatch: no
        latency observation, no SLO verdict, pending entry untouched."""
        pool = self.make_pool(deadline=5_000)
        pending = {3: (1_000, 77)}
        ctx = self._absorb(pool, now=2_000, sent_at=1_000,
                           echo={"client": 9, "req": 3}, pending=pending)
        assert pool.mismatches == 1
        assert (pool.in_slo, pool.late) == (0, 0)
        assert ctx.destroyed == []

    def test_unknown_req_id_counts_mismatch(self):
        pool = self.make_pool(deadline=5_000)
        ctx = self._absorb(pool, now=2_000, sent_at=1_000,
                           echo={"client": 0, "req": 42},
                           pending={3: (1_000, 77)})
        assert pool.mismatches == 1
        assert ctx.destroyed == []


class TestLoadShape:
    def test_validation_rejects_bad_shapes(self):
        with pytest.raises(ConfigError):
            LoadShape(kind="tidal").validate()
        with pytest.raises(ConfigError):
            LoadShape(kind="burst", burst_start=10, burst_end=10).validate()
        with pytest.raises(ConfigError):
            LoadShape(kind="burst", burst_start=0, burst_end=10,
                      burst_factor=0).validate()
        with pytest.raises(ConfigError):
            LoadShape(kind="diurnal", ramp_factor=0).validate()
        with pytest.raises(ConfigError):
            LoadShape(kind="hot_key").validate()
        with pytest.raises(ConfigError):
            LoadShape(hot_share=1.5).validate()
        with pytest.raises(ConfigError):
            LoadShape(hot_services=0).validate()

    def test_burst_factor_applies_only_inside_window(self):
        shape = LoadShape(kind="burst", burst_start=100, burst_end=200,
                          burst_factor=4.0)
        assert shape.rate_factor(50, 1_000) == 1.0
        assert shape.rate_factor(100, 1_000) == 4.0
        assert shape.rate_factor(199, 1_000) == 4.0
        assert shape.rate_factor(200, 1_000) == 1.0

    def test_diurnal_ramp_is_linear(self):
        shape = LoadShape(kind="diurnal", ramp_factor=3.0)
        assert shape.rate_factor(0, 1_000) == 1.0
        assert shape.rate_factor(500, 1_000) == 2.0
        assert shape.rate_factor(1_000, 1_000) == 3.0
        assert shape.rate_factor(2_000, 1_000) == 3.0

    def test_hot_key_weights_sum_to_one_and_skew(self):
        shape = LoadShape(kind="hot_key", hot_services=2, hot_share=0.8)
        weights = shape.service_weights(8)
        assert sum(weights) == pytest.approx(1.0)
        assert weights[0] == weights[1] == pytest.approx(0.4)
        assert all(w == pytest.approx(0.2 / 6) for w in weights[2:])

    def test_uniform_weights_when_no_skew(self):
        assert LoadShape().service_weights(4) == [0.25] * 4

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            OpenLoopConfig(clients=0).validate()
        with pytest.raises(ConfigError):
            OpenLoopConfig(mean_interarrival_us=0).validate()
        with pytest.raises(ConfigError):
            OpenLoopConfig(duration=0).validate()
        with pytest.raises(ConfigError):
            OpenLoopConfig(deadline_us=0).validate()
        with pytest.raises(ConfigError):
            OpenLoopConfig(drain_grace_us=-1).validate()


class TestScheduleDeterminism:
    @BOUNDED
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        clients=st.integers(min_value=1, max_value=40),
        mean=st.sampled_from([5_000, 25_000, 80_000]),
        shape=st.sampled_from(SHAPES),
    )
    def test_same_seed_same_schedule(self, seed, clients, mean, shape):
        """The arrival schedule is a pure function of (config, seed)."""
        config = OpenLoopConfig(
            clients=clients, mean_interarrival_us=mean,
            duration=200_000, shape=shape,
        )
        first = open_loop_schedules(config, random.Random(seed))
        second = open_loop_schedules(config, random.Random(seed))
        assert first == second
        assert len(first) == clients
        end = config.start_at + config.duration
        for times in first:
            assert times == sorted(times)
            assert all(config.start_at <= t < end for t in times)

    def test_burst_window_densifies_arrivals(self):
        config = OpenLoopConfig(
            clients=50, mean_interarrival_us=20_000, duration=300_000,
            shape=LoadShape(kind="burst", burst_start=100_000,
                            burst_end=200_000, burst_factor=6.0),
        )
        schedules = open_loop_schedules(config, random.Random(7))
        flat = [t for times in schedules for t in times]
        window = config.start_at + 100_000, config.start_at + 200_000
        inside = sum(1 for t in flat if window[0] <= t < window[1])
        outside = len(flat) - inside
        # The burst window is 1/3 of the run at 6x the rate: inside
        # arrivals must dominate even with sampling noise.
        assert inside > outside

    def test_full_run_twice_is_byte_identical(self):
        """Two fresh systems, same seed: every deterministic counter and
        the full latency bucket vector agree."""

        def observe():
            system, pool = run_open_pool(
                small_config(
                    shape=LoadShape(kind="burst", burst_start=30_000,
                                    burst_end=80_000, burst_factor=4.0),
                ),
                seed=11, compute=3_000,
            )
            histogram = system.metrics.snapshot().histogram(
                REQUEST_LATENCY_METRIC
            )
            return (
                list(pool.request_counts),
                pool.in_slo, pool.late, pool.unanswered, pool.mismatches,
                histogram.bucket_counts, histogram.count, histogram.sum,
            )

        assert observe() == observe()


class TestPerDomainDigests:
    def test_domain_merge_equals_global_bitwise(self):
        """Observed through a real run: folding the per-domain histogram
        snapshots reproduces the global snapshot exactly (latencies are
        integers, so float sums are exact and order-free)."""
        config = small_config(
            clients=16,
            shape=LoadShape(kind="hot_key", hot_services=1, hot_share=0.7),
        )
        system, pool = run_open_pool(
            config,
            services=("svc-a", "svc-b"),
            server_machines=(1, 2),
            domains={"svc-a": "east", "svc-b": "west"},
        )
        snap = system.metrics.snapshot()
        global_hist = snap.histogram(REQUEST_LATENCY_METRIC)
        by_domain = snap.histogram_by_label(REQUEST_LATENCY_METRIC, "domain")
        assert set(by_domain) == {"east", "west"}
        merged = merge_histogram_snapshots(
            [by_domain[d] for d in sorted(by_domain)]
        )
        assert merged.bucket_counts == global_hist.bucket_counts
        assert merged.count == global_hist.count
        assert merged.sum == global_hist.sum
        assert merged.min == global_hist.min
        assert merged.max == global_hist.max

    @BOUNDED
    @given(
        observations=st.lists(
            st.tuples(
                st.sampled_from(["east", "west", "north"]),
                st.integers(min_value=1, max_value=60_000_000),
            ),
            min_size=1,
            max_size=200,
        )
    )
    def test_merge_property_over_arbitrary_streams(self, observations):
        """Bitwise merge equality holds for any interleaving of integer
        latencies across domains — the property the e13 gate relies on."""
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        global_hist = registry.latency_histogram(REQUEST_LATENCY_METRIC)
        domain_hist = {}
        for domain, latency in observations:
            global_hist.observe(latency)
            if domain not in domain_hist:
                domain_hist[domain] = registry.latency_histogram(
                    REQUEST_LATENCY_METRIC, domain=domain
                )
            domain_hist[domain].observe(latency)
        merged = merge_histogram_snapshots(
            [domain_hist[d].freeze() for d in sorted(domain_hist)]
        )
        assert merged == global_hist.freeze()
