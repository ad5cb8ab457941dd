"""The §3.1 policy head-to-head, queue depth vs latency: the scenario
``benchmarks/test_e13_slo.py`` gates and ``python -m repro slo`` prints.

Two hot echo services share machine 3 and an open-loop burst pushes
their demand past its capacity; every client lives elsewhere, so the
backlog queues in the services' mailboxes, invisible to run-queue
spread, and only the latency-aware balancer sees it and moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.core.config import SystemConfig
from repro.core.system import System
from repro.policy.load_balancer import DomainLoadBalancer, SloPolicy
from repro.workloads.closed_loop import (
    REQUEST_LATENCY_METRIC,
    ClientPool,
    LoadShape,
    OpenLoopConfig,
)
from repro.workloads.pingpong import echo_server

SERVICES = ("svc-0", "svc-1")
MACHINES = 4
SERVICE_MACHINE = MACHINES - 1  #: both services' home; no client runs here
MEAN_INTERARRIVAL_US = 20_000
BURST_FACTOR = 3.0
COMPUTE_US = 500  #: CPU us each hot service burns per request
INTERVAL = 25_000  #: balancer sampling interval
THRESHOLD = 3  #: queue-depth spread threshold (the e11 setting)
SUSTAIN = 2
COOLDOWN = 100_000
MIN_WINDOW_COUNT = 5


@dataclass(frozen=True)
class SloParams:
    """One head-to-head scenario size; the defaults are the full burst."""

    seed: int = 0
    clients: int = 24
    duration: int = 400_000  #: open-loop arrival window
    burst_start: int = 120_000  #: burst onset, relative to the window
    burst_end: int = 280_000
    slo_us: int = 10_000  #: p99 objective; also the per-request deadline
    stop_at: int = 450_000  #: balancer retires here so the drain can finish
    drain_grace_us: int = 150_000


def run_arm(p: SloParams, latency_aware: bool) -> dict:
    """Run one policy arm to quiescence and return its numbers."""
    system = System(
        SystemConfig(machines=MACHINES, seed=p.seed, trace_categories=())
    )
    serve = partial(echo_server, compute_per_request=COMPUTE_US)
    for name in SERVICES:
        system.spawn(partial(serve, service_name=name),
                     machine=SERVICE_MACHINE, name=name)
    config = OpenLoopConfig(
        clients=p.clients, mean_interarrival_us=MEAN_INTERARRIVAL_US,
        duration=p.duration, deadline_us=p.slo_us,
        drain_grace_us=p.drain_grace_us,
        shape=LoadShape(
            kind="burst", burst_start=p.burst_start,
            burst_end=p.burst_end, burst_factor=BURST_FACTOR,
            hot_services=2, hot_share=1.0,
        ),
    )
    burst = config.start_at + p.burst_start, config.start_at + p.burst_end
    pool = ClientPool(
        system, config, services=SERVICES,
        domains=dict.fromkeys(SERVICES, "all"),
        # Clients stay off the services' machine: the overload must
        # queue in their mailboxes, invisible to run-queue spread.
        machines=tuple(range(SERVICE_MACHINE)),
        key="slo", spotlight=("burst", *burst),
    )
    pool.install()
    slo = SloPolicy(
        p99_slo_us=p.slo_us, sustain=SUSTAIN, cooldown=COOLDOWN,
        min_window_count=MIN_WINDOW_COUNT,
    )
    balancer = DomainLoadBalancer(
        system.domain_view(list(range(MACHINES))), domain="all",
        interval=INTERVAL, threshold=THRESHOLD, sustain=SUSTAIN,
        cooldown=COOLDOWN, victim_strategy="hungriest",
        slo=slo if latency_aware else None,
    )
    balancer.install()
    system.loop.call_at(p.stop_at, balancer.stop)
    system.drain()  # raises SimulationError on a run that never quiesces
    snapshot = system.metrics.snapshot()
    overall = snapshot.histogram(REQUEST_LATENCY_METRIC)
    window = snapshot.histogram(REQUEST_LATENCY_METRIC, window="burst")
    moves = balancer.stats.move_times
    return {
        "requests_sent": sum(pool.request_counts),
        "requests": overall.count,
        "replies_in_slo": pool.in_slo,
        "replies_late": pool.late,
        "unanswered": pool.unanswered,
        "mismatches": pool.mismatches,
        "p50_us": overall.p50,
        "p99_us": overall.p99,
        "burst_count": window.count,
        "burst_p50_us": window.p50,
        "burst_p99_us": window.p99,
        "migrations": balancer.stats.migrations_started,
        "first_move_at_us": moves[0] if moves else None,
        "slo_breach_samples": balancer.stats.slo_breach_samples,
    }
