"""Request/reply client pools: the *user's* view of migration.

Two traffic models share one :class:`ClientPool`:

- **closed loop** (:class:`ClosedLoopConfig`) — N simulated users, each
  sending one request, waiting for the reply, thinking for a sampled
  delay, then sending the next.  Offered load adapts to how fast the
  system answers, so the request count is exactly the configured quota.
- **open loop** (:class:`OpenLoopConfig`) — every client sends on a
  pre-drawn Poisson schedule *whether or not earlier replies have
  arrived*.  Slow service no longer throttles the arrival rate (the
  coordinated-omission trap of closed loops), so queues genuinely build
  when demand exceeds capacity — which is what an SLO-driven migration
  policy needs to see.  An optional burst window multiplies the arrival
  rate for part of the run.

A server that migrates mid-conversation — or answers through a
forwarding chain — stretches the *observed response time* of exactly
the requests it delayed, and the paper's §6 per-event cost analysis
becomes a request-latency distribution, the metric interactive services
are actually judged on (means hide the damage; percentiles don't).

Latencies land in a histogram on the log-spaced
:data:`~repro.obs.metrics.LATENCY_BUCKETS_US` grid
(:meth:`~repro.obs.metrics.MetricsRegistry.latency_histogram`) in the
registry of the shard owning each client's machine, so ``report
--json``, the metrics exporters and the benchmark artifacts all see
p50/p95/p99 in the cluster's merged snapshot without extra plumbing, on
any engine.  Open-loop pools can additionally partition latencies into
per-domain histograms (``domain=<label>``) whose bitwise merge equals
the global digest — the per-domain series an SLO balancer consumes.

Determinism: think times and arrival schedules are pre-drawn from one
named random stream at install time, in client-index order, so the same
seed and config yield the same per-request timing regardless of how the
event loop interleaves the clients at run time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Mapping, Sequence

from repro.errors import ConfigError
from repro.kernel.context import ProcessContext
from repro.kernel.ids import ProcessId
from repro.servers.common import lookup_service, rpc
from repro.workloads.results import ResultsBoard

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.cluster import Cluster
    from repro.obs.metrics import MetricsRegistry

#: registry name for the pool's end-to-end request latency histogram
REQUEST_LATENCY_METRIC = "workload.request_latency_us"
#: request payload size, bytes
PAYLOAD_BYTES = 32
#: spawn spacing between successive closed-loop clients (staggers the
#: switchboard lookups, like real users arriving over time); open-loop
#: clients all spawn at time 0
CLOSED_STAGGER_US = 500
#: simulated time of the first possible open-loop arrival
OPEN_START_AT = 1_000


@dataclass(frozen=True)
class ClosedLoopConfig:
    """Shape of one closed-loop client pool.

    Think times are drawn from the ``closed-loop`` random stream.
    """

    clients: int = 4
    requests_per_client: int = 10
    #: mean think time between a reply and the next request (exponential;
    #: 0 disables thinking entirely)
    mean_think_us: int = 2_000
    #: simulated time of the first client spawn
    start_at: int = 1_000

    def validate(self) -> None:
        if self.clients < 1:
            raise ConfigError(f"need at least one client, got {self.clients}")
        if self.requests_per_client < 1:
            raise ConfigError("requests_per_client must be positive")
        if self.mean_think_us < 0 or self.start_at < 0:
            raise ConfigError("times must be non-negative")


@dataclass(frozen=True)
class OpenLoopConfig:
    """Shape of one open-loop (Poisson-arrival) client pool.

    Arrivals start at :data:`OPEN_START_AT` and are drawn from the
    ``open-loop`` random stream.
    """

    clients: int = 100
    #: mean gap between one client's requests outside the burst
    mean_interarrival_us: int = 100_000
    #: length of the arrival window, from :data:`OPEN_START_AT`
    duration: int = 1_000_000
    #: per-request SLO window: a reply later than this is *late*, never
    #: in-SLO, however long the client keeps listening for it
    deadline_us: int = 50_000
    #: how long a client waits for stragglers after its last send
    drain_grace_us: int = 300_000
    #: burst window, microseconds relative to :data:`OPEN_START_AT`; the
    #: arrival rate is ``burst_factor`` times higher inside it (an empty
    #: window means a steady rate)
    burst_start: int = 0
    burst_end: int = 0
    burst_factor: float = 4.0

    def validate(self) -> None:
        if self.clients < 1:
            raise ConfigError(f"need at least one client, got {self.clients}")
        if self.mean_interarrival_us < 1:
            raise ConfigError("mean_interarrival_us must be positive")
        if self.duration < 1:
            raise ConfigError("duration must be positive")
        if self.deadline_us < 1:
            raise ConfigError("deadline_us must be positive")
        if self.drain_grace_us < 0:
            raise ConfigError("times must be non-negative")
        if self.burst_start < 0 or self.burst_end < self.burst_start:
            raise ConfigError("burst window must be ordered, from >= 0")
        if self.burst_factor <= 0:
            raise ConfigError("burst_factor must be positive")

    def rate_factor(self, elapsed: int) -> float:
        """Arrival-rate multiplier at *elapsed* us into the window."""
        if self.burst_start <= elapsed < self.burst_end:
            return self.burst_factor
        return 1.0


def open_loop_schedules(
    config: OpenLoopConfig, rng: random.Random
) -> list[list[int]]:
    """Pre-draw every client's absolute send times, in client order.

    A pure function of (config, rng state): the same seeded stream
    always yields the same schedule, which is what makes open-loop runs
    reproducible.  Rate modulation uses the piecewise-exponential
    approximation — each gap is drawn at the rate in force when it
    starts — which is deterministic and close enough for load shaping.
    """
    end = OPEN_START_AT + config.duration
    schedules: list[list[int]] = []
    for _ in range(config.clients):
        at = float(OPEN_START_AT)
        times: list[int] = []
        while True:
            factor = config.rate_factor(int(at) - OPEN_START_AT)
            at += rng.expovariate(factor / config.mean_interarrival_us)
            if at >= end:
                break
            times.append(int(at))
        schedules.append(times)
    return schedules


class _Meters:
    """A pool's instruments in one shard's registry."""

    __slots__ = (
        "latency", "completed", "forwarded", "mismatched", "sent",
        "slo_ok", "slo_late", "domain_latency", "spot_latency",
    )

    def __init__(
        self,
        metrics: "MetricsRegistry",
        domains: Mapping[str, str],
        spotlight: tuple[str, int, int] | None,
    ) -> None:
        metric = REQUEST_LATENCY_METRIC
        self.latency = metrics.latency_histogram(metric)
        self.completed = metrics.counter("workload.requests_completed")
        self.forwarded = metrics.counter("workload.replies_forwarded")
        self.mismatched = metrics.counter("workload.reply_mismatches")
        self.sent = metrics.counter("workload.requests_sent")
        self.slo_ok = metrics.counter("workload.replies_in_slo")
        self.slo_late = metrics.counter("workload.replies_late")
        self.domain_latency = {
            domain: metrics.latency_histogram(metric, domain=domain)
            for domain in sorted(set(domains.values()))
        }
        self.spot_latency = (
            metrics.latency_histogram(metric, window=spotlight[0])
            if spotlight is not None
            else None
        )


class ClientPool:
    """N simulated users driving request/reply services.

    With a :class:`ClosedLoopConfig`, each client resolves one service
    name through the switchboard (the names cycle over *services*, so a
    pool can spread load across many servers), then alternates
    request -> reply -> think until it has completed its quota.  With an
    :class:`OpenLoopConfig`, each client instead fires requests on its
    pre-drawn Poisson schedule, matching replies back to requests by id
    as they arrive — so a slow server accumulates outstanding requests
    rather than slowing the offered load.

    Per-request latencies are observed into the registry's latency
    histogram; per-client request counts are kept in
    :attr:`request_counts` so tests can pin the exact vector.  Open-loop
    extras:

    - *domains* maps a service name to a domain label; each reply is
      then also observed into ``metric{domain=<label>}``, the per-domain
      digests an SLO balancer consumes (their bitwise merge equals
      the global histogram);
    - *spotlight* ``(label, start, end)`` additionally records requests
      *sent* inside ``[start, end)`` into ``metric{window=<label>}`` —
      how the e13 benchmark isolates the burst window's percentiles.

    The pool runs on any :class:`~repro.core.cluster.Cluster`: each
    client spawns through ``cluster.call_at`` on its own machine and
    observes into that machine's shard registry, so totals are read
    from ``cluster.snapshot()``.  Its tallies (:attr:`request_counts`,
    :attr:`mismatches`, the SLO verdicts) live in the driving process,
    like the chaos ledger, so a sharded pool runs on the serial
    executor only.
    """

    def __init__(
        self,
        system: "Cluster",
        config: ClosedLoopConfig | OpenLoopConfig | None = None,
        *,
        services: Sequence[str] = ("echo",),
        machines: Sequence[int] | None = None,
        board: ResultsBoard | None = None,
        key: str = "closed-loop",
        domains: Mapping[str, str] | None = None,
        spotlight: tuple[str, int, int] | None = None,
    ) -> None:
        if not services:
            raise ConfigError("need at least one service name")
        self.system = system
        self.config = config or ClosedLoopConfig()
        self.config.validate()
        self.services = tuple(services)
        self.machines = tuple(
            machines if machines is not None else system.topology.machines
        )
        self.board = board if board is not None else ResultsBoard()
        self.key = key
        self.domains = dict(domains) if domains else {}
        self.spotlight = spotlight
        #: requests completed (closed loop) / sent (open loop), by client
        self.request_counts: list[int] = [0] * self.config.clients
        self.spawned: list[ProcessId] = []
        #: replies whose echoed payload did not match the request that
        #: was awaiting one — a duplicate, reordered, or cross-wired
        #: reply.  The chaos exactly-once invariant gates this at zero.
        self.mismatches = 0
        #: open-loop reply outcomes against the per-request deadline
        self.in_slo = 0
        self.late = 0
        #: open-loop requests still unanswered when their client gave up
        self.unanswered = 0
        self.finished_clients = 0
        if not self.machines:
            raise ConfigError("need at least one client machine")
        meters = [
            _Meters(shard.metrics, self.domains, spotlight)
            for shard in system.shards
        ]
        #: per client, the instruments of its machine's shard
        self._meters = [
            meters[system.shard_for(self._machine(index)).index]
            for index in range(self.config.clients)
        ]
        self._think_times: list[list[int]] = []
        self._schedules: list[list[int]] = []

    @property
    def open_loop(self) -> bool:
        """Whether this pool runs the open-loop arrival mode."""
        return isinstance(self.config, OpenLoopConfig)

    # ------------------------------------------------------------------

    def install(self) -> None:
        """Pre-draw every think time / arrival, then schedule spawns."""
        cfg = self.config
        if self.open_loop:
            rng = self.system.rngs.stream("open-loop")
            self._schedules = open_loop_schedules(cfg, rng)
            start, stagger = 0, 0
        else:
            rng = self.system.rngs.stream("closed-loop")
            mean = cfg.mean_think_us
            self._think_times = [
                [
                    int(rng.expovariate(1.0 / mean)) if mean else 0
                    for _ in range(cfg.requests_per_client)
                ]
                for _ in range(cfg.clients)
            ]
            start, stagger = cfg.start_at, CLOSED_STAGGER_US
        services = self.services
        for index in range(cfg.clients):
            machine = self._machine(index)
            self.system.call_at(
                start + index * stagger,
                machine,
                self._spawn_client,
                index,
                machine,
                services[index % len(services)],
            )

    def _machine(self, index: int) -> int:
        """The machine client *index* lives on."""
        return self.machines[index % len(self.machines)]

    def _spawn_client(self, index: int, machine: int, service: str) -> None:
        program = (
            (lambda ctx: self._open_client(ctx, index, service))
            if self.open_loop
            else (lambda ctx: self._client(ctx, index, service))
        )
        kernel = self.system.kernel(machine)
        self.spawned.append(kernel.spawn(program, name=f"{self.key}-{index}"))

    @property
    def done(self) -> bool:
        """Whether every client has finished its conversation."""
        if self.open_loop:
            return self.finished_clients == self.config.clients
        quota = self.config.requests_per_client
        return all(count == quota for count in self.request_counts)

    # ------------------------------------------------------------------

    def _client(
        self, ctx: ProcessContext, index: int, service_name: str
    ) -> Generator[Any, Any, None]:
        cfg = self.config
        meters = self._meters[index]
        service = yield from lookup_service(ctx, service_name)
        thinks = self._think_times[index]
        server_machines: list[int] = []
        for round_no in range(cfg.requests_per_client):
            sent_at = ctx.now
            request = {"round": round_no, "client": index}
            reply = yield from rpc(
                ctx,
                service,
                "echo",
                request,
                payload_bytes=PAYLOAD_BYTES,
            )
            assert reply is not None
            if reply.payload.get("echo") != request:
                # The reply answering this request is not an echo of it:
                # exactly-once delivery was violated somewhere.
                self.mismatches += 1
                meters.mismatched.inc()
            meters.latency.observe(ctx.now - sent_at)
            meters.completed.inc()
            if reply.payload.get("forwarded"):
                meters.forwarded.inc()
            self.request_counts[index] += 1
            machine = reply.payload.get("machine")
            if not server_machines or machine != server_machines[-1]:
                server_machines.append(machine)
            think = thinks[round_no]
            if think:
                yield ctx.sleep(think)
        self.board.post(
            self.key,
            {
                "client": index,
                "service": service_name,
                "requests": self.request_counts[index],
                "server_machines": server_machines,
            },
        )
        self.finished_clients += 1
        yield ctx.exit()

    # ------------------------------------------------------------------
    # Open-loop mode
    # ------------------------------------------------------------------

    def _open_client(
        self, ctx: ProcessContext, index: int, service_name: str
    ) -> Generator[Any, Any, None]:
        """Fire requests on the pre-drawn schedule; match replies by id.

        Sends never wait for outstanding replies — that is the open-loop
        contract.  Replies are drained between sends (and for a grace
        period after the last one) and matched back to their request by
        the echoed ``req`` id; each reply's latency goes to the global,
        per-domain and spotlight histograms, and is judged against the
        per-request deadline: a reply arriving after its window is
        counted *late*, never in-SLO.
        """
        cfg = self.config
        service = yield from lookup_service(ctx, service_name)
        domain = self.domains.get(service_name)
        schedule = self._schedules[index]
        meters = self._meters[index]
        #: req id -> (sent_at, reply link id)
        pending: dict[int, tuple[int, int]] = {}
        next_req = 0
        replies = 0
        while next_req < len(schedule) or pending:
            if next_req < len(schedule):
                due = schedule[next_req]
                if ctx.now >= due:
                    reply_link = yield ctx.create_link()
                    yield ctx.send(
                        service,
                        op="echo",
                        payload={"client": index, "req": next_req},
                        payload_bytes=PAYLOAD_BYTES,
                        links=(reply_link,),
                    )
                    pending[next_req] = (ctx.now, reply_link)
                    self.request_counts[index] += 1
                    meters.sent.inc()
                    next_req += 1
                    continue
                message = yield ctx.receive(timeout=due - ctx.now)
            else:
                message = yield ctx.receive(timeout=cfg.drain_grace_us)
                if message is None:
                    break  # stragglers beyond the grace window are lost
            if message is None:
                continue  # timeout: the next scheduled send is due
            replies += 1
            yield from self._absorb_reply(ctx, index, domain, message, pending)
        self.unanswered += len(pending)
        self.board.post(
            self.key,
            {
                "client": index,
                "service": service_name,
                "sent": self.request_counts[index],
                "replies": replies,
                "unanswered": len(pending),
            },
        )
        self.finished_clients += 1
        yield ctx.exit()

    def _absorb_reply(
        self,
        ctx: ProcessContext,
        index: int,
        domain: str | None,
        message: Any,
        pending: dict[int, tuple[int, int]],
    ) -> Generator[Any, Any, None]:
        """Record one reply: latency, SLO verdict, bookkeeping."""
        meters = self._meters[index]
        payload = message.payload if isinstance(message.payload, dict) else {}
        echo = payload.get("echo")
        req = echo.get("req") if isinstance(echo, dict) else None
        entry = pending.pop(req, None) if req is not None else None
        if entry is None or (echo or {}).get("client") != index:
            # Not an echo of anything this client is waiting for:
            # exactly-once delivery was violated somewhere.
            self.mismatches += 1
            meters.mismatched.inc()
            return
        sent_at, reply_link = entry
        latency = ctx.now - sent_at
        meters.latency.observe(latency)
        if domain is not None:
            meters.domain_latency[domain].observe(latency)
        if self.spotlight is not None:
            _, spot_start, spot_end = self.spotlight
            if spot_start <= sent_at < spot_end:
                meters.spot_latency.observe(latency)
        meters.completed.inc()
        if payload.get("forwarded"):
            meters.forwarded.inc()
        # The deadline verdict: replies beyond the window are late, so
        # in_slo counts only requests the user would call answered.
        if latency <= self.config.deadline_us:
            self.in_slo += 1
            meters.slo_ok.inc()
        else:
            self.late += 1
            meters.slo_late.inc()
        yield ctx.destroy_link(reply_link)
