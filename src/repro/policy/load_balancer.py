"""A threshold load balancer with hysteresis (paper §3.1 / §7).

"The mechanism for moving a process has been implemented, but there is
not yet a strategy routine that actually decides when to move a process"
— the paper leaves the decision rule as continuing work, and names the
three missing pieces: collecting the information in one place, a strategy
for improving system operation against migration costs, and "a hysteresis
mechanism to keep from incurring the cost of migration more often than
justified by the gains."  This module implements that strategy routine.

The balancer plays the process manager's decision role: it periodically
samples per-machine run-queue loads and, when the spread between the most
and least loaded machines exceeds a threshold for several consecutive
samples, migrates one process from the hottest to the coolest machine.
Hysteresis comes from (a) the sustained-imbalance requirement and (b) a
per-process cooldown.

**Latency-aware mode** (:class:`SloPolicy`): instead of run-queue
spread, the trigger is the *users'* experience — the p99 of the request
latency histogram over the last sampling interval, read as cumulative-
snapshot deltas (:meth:`~repro.obs.metrics.HistogramSnapshot.
delta_since`).  When the windowed p99 breaches the SLO for ``sustain``
consecutive samples, one process migrates from the hottest to the
coolest machine; a clear band (breach streaks only reset once p99 drops
below ``CLEAR_FACTOR * slo``) plus a firing cooldown keep an
oscillating tail from causing a migration storm.  The decision state
machine itself is the pure :class:`SloTrigger`, property-tested in
isolation.  All inputs are per-machine or registry-local, so a
:class:`DomainLoadBalancer` in latency mode stays shard-local: it reads
its own domain's ``domain=...`` latency series from the shard registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigError
from repro.kernel.ids import ProcessId
from repro.obs.metrics import HistogramSnapshot
from repro.policy.metrics import imbalance, machine_loads, migratable_processes
from repro.stats.migration_cost import MigrationCostRecord
from repro.workloads.closed_loop import REQUEST_LATENCY_METRIC

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import System

#: breach streaks reset only once p99 < CLEAR_FACTOR * slo — the
#: hysteresis band that stops oscillation around the SLO thrashing
CLEAR_FACTOR = 0.8

#: System processes a balancer must not move by default (they are "often
#: tied to unmovable resources", §5 — here, it is just unhelpful).
DEFAULT_EXCLUDE = frozenset({
    "switchboard", "process_manager", "memory_scheduler",
    "command_interpreter", "disk_driver", "buffer_manager",
    "directory_manager", "file_system",
})


@dataclass(frozen=True)
class SloPolicy:
    """Configuration for the latency-aware (SLO) trigger."""

    #: the service-level objective: windowed p99 must stay below this
    p99_slo_us: float
    #: consecutive breached samples required before a migration fires
    sustain: int = 2
    #: minimum time between SLO-triggered migrations, microseconds
    cooldown: int = 200_000
    #: windows with fewer observations than this are ignored (a single
    #: unlucky request is not an SLO violation)
    min_window_count: int = 8

    def validate(self) -> None:
        if self.p99_slo_us <= 0:
            raise ConfigError("p99_slo_us must be positive")
        if self.sustain < 1:
            raise ConfigError("sustain must be >= 1")
        if self.cooldown < 0:
            raise ConfigError("cooldown must be non-negative")
        if self.min_window_count < 1:
            raise ConfigError("min_window_count must be >= 1")


class SloTrigger:
    """The pure SLO decision state machine (sustain / clear / cooldown).

    ``observe`` consumes one windowed (p99, count) sample at time *now*
    and says whether a migration should fire.  Guarantees, independent
    of the input sequence (property-tested):

    - two fires are always >= ``cooldown`` apart;
    - a fire needs ``sustain`` breached samples since the last reset,
      so a single spike cannot trigger anything when ``sustain > 1``.
    """

    def __init__(self, policy: SloPolicy) -> None:
        policy.validate()
        self.policy = policy
        self.breaches = 0
        self.last_fired: int | None = None

    def observe(self, p99: float | None, count: int, now: int) -> bool:
        """Feed one window; True when a migration should fire now."""
        policy = self.policy
        if p99 is None or count < policy.min_window_count:
            # An idle window says nothing about the tail; treat it as
            # healthy so stale breach streaks cannot fire later.
            self.breaches = 0
            return False
        if (
            self.last_fired is not None
            and now - self.last_fired < policy.cooldown
        ):
            return False
        if p99 > policy.p99_slo_us:
            self.breaches += 1
            if self.breaches >= policy.sustain:
                self.breaches = 0
                self.last_fired = now
                return True
            return False
        if p99 <= CLEAR_FACTOR * policy.p99_slo_us:
            self.breaches = 0
        return False


@dataclass
class BalancerStats:
    """What the balancer did, for benchmark reporting."""

    samples: int = 0
    imbalanced_samples: int = 0
    migrations_started: int = 0
    migrations_succeeded: int = 0
    migrations_failed: int = 0
    #: latency mode: samples whose windowed p99 breached the SLO, and
    #: trigger firings the load picture gave no useful move for
    slo_breach_samples: int = 0
    slo_no_target: int = 0
    moves: list[tuple[str, int, int]] = field(default_factory=list)
    #: simulated time of each move, parallel to :attr:`moves`
    move_times: list[int] = field(default_factory=list)

    def publish(self, registry, **labels) -> None:
        """Mirror the balancer's decisions into a metrics registry.

        *labels* distinguish concurrent balancers (e.g. one per
        topology domain) so their series do not collide when per-shard
        snapshots are merged.
        """
        for name in (
            "samples", "imbalanced_samples", "migrations_started",
            "migrations_succeeded", "migrations_failed",
            "slo_breach_samples", "slo_no_target",
        ):
            registry.counter(
                f"policy.balancer.{name}", **labels
            ).set_total(getattr(self, name))


class ThresholdLoadBalancer:
    """Periodic sample -> sustained imbalance -> migrate one process."""

    def __init__(
        self,
        system: "System",
        interval: int = 10_000,
        threshold: int = 2,
        sustain: int = 2,
        cooldown: int = 50_000,
        exclude_names: frozenset[str] = DEFAULT_EXCLUDE,
        victim_strategy: str = "first",
        slo: SloPolicy | None = None,
    ) -> None:
        self.system = system
        self.interval = interval
        self.threshold = threshold
        self.sustain = sustain
        self.cooldown = cooldown
        self.exclude_names = exclude_names
        #: latency-aware mode: when set, samples watch the windowed p99
        #: of the pool's request latencies instead of the run-queue spread
        self.slo = slo
        self._slo_trigger = SloTrigger(slo) if slo is not None else None
        self._slo_prev: HistogramSnapshot | None = None
        #: labels selecting the histogram series to watch; a domain
        #: balancer narrows this to its own ``domain=<label>`` series
        self._slo_labels: dict[str, str] = {}
        if victim_strategy not in ("first", "hungriest", "cheapest"):
            raise ConfigError(
                f"unknown victim strategy {victim_strategy!r}"
            )
        #: how to choose which process leaves the hot machine (§3.1:
        #: "the ability to evaluate the resource use patterns of
        #: processes"): "first" is arbitrary (as in the paper's tests),
        #: "hungriest" moves the biggest CPU consumer, "cheapest" the
        #: process with the least state to transfer.
        self.victim_strategy = victim_strategy
        self.stats = BalancerStats()
        self._consecutive = 0
        self._last_moved: dict[ProcessId, int] = {}
        self._stopped = False

    def install(self) -> None:
        """Start sampling on the system's event loop."""
        self.system.metrics.register_collector(self.stats.publish)
        self.system.loop.call_after(self.interval, self._tick)

    def stop(self) -> None:
        """Cease sampling after the current tick."""
        self._stopped = True

    def _tick(self) -> None:
        if self._stopped:
            return
        self.stats.samples += 1
        self._sample()
        self.system.loop.call_after(self.interval, self._tick)

    def _sample(self) -> None:
        if self._slo_trigger is not None:
            self._sample_slo()
            return
        loads = machine_loads(self.system)
        spread = imbalance(loads)
        if spread < self.threshold:
            self._consecutive = 0
            return
        self.stats.imbalanced_samples += 1
        self._consecutive += 1
        if self._consecutive < self.sustain:
            return
        self._consecutive = 0
        hottest = max(loads, key=lambda m: (loads[m], m))
        coolest = min(loads, key=lambda m: (loads[m], -m))
        victim = self._pick_victim(hottest)
        if victim is None:
            return
        now = self.system.loop.now
        self._last_moved[victim] = now
        self.stats.migrations_started += 1
        self.stats.moves.append((str(victim), hottest, coolest))
        self.stats.move_times.append(now)
        self.system.tracer.record(
            "policy", "balance", pid=str(victim),
            source=hottest, dest=coolest, spread=spread,
        )
        self.system.kernel(hottest).migration.start(
            victim, coolest, on_done=self._on_done,
        )

    def _sample_slo(self) -> None:
        """Latency-aware sample: windowed p99 vs the SLO.

        Freezes the watched latency histogram, diffs it against the
        previous sample's snapshot (:meth:`HistogramSnapshot.
        delta_since`) and feeds the window's p99 to the pure
        :class:`SloTrigger`.  When the trigger fires, the *placement*
        decision reuses the run-queue picture: one movable process
        leaves the hottest machine for the coolest — latency tells us
        *when* to act, load tells us *where*.
        """
        assert self.slo is not None and self._slo_trigger is not None
        current = self.system.metrics.latency_histogram(
            REQUEST_LATENCY_METRIC, **self._slo_labels
        ).freeze()
        previous = self._slo_prev
        self._slo_prev = current
        window = (
            current if previous is None else current.delta_since(previous)
        )
        p99 = window.percentile(0.99)
        if p99 is not None and p99 > self.slo.p99_slo_us:
            self.stats.slo_breach_samples += 1
        now = self.system.loop.now
        if not self._slo_trigger.observe(p99, window.count, now):
            return
        self.stats.imbalanced_samples += 1
        loads = machine_loads(self.system)
        hottest = max(loads, key=lambda m: (loads[m], m))
        coolest = min(loads, key=lambda m: (loads[m], -m))
        if hottest == coolest or loads[hottest] == loads[coolest]:
            # The tail is bad but every machine is equally busy — a
            # move would just shuffle the overload around.
            self.stats.slo_no_target += 1
            return
        victim = self._pick_victim(hottest)
        if victim is None:
            self.stats.slo_no_target += 1
            return
        self._last_moved[victim] = now
        self.stats.migrations_started += 1
        self.stats.moves.append((str(victim), hottest, coolest))
        self.stats.move_times.append(now)
        self.system.tracer.record(
            "policy", "slo_balance", pid=str(victim),
            source=hottest, dest=coolest,
            p99=p99, slo=self.slo.p99_slo_us, window=window.count,
        )
        self.system.kernel(hottest).migration.start(
            victim, coolest, on_done=self._on_done,
        )

    def _pick_victim(self, machine: int) -> ProcessId | None:
        """Choose a movable process, respecting the per-pid cooldown."""
        now = self.system.loop.now
        candidates = [
            pid
            for pid in migratable_processes(
                self.system, machine, self.exclude_names,
            )
            if now - self._last_moved.get(pid, -self.cooldown)
            >= self.cooldown
        ]
        if not candidates:
            return None
        if self.victim_strategy == "first":
            return candidates[0]
        kernel = self.system.kernel(machine)
        if self.victim_strategy == "hungriest":
            return max(
                candidates,
                key=lambda pid: (
                    kernel.processes[pid].accounting.cpu_time, str(pid),
                ),
            )
        # "cheapest": least state to transfer (program + system state).
        return min(
            candidates,
            key=lambda pid: (
                kernel.processes[pid].program_bytes
                + kernel.processes[pid].swappable_state_bytes,
                str(pid),
            ),
        )

    def _on_done(self, success: bool, record: MigrationCostRecord) -> None:
        if success:
            self.stats.migrations_succeeded += 1
        else:
            self.stats.migrations_failed += 1


class DomainLoadBalancer(ThresholdLoadBalancer):
    """A threshold balancer scoped to one topology neighbourhood.

    Runs against a :class:`repro.core.cluster.DomainView` — a torus row, a
    clique, any machine set the shard partitioner keeps whole — instead
    of the global system.  Its inputs (the domain's run-queue loads) and
    outputs (an intra-domain migration) are functions of per-machine
    state only, which is what makes its decisions identical across
    shard layouts and lets it run inside a forked worker.  One balancer
    per domain replaces the global :class:`ThresholdLoadBalancer` in
    sharded scenarios; stats publish with a ``domain`` label so the
    merged snapshot keeps each domain's series distinct.
    """

    def __init__(self, view, domain, **kwargs) -> None:
        super().__init__(view, **kwargs)
        #: label identifying this domain in metrics and traces
        self.domain = domain
        # In latency mode, watch this domain's own series: the client
        # pool labels each service's latencies with its domain, so the
        # balancer's inputs stay local to the machines it can act on.
        self._slo_labels = {"domain": domain}

    def install(self) -> None:
        """Start sampling on the domain's shard loop."""
        self.system.metrics.register_collector(
            lambda registry: self.stats.publish(
                registry, domain=self.domain
            )
        )
        self.system.loop.call_after(self.interval, self._tick)
