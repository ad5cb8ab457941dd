"""System-wide measurement reports.

Builds the "means to collect the above information in one place" the
paper lists as a prerequisite for migration decision rules (§3.1).  The
report no longer scrapes each component by hand: every kernel, the
network, and the migration engines publish into the system's
:class:`~repro.obs.metrics.MetricsRegistry`, and the report is a typed
view over one registry snapshot.  ``SystemReport.to_dict()`` is the
machine-readable form ``python -m repro report --json`` emits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.obs.metrics import MetricsSnapshot
from repro.workloads.closed_loop import REQUEST_LATENCY_METRIC

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.cluster import Cluster

#: scalar network counters surfaced in ``SystemReport.network``
_NETWORK_SCALARS = (
    "packets_sent",
    "packets_delivered",
    "packets_dropped",
    "packets_duplicated",
    "retransmissions",
    "bytes_sent",
    "payload_bytes_sent",
)

def _digest(histogram) -> dict[str, Any]:
    return {
        "count": histogram.count,
        "mean_us": histogram.mean,
        "p50_us": histogram.p50,
        "p95_us": histogram.p95,
        "p99_us": histogram.p99,
        "max_us": histogram.max,
    }


def _latency_summary(snapshot: MetricsSnapshot) -> dict[str, Any] | None:
    """p50/p95/p99/max request-latency digest, or None when no
    request-scale workload ran."""
    histogram = snapshot.histogram(REQUEST_LATENCY_METRIC)
    if histogram is None or not histogram.count:
        return None
    return _digest(histogram)


def _latency_by_domain(snapshot: MetricsSnapshot) -> dict[str, Any]:
    """Per-domain request-latency digests (empty without domain labels).

    The open-loop client pool publishes each service's latencies into a
    ``domain=<label>`` series alongside the global histogram; these are
    the digests an SLO balancer acts on, surfaced so reports show *which*
    neighbourhood's tail breached.
    """
    by_domain = snapshot.histogram_by_label(REQUEST_LATENCY_METRIC, "domain")
    return {
        str(domain): _digest(histogram)
        for domain, histogram in sorted(
            by_domain.items(), key=lambda item: str(item[0])
        )
        if histogram.count
    }


@dataclass
class SystemReport:
    """A snapshot of everything measurable about a run."""

    now: int
    machines: int
    processes_alive: int
    processes_exited: int
    migrations_completed: int
    migrations_refused: int
    total_downtime: int
    admin_messages: int
    admin_bytes: int
    state_bytes_moved: int
    pending_messages_forwarded: int
    messages_forwarded: int
    link_updates_applied: int
    links_retargeted: int
    forwarding_entries: int
    forwarding_residual_bytes: int
    network: dict[str, int] = field(default_factory=dict)
    sends_by_category: dict[str, int] = field(default_factory=dict)
    per_machine_load: dict[int, int] = field(default_factory=dict)
    #: injected chaos faults by kind (empty when no campaign ran)
    chaos_faults: dict[str, int] = field(default_factory=dict)
    #: barrier/sync traffic between shard workers (empty off the
    #: sharded engine; a function of shard count, not of the workload)
    sync_overhead: dict[str, int] = field(default_factory=dict)
    #: end-to-end request latency digest (None without a closed-loop run)
    request_latency: dict[str, Any] | None = None
    #: per-domain latency digests (empty unless the pool labels domains)
    request_latency_by_domain: dict[str, Any] = field(default_factory=dict)

    def lines(self) -> list[str]:
        """Human-readable rendering, one fact per line."""
        out = [
            f"t={self.now}us across {self.machines} machines",
            f"processes: {self.processes_alive} alive, "
            f"{self.processes_exited} exited",
            f"migrations: {self.migrations_completed} completed, "
            f"{self.migrations_refused} refused; total downtime "
            f"{self.total_downtime}us",
            f"migration admin traffic: {self.admin_messages} messages, "
            f"{self.admin_bytes} payload bytes",
            f"state moved: {self.state_bytes_moved} bytes; pending "
            f"messages forwarded: {self.pending_messages_forwarded}",
            f"forwarding: {self.messages_forwarded} redirects, "
            f"{self.forwarding_entries} live entries "
            f"({self.forwarding_residual_bytes} bytes)",
            f"link updates applied: {self.link_updates_applied} "
            f"({self.links_retargeted} links retargeted)",
        ]
        if any(self.sync_overhead.values()):
            sync = self.sync_overhead
            exchanged = f"{sync.get('records_sent', 0)} records exchanged"
            if sync.get("bytes_sent"):
                exchanged += f" ({sync['bytes_sent']} bytes shipped)"
            out.append(
                f"shard sync: {sync.get('rounds', 0)} barrier rounds, "
                f"{exchanged}, "
                f"{sync.get('windows_elided', 0)} windows elided"
            )
        if self.chaos_faults:
            injected = ", ".join(
                f"{count} {kind}"
                for kind, count in sorted(self.chaos_faults.items())
            )
            out.append(f"chaos faults injected: {injected}")
        if self.request_latency is not None:
            digest = self.request_latency
            out.append(
                f"request latency: p50 {digest['p50_us']:.0f}us, "
                f"p95 {digest['p95_us']:.0f}us, "
                f"p99 {digest['p99_us']:.0f}us, "
                f"max {digest['max_us']:.0f}us "
                f"({digest['count']} requests)"
            )
        for domain, digest in self.request_latency_by_domain.items():
            out.append(
                f"  domain {domain}: p50 {digest['p50_us']:.0f}us, "
                f"p99 {digest['p99_us']:.0f}us "
                f"({digest['count']} requests)"
            )
        return out

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dict with every headline number."""
        return {
            "now_us": self.now,
            "machines": self.machines,
            "processes_alive": self.processes_alive,
            "processes_exited": self.processes_exited,
            "migrations_completed": self.migrations_completed,
            "migrations_refused": self.migrations_refused,
            "total_downtime_us": self.total_downtime,
            "admin_messages": self.admin_messages,
            "admin_bytes": self.admin_bytes,
            "state_bytes_moved": self.state_bytes_moved,
            "pending_messages_forwarded": self.pending_messages_forwarded,
            "messages_forwarded": self.messages_forwarded,
            "link_updates_applied": self.link_updates_applied,
            "links_retargeted": self.links_retargeted,
            "forwarding_entries": self.forwarding_entries,
            "forwarding_residual_bytes": self.forwarding_residual_bytes,
            "network": dict(self.network),
            "sends_by_category": dict(self.sends_by_category),
            "per_machine_load": {
                str(machine): load
                for machine, load in self.per_machine_load.items()
            },
            "chaos_faults": dict(self.chaos_faults),
            "sync_overhead": dict(self.sync_overhead),
            "request_latency": (
                dict(self.request_latency)
                if self.request_latency is not None
                else None
            ),
            "request_latency_by_domain": {
                domain: dict(digest)
                for domain, digest in self.request_latency_by_domain.items()
            },
        }


def report_from_snapshot(
    snapshot: MetricsSnapshot, now: int, machines: int
) -> SystemReport:
    """Assemble a :class:`SystemReport` from one registry snapshot."""
    return SystemReport(
        now=now,
        machines=machines,
        processes_alive=int(snapshot.total("kernel.processes_alive")),
        processes_exited=int(snapshot.total("kernel.processes_exited")),
        migrations_completed=int(snapshot.total("migration.completed")),
        migrations_refused=int(snapshot.total("migration.refused")),
        total_downtime=int(snapshot.total("migration.downtime_us_total")),
        admin_messages=int(snapshot.total("migration.admin_messages")),
        admin_bytes=int(snapshot.total("migration.admin_bytes")),
        state_bytes_moved=int(snapshot.total("migration.state_bytes")),
        pending_messages_forwarded=int(
            snapshot.total("migration.pending_forwarded")
        ),
        messages_forwarded=int(snapshot.total("kernel.messages_forwarded")),
        link_updates_applied=int(
            snapshot.total("kernel.link_updates_applied")
        ),
        links_retargeted=int(snapshot.total("kernel.links_retargeted")),
        forwarding_entries=int(snapshot.total("kernel.forwarding_entries")),
        forwarding_residual_bytes=int(
            snapshot.total("kernel.forwarding_bytes")
        ),
        network={
            name: int(snapshot.get(f"net.{name}"))
            for name in _NETWORK_SCALARS
        },
        sends_by_category={
            category: int(count)
            for category, count in snapshot.by_label(
                "net.sends", "category"
            ).items()
        },
        per_machine_load={
            machine: int(load)
            for machine, load in snapshot.by_label(
                "kernel.run_queue", "machine"
            ).items()
        },
        chaos_faults={
            kind: int(count)
            for kind, count in snapshot.by_label(
                "chaos.faults", "kind"
            ).items()
        },
        sync_overhead={
            name.removeprefix("sim.sync."): int(snapshot.total(name))
            for name in sorted(snapshot.counters)
            if name.startswith("sim.sync.")
        },
        request_latency=_latency_summary(snapshot),
        request_latency_by_domain=_latency_by_domain(snapshot),
    )


def collect_report(cluster: "Cluster") -> SystemReport:
    """Build a :class:`SystemReport` from a (possibly running) cluster.

    On either engine: the shard registries' snapshots are folded with
    :func:`repro.obs.metrics.merge_snapshots` (counters sum, the
    request-latency histogram is the merged distribution), so a sharded
    run's report reads exactly like a single-loop run's.
    """
    return report_from_snapshot(
        cluster.snapshot(),
        now=cluster.now(),
        machines=len(cluster.kernels),
    )
