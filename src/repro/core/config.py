"""System-wide configuration.

One :class:`SystemConfig` describes a whole simulated DEMOS/MP
installation: the machine park, network characteristics, kernel tunables,
and which system processes to boot.  Everything the benchmarks sweep is a
field here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.kernel.forwarding import UndeliverablePolicy
from repro.net.channel import FaultPlan
from repro.net.topology import Topology

#: Topology shapes :func:`repro.core.system.System` knows how to build.
TOPOLOGY_SHAPES = ("mesh", "line", "torus")


@dataclass
class SystemConfig:
    """All the knobs for one simulated system."""

    # --- machines and network -----------------------------------------
    machines: int = 4
    topology: str = "mesh"
    latency: int = 100  #: per-wire propagation delay, microseconds
    bandwidth: int = 1_000  #: per-wire bandwidth, bytes per millisecond
    faults: FaultPlan = field(default_factory=FaultPlan)
    rto: int = 5_000  #: transport retransmission timeout, microseconds
    #: number of parallel execution shards the machine set is split into
    #: (1 = the classic single event loop; >1 selects the sharded engine,
    #: :class:`repro.sim.shard.ShardedSystem`)
    shards: int = 1
    #: latency of the torus's backbone wires (inter-row wires and
    #: column wraps).  None keeps every wire at ``latency``.  A backbone
    #: slower than the local wires is what lets shard pairs rendezvous
    #: less often than the global window grid (see
    #: :mod:`repro.sim.barrier`).
    backbone_latency: int | None = None

    # --- kernels --------------------------------------------------------
    memory_capacity: int = 1 << 22  #: real memory per machine, bytes
    undeliverable_policy: UndeliverablePolicy = UndeliverablePolicy.FORWARD
    leave_forwarding_address: bool = True
    send_link_updates: bool = True
    notify_process_manager: bool = False

    # --- system processes ------------------------------------------------
    boot_servers: bool = True
    #: machine hosting the switchboard / process manager / memory scheduler
    control_machine: int = 0
    #: machine hosting the four file-system processes
    file_system_machine: int = 1

    # --- bookkeeping ------------------------------------------------------
    seed: int = 0
    trace_categories: tuple[str, ...] | None = None
    #: when False, the metrics registry hands out no-op instruments and
    #: snapshots come back empty — for throughput benchmarks that only
    #: read the kernels' plain integer counters
    metrics_enabled: bool = True

    def validate(self) -> None:
        """Raise :class:`ConfigError` on inconsistent settings."""
        if self.machines < 1:
            raise ConfigError(
                f"need at least one machine, got {self.machines}"
            )
        if self.topology not in TOPOLOGY_SHAPES:
            raise ConfigError(
                f"unknown topology {self.topology!r}; "
                f"choose from {TOPOLOGY_SHAPES}"
            )
        if self.latency < 0 or self.bandwidth <= 0:
            raise ConfigError("latency must be >= 0 and bandwidth > 0")
        if self.rto <= 0:
            raise ConfigError(f"rto must be positive, got {self.rto}")
        if self.faults.max_jitter < 0:
            raise ConfigError(
                f"max_jitter must be >= 0, got {self.faults.max_jitter}"
            )
        if self.shards < 1:
            raise ConfigError(f"shards must be >= 1, got {self.shards}")
        if self.shards > self.machines:
            raise ConfigError(
                f"cannot split {self.machines} machines into "
                f"{self.shards} shards"
            )
        if self.shards > 1 and self.latency < 1:
            raise ConfigError(
                "sharded execution needs latency >= 1: the minimum wire "
                "latency is the conservative lookahead, and a zero "
                "lookahead admits no parallel window"
            )
        if self.backbone_latency is not None:
            if self.topology != "torus":
                raise ConfigError(
                    "backbone_latency applies only to the torus, the "
                    f"topology with a backbone tier; got {self.topology!r}"
                )
            if self.backbone_latency < self.latency:
                raise ConfigError(
                    "backbone_latency must be >= latency (the backbone "
                    "is the slow tier; a faster backbone would shrink "
                    "the conservative lookahead instead)"
                )
        if self.memory_capacity <= 0:
            raise ConfigError(
                f"memory_capacity must be positive, got {self.memory_capacity}"
            )
        machines = f"the {self.machines} machines (0..{self.machines - 1})"
        if not 0 <= self.control_machine < self.machines:
            raise ConfigError(
                f"control_machine {self.control_machine} is not one of "
                f"{machines}"
            )
        if (
            self.boot_servers
            and not 0 <= self.file_system_machine < self.machines
        ):
            raise ConfigError(
                f"file_system_machine {self.file_system_machine} is not one "
                f"of {machines}"
            )
        if (
            self.undeliverable_policy is UndeliverablePolicy.RETURN_TO_SENDER
            and self.leave_forwarding_address
        ):
            raise ConfigError(
                "return-to-sender mode requires leave_forwarding_address="
                "False (the whole point of the ablation is no residual "
                "forwarding state)"
            )

    def build_topology(self) -> Topology:
        """Construct the machine topology this config describes.

        Shared by :class:`~repro.core.system.System` and the sharded
        engine, so both simulate exactly the same network.
        """
        shape = self.topology
        n = self.machines
        latency = self.latency
        bandwidth = self.bandwidth
        if shape == "torus":
            rows = near_square_factor(n)
            return Topology.torus2d(
                rows, n // rows, latency, bandwidth,
                backbone_latency=self.backbone_latency,
            )
        if shape == "line":
            return Topology.line(n, latency, bandwidth)
        return Topology.full_mesh(n, latency, bandwidth)


def near_square_factor(n: int) -> int:
    """The largest divisor of *n* that is <= sqrt(n).

    Shapes a machine count into the most-square torus grid it divides
    into; for a prime count this degenerates to 1 x n, which is still a
    valid (ring-like) arrangement.
    """
    factor = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            factor = d
        d += 1
    return factor
