"""System-wide configuration.

One :class:`SystemConfig` describes a whole simulated DEMOS/MP
installation: the machine park, network characteristics, kernel tunables,
and which system processes to boot.  Everything the benchmarks sweep is a
field here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.kernel.kernel import KernelConfig, UndeliverablePolicy
from repro.net.channel import FaultPlan
from repro.net.topology import Topology

#: Topology shapes :func:`repro.core.system.System` knows how to build.
TOPOLOGY_SHAPES = (
    "mesh", "line", "ring", "star", "torus", "hypercube", "cliques",
)


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
    #: latency of the topology's backbone wires (torus inter-row wires
    #: and column wraps; the clique gateway ring).  None keeps every
    #: wire at ``latency``.  A backbone slower than the local wires is
    #: what lets shard pairs rendezvous less often than the global
    #: window grid (see :mod:`repro.sim.barrier`).
    backbone_latency: int | None = None

    # --- kernels --------------------------------------------------------
    quantum: int = 1_000
    syscall_cpu_cost: int = 10
    memory_capacity: int = 1 << 22
    max_data_packet: int = 1_024
    undeliverable_policy: UndeliverablePolicy = UndeliverablePolicy.FORWARD
    leave_forwarding_address: bool = True
    send_link_updates: bool = True
    notify_process_manager: bool = False
    #: interval for kernels to push load/memory reports to the process
    #: manager and memory scheduler (0 disables reporting)
    load_report_interval: int = 0

    # --- system processes ------------------------------------------------
    boot_servers: bool = True
    #: machine hosting the switchboard / process manager / memory scheduler
    control_machine: int = 0
    #: machine hosting the four file-system processes
    file_system_machine: int = 1

    # --- bookkeeping ------------------------------------------------------
    seed: int = 0
    trace_categories: tuple[str, ...] | None = None
    max_trace_records: int | None = 200_000
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
        if self.topology == "hypercube" and (
            self.machines & (self.machines - 1)
        ):
            raise ConfigError(
                f"hypercube needs a power-of-two machine count, "
                f"got {self.machines}"
            )
        if self.latency < 0 or self.bandwidth <= 0:
            raise ConfigError("latency must be >= 0 and bandwidth > 0")
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
            if self.topology not in ("torus", "cliques"):
                raise ConfigError(
                    "backbone_latency applies only to topologies with a "
                    "backbone tier (torus, cliques); "
                    f"got {self.topology!r}"
                )
            if self.backbone_latency < self.latency:
                raise ConfigError(
                    "backbone_latency must be >= latency (the backbone "
                    "is the slow tier; a faster backbone would shrink "
                    "the conservative lookahead instead)"
                )
        if self.quantum <= 0 or self.syscall_cpu_cost <= 0:
            raise ConfigError("quantum and syscall cost must be positive")
        if self.max_data_packet <= 0:
            raise ConfigError("max_data_packet must be positive")
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
        if shape == "hypercube":
            # validate() guarantees n is a power of two
            return Topology.hypercube(n.bit_length() - 1, latency, bandwidth)
        if shape == "cliques":
            size = near_square_factor(n)
            return Topology.ring_of_cliques(
                n // size, size, latency, bandwidth,
                backbone_latency=self.backbone_latency,
            )
        builder = {
            "mesh": Topology.full_mesh,
            "line": Topology.line,
            "ring": Topology.ring,
            "star": Topology.star,
        }[shape]
        return builder(n, latency, bandwidth)

    def kernel_config(self) -> KernelConfig:
        """The per-kernel slice of this system config."""
        return KernelConfig(
            quantum=self.quantum,
            syscall_cpu_cost=self.syscall_cpu_cost,
            memory_capacity=self.memory_capacity,
            max_data_packet=self.max_data_packet,
            undeliverable_policy=self.undeliverable_policy,
            leave_forwarding_address=self.leave_forwarding_address,
            send_link_updates=self.send_link_updates,
            notify_process_manager=self.notify_process_manager,
        )


def near_square_factor(n: int) -> int:
    """The largest divisor of *n* that is <= sqrt(n).

    Shapes a machine count into the most-square grid (torus) or pod
    layout (cliques) it divides into; for a prime count this degenerates
    to 1 x n, which is still a valid (ring-like) arrangement.
    """
    factor = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            factor = d
        d += 1
    return factor
