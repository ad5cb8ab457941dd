"""The top-level System object: build, boot, run, migrate, inspect.

This is the library's public entry point::

    from repro import System, SystemConfig

    system = System(SystemConfig(machines=4))
    pid = system.spawn(my_program, machine=2, name="worker")
    ticket = system.migrate(pid, dest=3)
    system.run()
    assert ticket.success

A ``System`` is the one-shard :class:`~repro.core.cluster.Cluster`: one
event loop, one network, and one kernel per machine; (by default) it boots
the paper's system processes: switchboard, process manager, memory
scheduler, the four-process file system, and the command interpreter
(Figure 2-3).  Spawning, scheduling, migrating and inspecting are the
cluster surface's; this module adds the loop, the clock and the servers.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.cluster import Cluster, Program, Shard
from repro.core.config import SystemConfig
from repro.errors import ConfigError, MemoryError_
from repro.kernel.ids import ProcessAddress, ProcessId, kernel_address
from repro.net.topology import MachineId
from repro.obs.metrics import MetricsRegistry
from repro.sim.loop import EventLoop


def boot_standard_servers(system: Cluster) -> None:
    """Spawn the Figure 2-3 system processes in dependency order.

    Every engine boots through here once its shards are built, so all
    of them start from bit-identical server populations.  A machine too
    small to hold its servers is a :class:`ConfigError`.
    """
    try:
        _boot_servers(system)
    except MemoryError_ as exc:
        raise ConfigError(
            f"memory_capacity={system.config.memory_capacity} cannot hold"
            f" the system processes: {exc}"
        ) from None


def _boot_servers(system: Cluster) -> None:
    from repro.servers.command_interpreter import command_interpreter_program
    from repro.servers.filesystem import boot_file_system
    from repro.servers.memory_scheduler import memory_scheduler_program
    from repro.servers.process_manager import process_manager_program
    from repro.servers.switchboard import switchboard_program

    control = system.config.control_machine
    machine_count = system.config.machines
    boot_server(system, "switchboard", switchboard_program, control)
    boot_server(
        system,
        "memory_scheduler",
        lambda ctx: memory_scheduler_program(ctx, machines=machine_count),
        control,
    )
    # The process manager holds a link to every kernel ("they control
    # processes by sending messages to kernels").
    kernel_links = {
        f"kernel:{m}": kernel_address(m) for m in system.topology.machines
    }
    boot_server(
        system, "process_manager", process_manager_program, control,
        extra_links=kernel_links,
    )
    boot_file_system(system, system.config.file_system_machine)
    boot_server(
        system, "command_interpreter", command_interpreter_program, control,
    )


def boot_server(
    system: Cluster,
    name: str,
    program: Program,
    machine: MachineId,
    extra_links: dict[str, ProcessAddress] | None = None,
) -> ProcessId:
    """Spawn one well-known server and publish its address."""
    pid = system.kernel(machine).spawn(
        program, name=name, extra_links=extra_links,
    )
    system.well_known[name] = ProcessAddress(pid, machine)
    system.server_pids[name] = pid
    return pid


class System(Cluster):
    """One simulated DEMOS/MP installation on a single event loop."""

    def __init__(self, config: SystemConfig | None = None) -> None:
        super().__init__(config)
        if self.config.shards > 1:
            raise ConfigError(
                f"System runs one shard; shards={self.config.shards}"
                " needs ShardedSystem"
            )
        self.loop = EventLoop()
        shard = self._build_shard(self.topology.machines, self.loop)
        self.tracer = shard.tracer
        #: the system-wide metrics registry every component publishes into
        self.metrics = shard.metrics
        self.network = shard.network
        if self.config.boot_servers:
            boot_standard_servers(self)
        #: microseconds between load reports; 0 while reporting is off
        self._load_report_interval = 0

    # ------------------------------------------------------------------
    # Load reporting (§3.1: "The process manager and memory scheduler
    # already monitor system activity for memory and cpu scheduling, and
    # can use the same information to make process migration decisions.")
    # ------------------------------------------------------------------

    def start_load_reporting(self, interval: int) -> None:
        """Make every kernel push load/memory reports to the process
        manager and memory scheduler every *interval* microseconds.

        Note: while reporting is active the event loop never drains; run
        the system with an explicit ``until`` and call
        :meth:`stop_load_reporting` before draining.
        """
        self._load_report_interval = max(1, interval)
        self.loop.call_after(self._load_report_interval, self._report_loads)

    def stop_load_reporting(self) -> None:
        """Cease pushing load reports after the current tick."""
        self._load_report_interval = 0

    def _report_loads(self) -> None:
        if not self._load_report_interval:
            return
        from repro.kernel.messages import MessageKind

        pm = self.well_known.get("process_manager")
        ms = self.well_known.get("memory_scheduler")
        for kernel in self.kernels:
            snapshot = kernel.load_snapshot()
            if pm is not None:
                kernel.send_to_process(
                    pm, "report-load", snapshot, payload_bytes=10,
                    kind=MessageKind.USER, category="load",
                )
            if ms is not None:
                kernel.send_to_process(
                    ms, "report-memory",
                    {"machine": kernel.machine,
                     "free": snapshot["memory_free"]},
                    payload_bytes=8, kind=MessageKind.USER,
                    category="load",
                )
        self.loop.call_after(self._load_report_interval, self._report_loads)

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------

    def run(
        self, until: int | None = None, max_events: int | None = None
    ) -> int:
        """Run the simulation; with *until*, stop the clock there."""
        return self.loop.run_until(until, max_events)

    def call_at_barrier(
        self, time: int, key: tuple, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule a *global* action at *time*: on one loop, an
        ordinary event (*key* only matters where shards must agree)."""
        self.loop.call_at(time, callback, *args)

    def _publish_sim_metrics(
        self, registry: MetricsRegistry, shard: Shard
    ) -> None:
        """Registry collector for event-loop and tracer level facts."""
        registry.gauge("sim.now_us").set(self.loop.now)
        registry.counter("sim.events_fired").set_total(self.loop.events_fired)
        registry.gauge("sim.trace_records").set(len(self.tracer))
        registry.counter("sim.trace_dropped").set_total(self.tracer.dropped)
        spans = sum(len(k.migration.records()) for k in self.kernels)
        registry.gauge("sim.migration_spans").set(spans)

    def __repr__(self) -> str:
        return (
            f"System(machines={self.config.machines},"
            f" now={self.loop.now}us, events={self.loop.events_fired})"
        )
