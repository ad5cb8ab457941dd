"""The cluster surface scenarios, policies and chaos are written against.

A :class:`Cluster` is one simulated DEMOS/MP installation seen through
its ``shards`` (each a loop, a tracer, a metrics registry, a network and
its machines' kernels) and "the shard that owns machine *m*".  All that
can be said in those terms lives here, once: building a shard, scenario
wiring, the fail-stop transport crash, serial ``execute``, inspection.

An engine supplies how its shards are built and how time advances,
nothing else: :class:`repro.core.system.System` is the one-shard case,
:class:`repro.sim.shard.ShardedSystem` partitions the machines over
keyed loops that meet at rendezvous.  Code above this module never asks
which one it was handed — the paper's point about location, applied to
the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.config import SystemConfig
from repro.core.registry import registered_programs
from repro.errors import ConfigError, SimulationError, UnknownProcessError
from repro.kernel.context import ProcessContext
from repro.kernel.ids import ProcessAddress, ProcessId
from repro.kernel.kernel import Kernel
from repro.kernel.memory import MemoryImage
from repro.kernel.process_state import ProcessState
from repro.net.network import Network
from repro.net.topology import MachineId
from repro.obs.metrics import (
    MetricsRegistry,
    MetricsSnapshot,
    merge_snapshots,
)
from repro.obs.spans import Span, migration_spans
from repro.sim.loop import EventLoop
from repro.sim.rng import RandomStreams
from repro.sim.trace import Tracer
from repro.stats.migration_cost import MigrationCostRecord

# The process manager spawns by program name (§2.3), and a program joins
# the registry when its module is imported.  These three modules define
# the by-name programs; importing them here, beside the one reader of
# the registry, gives every kernel all of them.
import repro.workloads.compute  # noqa: F401
import repro.workloads.file_clients  # noqa: F401
import repro.workloads.pingpong  # noqa: F401

Program = Callable[[ProcessContext], Any]
MigrationDone = Callable[[bool, MigrationCostRecord], None]
DRAIN_MAX_EVENTS = 100_000_000  #: a drain that fires this many is a hang
MAX_TRACE_RECORDS = 200_000  #: each shard tracer's ring-buffer bound


@dataclass
class MigrationTicket:
    """Tracks one requested migration to completion."""

    pid: ProcessId
    dest: MachineId
    initiated: bool = False
    done: bool = False
    success: bool | None = None
    record: MigrationCostRecord | None = None

    def _complete(self, success: bool, record: MigrationCostRecord) -> None:
        self.done = True
        self.success = success
        self.record = record


@dataclass
class Shard:
    """One shard's runtime: a loop, its kernels, and its network."""

    index: int
    machines: list[MachineId]
    loop: EventLoop
    tracer: Tracer
    metrics: MetricsRegistry
    network: Network
    kernels: dict[MachineId, Kernel]


class DomainView:
    """A cluster-shaped window onto one shard, scoped to a domain.

    Per-neighbourhood policies (``DomainLoadBalancer``) run against this
    instead of the whole cluster, so their decisions read only
    domain-local state — which keeps them independent of the shard
    layout *and* executable inside a forked worker.
    """

    def __init__(self, shard: Shard, machines: list[MachineId]) -> None:
        missing = [m for m in machines if m not in shard.kernels]
        if missing:
            raise ConfigError(
                f"domain machines {missing} are not in shard {shard.index} "
                f"(a policy domain must sit inside one shard)"
            )
        self.shard = shard
        self.loop = shard.loop
        self.tracer = shard.tracer
        self.metrics = shard.metrics
        self.kernels = [shard.kernels[m] for m in machines]
        self._by_machine = {k.machine: k for k in self.kernels}

    def kernel(self, machine: MachineId) -> Kernel:
        if machine not in self._by_machine:
            raise ConfigError(f"machine {machine} is outside this domain")
        return self._by_machine[machine]


class Cluster:
    """One simulated DEMOS/MP installation, engine left open.

    An engine builds its shards with :meth:`_build_shard` and defines
    ``run(until=None, max_events=None) -> events fired`` (advance time;
    no horizon means run to global quiescence; the event budget is the
    hang guard) and ``call_at_barrier(time, key, callback, *args)`` (a
    *global* action that may touch several shards at once).
    """

    def __init__(self, config: SystemConfig | None = None) -> None:
        self.config = config or SystemConfig()
        self.config.validate()
        self.topology = self.config.build_topology()
        self.rngs = RandomStreams(self.config.seed)
        #: shared by every kernel; fully populated by the server boots at
        #: build time, so forked workers all see the same (copied) directory
        self.well_known: dict[str, ProcessAddress] = {}
        #: pids of the system processes booted at start-up, by service name
        self.server_pids: dict[str, ProcessId] = {}
        self.shards: list[Shard] = []
        #: every kernel in machine order (so indexable by machine id)
        self.kernels: list[Kernel] = []
        self._owner: dict[MachineId, Shard] = {}

    def _build_shard(
        self,
        machines: list[MachineId],
        loop: EventLoop,
        **network_args: Any,
    ) -> Shard:
        """Wire the next shard on *loop*: tracer, registry, network and
        one kernel per machine.  Engines build their shards in machine
        order."""
        config = self.config
        tracer = Tracer(
            lambda: loop.now,
            max_records=MAX_TRACE_RECORDS,
            enabled_categories=config.trace_categories,
        )
        metrics = MetricsRegistry(enabled=config.metrics_enabled)
        network = Network(
            loop,
            self.topology,
            tracer=tracer,
            rngs=self.rngs,
            faults=config.faults,
            rto=config.rto,
            metrics=metrics,
            machines=list(machines),
            **network_args,
        )
        kernels = {
            machine: Kernel(
                machine,
                loop,
                network,
                tracer,
                config=config,
                well_known=self.well_known,
                metrics=metrics,
            )
            for machine in machines
        }
        for name, factory in registered_programs().items():
            for kernel in kernels.values():
                kernel.register_program(name, factory)
        index = len(self.shards)
        shard = Shard(
            index, list(machines), loop, tracer, metrics, network, kernels
        )
        metrics.register_collector(
            lambda registry: self._publish_sim_metrics(registry, shard)
        )
        self.shards.append(shard)
        self.kernels.extend(kernels.values())
        self._owner.update(dict.fromkeys(machines, shard))
        return shard

    # -- scenario wiring -------------------------------------------------

    @property
    def barrier_grid(self) -> int | None:
        """The tick grid ``call_at_barrier`` times must sit on, or None
        where any tick will do — derived by the engine, never set."""
        return None

    def shard_for(self, machine: MachineId) -> Shard:
        """The shard owning *machine*."""
        if machine not in self._owner:
            raise ConfigError(f"no machine {machine}")
        return self._owner[machine]

    def kernel(self, machine: MachineId) -> Kernel:
        """The kernel running on *machine*."""
        return self.shard_for(machine).kernels[machine]

    def domain_view(self, machines: list[MachineId]) -> DomainView:
        """A policy-facing view of one topology neighbourhood; all
        *machines* must live in one shard (the partitioner keeps aligned
        neighbourhoods whole, for every shard count)."""
        if not machines:
            raise ConfigError("a domain needs at least one machine")
        return DomainView(self.shard_for(machines[0]), machines)

    def spawn(
        self,
        program: Program,
        machine: MachineId = 0,
        name: str = "",
        memory: MemoryImage | None = None,
    ) -> ProcessId:
        """Create a process on *machine* running *program*."""
        return self.kernel(machine).spawn(program, name=name, memory=memory)

    def call_at(
        self,
        time: int,
        machine: MachineId,
        callback: Callable[..., None],
        *args: Any,
    ) -> None:
        """Schedule driver code at *time* on *machine*'s shard loop.

        The machine anchor keeps scheduled scenario actions executable
        in a forked worker (the closure runs where the machine's state
        lives) and shard-layout independent.
        """
        self.shard_for(machine).loop.call_at(time, callback, *args)

    def schedule_spawn(
        self, at: int, machine: MachineId, program: Program, name: str = ""
    ) -> None:
        """Spawn *program* on *machine* at simulated time *at*."""
        self.call_at(
            at,
            machine,
            lambda: self.kernel(machine).spawn(program, name=name),
        )

    def schedule_migration(
        self,
        at: int,
        pid: ProcessId,
        home: MachineId,
        dest: MachineId,
        on_done: MigrationDone | None = None,
    ) -> None:
        """Ask *home*'s kernel to migrate *pid* to *dest* at time *at*.

        Unlike :meth:`migrate` this is anchored to a machine, not to an
        omniscient process lookup: if the process is no longer on
        *home* at that tick (it exited, or a policy moved it), the
        request is skipped.  Per-machine state is identical across
        shard layouts, so skip-or-start is too.
        """

        def _start() -> None:
            kernel = self.kernel(home)
            if pid in kernel.processes:
                kernel.migration.start(pid, dest, on_done=on_done)

        self.call_at(at, home, _start)

    def migrate(
        self,
        pid: ProcessId,
        dest: MachineId,
        on_done: MigrationDone | None = None,
    ) -> MigrationTicket:
        """Ask the kernel currently hosting *pid* to migrate it to *dest*.

        The direct mechanism-level entry (what the process manager does
        internally); the ticket fills in when the source kernel sees the
        migration finish.  The lookup is omniscient: scenario code meant
        for the forked executor uses :meth:`schedule_migration`.
        """
        ticket = MigrationTicket(pid, dest)
        kernel = self.kernel_hosting(pid)
        if kernel is None:
            raise UnknownProcessError(f"{pid} is not running anywhere")

        def _done(success: bool, record: MigrationCostRecord) -> None:
            ticket._complete(success, record)
            if on_done is not None:
                on_done(success, record)

        ticket.initiated = kernel.migration.start(pid, dest, on_done=_done)
        return ticket

    def crash_transport(self, dead: MachineId, executor: MachineId) -> None:
        """Fail-stop *dead*'s transport, wherever its traffic flows.

        Redirects *dead* to *executor* on **every** shard's routing view
        (pure data, so all shards route identically), hands the dead
        machine's receive-stream state (the published mirror) to the
        executor's transport so redirected packets keep their sequence
        spaces, and abandons the dead machine's unacknowledged sends
        (fail-stop: they may or may not have been delivered).  Call only
        from a ``call_at_barrier`` action: mid-window the shards
        disagree on time.
        """
        dead_shard = self.shard_for(dead)
        dead_transport = dead_shard.network._transport(dead)
        executor_network = self.shard_for(executor).network
        for shard in self.shards:
            shard.network.install_redirect(dead, executor)
        executor_network._transport(executor).absorb_recv_states(
            dead_transport.export_recv_states()
        )
        abandoned = dead_transport.abandon_sends()
        dead_shard.tracer.record(
            "net",
            "crash",
            machine=dead,
            executor=executor,
            abandoned_sends=abandoned,
        )

    # -- execution -------------------------------------------------------

    def drain(self) -> None:
        """Serial execution to global quiescence; a hang raises."""
        if self.run(max_events=DRAIN_MAX_EVENTS) >= DRAIN_MAX_EVENTS:
            raise SimulationError("drain did not quiesce")

    def execute(
        self,
        until: int | None,
        collect: Callable[[Shard], Any],
        executor: str = "serial",
    ) -> list[Any]:
        """Run to *until*, drain, and gather one ``collect(shard)`` per
        shard.  Any executor but ``"serial"`` is refused up front."""
        if executor != "serial":
            raise ConfigError(f"unknown executor {executor!r}")
        self.run(until=until)
        self.drain()
        return [collect(shard) for shard in self.shards]

    # -- inspection (omniscient: tests, benchmarks, serial executor) ----

    def kernel_hosting(self, pid: ProcessId) -> Kernel | None:
        """The kernel where *pid* currently lives, or None."""
        for kernel in self.kernels:
            if pid in kernel.processes:
                return kernel
        return None

    def where_is(self, pid: ProcessId) -> MachineId | None:
        """The machine currently hosting *pid*, or None."""
        kernel = self.kernel_hosting(pid)
        return kernel.machine if kernel is not None else None

    def process_state(self, pid: ProcessId) -> ProcessState | None:
        """The live state object for *pid*, wherever it is."""
        kernel = self.kernel_hosting(pid)
        return kernel.processes[pid] if kernel is not None else None

    def is_alive(self, pid: ProcessId) -> bool:
        """Whether *pid* is still running somewhere."""
        return self.kernel_hosting(pid) is not None

    def migration_records(self) -> list[MigrationCostRecord]:
        """Every completed migration's cost record, by start time."""
        records = [r for k in self.kernels for r in k.migration.completed]
        return sorted(records, key=lambda r: r.started_at)

    def spans(self) -> list[Span]:
        """Every migration, finished or in flight, as a span of its cost
        record; each shard's tracer adds forwarding and link updates."""
        return migration_spans(
            (r for k in self.kernels for r in k.migration.records()),
            (r for shard in self.shards for r in shard.tracer),
        )

    def total_forwarding_entries(self) -> int:
        """Forwarding addresses currently installed system-wide."""
        return sum(len(kernel.forwarding) for kernel in self.kernels)

    def loads(self) -> dict[MachineId, dict[str, Any]]:
        """Per-machine load snapshots (the §3.1 decision inputs)."""
        return {k.machine: k.load_snapshot() for k in self.kernels}

    def now(self) -> int:
        """The cluster clock (inside a barrier action, every shard)."""
        return max(shard.loop.now for shard in self.shards)

    def events_fired(self) -> int:
        """Events executed across all shards (shard-count independent)."""
        return sum(shard.loop.events_fired for shard in self.shards)

    def quiescent(self) -> bool:
        """No pending events, no queued hops, nothing awaiting an ack."""
        return all(
            shard.loop.pending_events == 0 and shard.network.quiescent()
            for shard in self.shards
        )

    def snapshot(self) -> MetricsSnapshot:
        """One merged metrics snapshot across every shard registry."""
        return merge_snapshots(s.metrics.snapshot() for s in self.shards)
