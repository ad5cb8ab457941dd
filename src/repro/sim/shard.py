"""The sharded parallel execution engine.

A :class:`ShardedSystem` is the multi-loop
:class:`~repro.core.cluster.Cluster` (the single-loop one is
:class:`repro.core.system.System`): the machine set is partitioned into
``config.shards`` shards, each with its own event loop, tracer, metrics
registry, :class:`~repro.net.network.Network` and kernels.  This
module supplies only what the engine adds to the shared surface — the
plan, the keyed loops, the runner, barrier actions and fork.  Each
shard runs ahead through the time range no other shard can yet
influence and hands in-flight packet hops to its neighbours at
pairwise rendezvous (see :mod:`repro.sim.barrier`) — DEMOS/MP is
"per-processor kernels" by construction, so the machine boundary is
exactly the distribution boundary.

Two executors share that one schedule:

- **serial** — every shard driven by one process
  (:class:`~repro.sim.barrier.SerialRunner`).  Fully general: live
  process generators may migrate across shard boundaries because
  everything shares an address space.  ``shards=1`` under this executor
  is the determinism reference.
- **fork** — one ``multiprocessing`` (fork) worker per shard
  (:class:`~repro.sim.barrier.WorkerBarrier`).  This is the throughput
  executor; everything that crosses a shard boundary must pickle, which
  holds for ordinary message payloads but *not* for a live process
  generator — scenario code that migrates processes across shards must
  keep to the serial executor (intra-shard migration is fine anywhere).

Partitioning is topology-aware: machine ids are split into contiguous
near-even ranges, snapped to an alignment that keeps each neighbourhood
co-resident — a torus row, a whole clique — so balancer domains and
bulk local traffic stay inside one shard.

Determinism: every gated counter is byte-identical for every shard
count.  The argument lives in :mod:`repro.sim.barrier`; the engine-side
obligations are (a) every hop is filed under its data key (and is a
hop record when it crosses shards), (b) per-wire state lives with the
wire's source shard, (c) build-time event order is the single global
order of this module's constructors, and (d) scenario code anchors
decisions to per-machine state (see
:meth:`~repro.core.cluster.Cluster.schedule_migration` and
:class:`repro.policy.load_balancer.DomainLoadBalancer`) rather than to
a cross-shard global view.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.core import cluster as cluster_module
from repro.core.cluster import Cluster, Shard
from repro.core.config import SystemConfig, near_square_factor
from repro.core.system import boot_standard_servers
from repro.errors import ConfigError, SimulationError
from repro.net.topology import MachineId, Topology
from repro.obs.metrics import MetricsRegistry
from repro.sim.barrier import (
    BarrierActionQueue,
    SerialRunner,
    WorkerBarrier,
    window_end,
)
from repro.sim.loop import KeyedEventLoop, check_machine_ids

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.barrier import HopRecord


def shard_alignment(config: SystemConfig) -> int:
    """Smallest machine-id block the partitioner must keep whole.

    Torus rows are the natural traffic neighbourhoods (and the
    balancer domains), so they must not straddle a shard boundary;
    every other shape partitions freely.
    """
    if config.topology == "torus":
        return config.machines // near_square_factor(config.machines)
    return 1


def partition_machines(
    machines: list[MachineId], shards: int, alignment: int = 1
) -> list[list[MachineId]]:
    """Split *machines* into contiguous, near-even, aligned groups.

    Units of *alignment* consecutive machines are distributed so group
    sizes differ by at most one unit; the id ranges are contiguous, so
    a group is a band of torus rows.
    """
    if shards < 1:
        raise ConfigError(f"shards must be >= 1, got {shards}")
    if len(machines) % alignment:
        raise ConfigError(
            f"{len(machines)} machines do not divide into units "
            f"of {alignment}"
        )
    units = [
        machines[i: i + alignment]
        for i in range(0, len(machines), alignment)
    ]
    if len(units) < shards:
        raise ConfigError(
            f"cannot split {len(units)} aligned unit(s) of {alignment} "
            f"machine(s) into {shards} shards"
        )
    base, extra = divmod(len(units), shards)
    groups: list[list[MachineId]] = []
    start = 0
    for index in range(shards):
        count = base + (1 if index < extra else 0)
        chunk = units[start: start + count]
        groups.append([m for unit in chunk for m in unit])
        start += count
    return groups


@dataclass(frozen=True)
class ShardPlan:
    """How one machine set maps onto shards."""

    shards: tuple[tuple[MachineId, ...], ...]
    lookahead: int  #: the window grid (min wire latency)
    #: per wire-connected shard pair ``(i, j)`` with ``i < j``: the
    #: exchange period in microseconds — the pair's minimum crossing
    #: latency snapped down to the window grid.  Pairs no wire crosses
    #: are absent and never rendezvous (topology-aware exchange).
    pair_periods: dict[tuple[int, int], int]
    _shard_of: dict[MachineId, int]

    @classmethod
    def build(cls, config: SystemConfig, topology: Topology) -> "ShardPlan":
        check_machine_ids(topology.machines)
        groups = partition_machines(
            topology.machines, config.shards, shard_alignment(config)
        )
        lookahead = topology.min_latency()
        if lookahead is None or lookahead < 1:
            raise ConfigError(
                "sharded execution needs every wire latency >= 1 "
                "(zero lookahead admits no conservative window)"
            )
        shard_of = {
            machine: index
            for index, group in enumerate(groups)
            for machine in group
        }
        pair_min: dict[tuple[int, int], int] = {}
        for wire in topology.wires():
            si = shard_of[wire.src]
            sj = shard_of[wire.dst]
            if si == sj:
                continue
            pair = (si, sj) if si < sj else (sj, si)
            prior = pair_min.get(pair)
            if prior is None or wire.latency < prior:
                pair_min[pair] = wire.latency
        pair_periods = {
            pair: max(lookahead, (latency // lookahead) * lookahead)
            for pair, latency in sorted(pair_min.items())
        }
        return cls(
            shards=tuple(tuple(g) for g in groups),
            lookahead=lookahead,
            pair_periods=pair_periods,
            _shard_of=shard_of,
        )

    def shard_of(self, machine: MachineId) -> int:
        """The shard index owning *machine*."""
        try:
            return self._shard_of[machine]
        except KeyError:
            raise ConfigError(f"no machine {machine}") from None


class ShardRuntime:
    """Adapter giving the barrier runners their ``ShardPeer`` surface."""

    __slots__ = ("shard",)

    def __init__(self, shard: Shard) -> None:
        self.shard = shard

    def next_event_time(self) -> int | None:
        return self.shard.loop.next_event_time()

    def events_fired(self) -> int:
        return self.shard.loop.events_fired

    def run_window(self, deadline: int) -> None:
        # A resumed run can revisit rendezvous ticks the drain already
        # executed past; behind-the-clock deadlines are no-ops.
        if deadline >= self.shard.loop.now:
            self.shard.loop.run_until(deadline)

    def run_events(self, deadline: int | None, max_events: int | None) -> None:
        loop = self.shard.loop
        loop.run_until(deadline, max_events)
        if deadline is None and loop.next_event_time() is None:
            loop.advance_to(window_end(loop.now, loop.grid) - 1)

    def advance_to(self, time: int) -> None:
        if time > self.shard.loop.now:
            self.shard.loop.run_until(time)

    def freeze_at(self, time: int) -> None:
        # Barrier actions fire *before* the window containing their
        # tick: move the clock only, never execute events at `time`
        # (run_until is inclusive and would).
        loop = self.shard.loop
        if time > loop.now:
            loop.advance_to(time)

    def drain_outboxes(self) -> dict[int, list["HopRecord"]]:
        return self.shard.network.take_outboxes()

    def take_outbox(self, dest: int) -> list["HopRecord"]:
        return self.shard.network.take_outbox(dest)

    def inject(self, records: list["HopRecord"]) -> None:
        receive = self.shard.network.receive_record
        for record in records:
            receive(record)


class ShardedSystem(Cluster):
    """One simulated DEMOS/MP installation across parallel shards."""

    def __init__(self, config: SystemConfig | None = None) -> None:
        super().__init__(config)
        self.plan = ShardPlan.build(self.config, self.topology)
        for index, machines in enumerate(self.plan.shards):
            self._build_shard(
                list(machines),
                KeyedEventLoop(self.plan.lookahead),
                shard_index=index,
                shard_of=self.plan.shard_of,
            )
        #: global (cross-shard) actions fired between meetings — chaos
        #: crashes and wire surgery; empty unless chaos registers actions
        self._barrier_actions = BarrierActionQueue(self.plan.lookahead)
        self._runner = SerialRunner(
            [ShardRuntime(shard) for shard in self.shards],
            self.plan.lookahead,
            self.plan.pair_periods,
            syncs=[shard.network.sync for shard in self.shards],
            actions=self._barrier_actions,
        )
        #: set once a forked execution has consumed this system
        self._forked = False
        if self.config.boot_servers:
            boot_standard_servers(self)

    @property
    def barrier_grid(self) -> int:
        """Barrier actions fire between windows of the lookahead grid."""
        return self.plan.lookahead

    def call_at_barrier(
        self,
        time: int,
        key: tuple,
        callback: Callable[..., None],
        *args: Any,
    ) -> None:
        """Schedule a *global* action at the window barrier at *time*.

        Unlike :meth:`call_at`, the callback is not anchored to one
        machine's loop: it fires when every shard has executed all
        events strictly before *time* and frozen its clock there — so
        it may touch state on several shards atomically (fail-stop
        crash recovery does).  *time* must sit on :attr:`barrier_grid`;
        *key* is pure data and orders same-tick actions
        deterministically.

        The serial runner drives every shard to the action tick, fires,
        and re-arms its rendezvous schedule (the action's influence
        cannot arrive anywhere before tick + pair period, so clamped
        meetings stay conservative).  The forked executor refuses — its
        workers have no global rendezvous a cross-shard mutation could
        ride on.
        """
        try:
            self._barrier_actions.add(time, key, callback, *args)
        except ValueError as exc:
            raise SimulationError(str(exc)) from None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(
        self, until: int | None = None, max_events: int | None = None
    ) -> int:
        """Serial execution: with *until*, stop the clocks there;
        without, drain to global quiescence.  Returns the events fired.

        *max_events* is the hang guard :meth:`System.run` has.  With
        several shards it is checked only between drain rounds and at
        meetings, so a run may overshoot it by what one round executes
        — one window of the grid where wire latency is uniform.  One
        shard drains in one loop run that stops exactly at the budget;
        before a horizon with no shard pairs to meet, the range is
        never checked.
        """
        self._require_not_forked()
        before = self.events_fired()
        self._runner.run(horizon=until, max_events=max_events)
        return self.events_fired() - before

    def execute(
        self,
        until: int | None,
        collect: Callable[[Shard], Any],
        executor: str = "serial",
    ) -> list[Any]:
        """Run to *until*, drain, and gather one result per shard.

        ``collect`` runs against each shard after quiescence — in this
        process (serial) or inside the owning worker (fork), where it
        must return something picklable.  Both executors follow the
        identical rendezvous schedule, so the collected results match
        byte for byte.
        """
        if executor == "fork":
            return self._execute_forked(until, collect)
        return super().execute(until, collect, executor)

    def _require_not_forked(self) -> None:
        if self._forked:
            raise SimulationError(
                "this ShardedSystem already ran under the fork executor; "
                "its in-process state is stale (build a fresh system)"
            )

    def _execute_forked(
        self, until: int | None, collect: Callable[[Shard], Any]
    ) -> list[Any]:
        """One-shot forked execution: one worker per shard."""
        self._require_not_forked()
        if self._barrier_actions.pending():
            raise SimulationError(
                "barrier actions (chaos crashes and wire surgery) "
                "need the serial executor; forked workers have no "
                "global barrier hook"
            )
        if "fork" not in multiprocessing.get_all_start_methods():
            # No fork on this platform: the serial executor computes the
            # identical result (the schedule is shared), just without
            # parallel speedup.
            return self.execute(until, collect, executor="serial")
        self._forked = True
        ctx = multiprocessing.get_context("fork")
        count = len(self.shards)
        pair_conns: dict[int, dict[int, Any]] = {
            i: {} for i in range(count)
        }
        for i in range(count):
            for j in range(i + 1, count):
                a, b = ctx.Pipe()
                pair_conns[i][j] = a
                pair_conns[j][i] = b
        result_conns = []
        workers = []
        for index in range(count):
            parent_end, child_end = ctx.Pipe(duplex=False)
            worker = ctx.Process(
                target=_forked_worker,
                name=f"shard-{index}",
                args=(
                    self, index, pair_conns, child_end, until, collect,
                ),
            )
            worker.start()
            child_end.close()
            result_conns.append(parent_end)
            workers.append(worker)
        # The parent must not hold write ends of the inter-worker pipes,
        # or a dead worker's peers would block forever instead of seeing
        # EOF and unwinding.
        for conns in pair_conns.values():
            for conn in conns.values():
                conn.close()
        results: list[Any] = [None] * count
        failed: list[int] = []
        for index, conn in enumerate(result_conns):
            try:
                results[index] = conn.recv()
            except EOFError:
                failed.append(index)
            finally:
                conn.close()
        for worker in workers:
            worker.join()
        if failed:
            codes = {i: workers[i].exitcode for i in failed}
            raise SimulationError(
                f"shard worker(s) {failed} died (exit codes {codes}); "
                "a common cause is a live cross-shard payload (e.g. "
                "migrating a live process generator between shards), "
                "which cannot cross a fork boundary — the serial "
                "executor supports it"
            )
        return results

    def _publish_sim_metrics(
        self, registry: MetricsRegistry, shard: Shard
    ) -> None:
        registry.gauge("sim.now_us", shard=shard.index).set(shard.loop.now)
        registry.counter(
            "sim.events_fired", shard=shard.index
        ).set_total(shard.loop.events_fired)
        for name, value in shard.network.sync.as_dict().items():
            registry.counter(
                f"sim.sync.{name}", shard=shard.index
            ).set_total(value)

    def __repr__(self) -> str:
        return (
            f"ShardedSystem(machines={self.config.machines},"
            f" shards={len(self.shards)},"
            f" lookahead={self.plan.lookahead}us,"
            f" now={self.now()}us, events={self.events_fired()})"
        )


def _forked_worker(
    system: ShardedSystem,
    index: int,
    pair_conns: dict[int, dict[int, Any]],
    result_conn: Any,
    until: int | None,
    collect: Callable[[Shard], Any],
) -> None:  # pragma: no cover — runs in forked children
    """Worker body: drive one shard to quiescence, ship the collection.

    Runs in a forked child, so it inherits the fully built system; it
    only ever *executes* its own shard's loop.  (Coverage is measured
    in the parent; the serial executor exercises the same barrier
    schedule in-process.)
    """
    for i, conns in pair_conns.items():
        for j, conn in conns.items():
            if i != index:
                conn.close()
    barrier = WorkerBarrier(
        index, pair_conns[index], system.plan.lookahead,
        system.plan.pair_periods, sync=system.shards[index].network.sync,
    )
    runtime = ShardRuntime(system.shards[index])
    # Read at call time, so a patched budget reaches the child.
    budget = cluster_module.DRAIN_MAX_EVENTS
    barrier.run(runtime, horizon=until, max_events=budget)
    barrier.run(runtime, max_events=budget)
    result_conn.send(collect(system.shards[index]))
    result_conn.close()
