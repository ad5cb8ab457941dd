"""Fail-stop crash recovery (paper §1 and §4).

"If the information necessary to transport a process is saved in stable
storage, it may be possible to 'migrate' a process from a processor that
has crashed to a working one." (§1)

"It is possible for the processor that is holding forwarding address to
crash.  Since forwarding addresses are (degenerate) processes, the same
recovery mechanism that works for processes works for forwarding
addresses.  Process migration assumes that reliable message delivery is
provided by some lower level mechanism, for example, published
communications." (§4)

:class:`CrashRecoveryManager` models exactly that:

- **stable storage** is modelled as perfect continuous publication: at
  the crash instant the manager recovers each *protected* process's
  authoritative state (in DEMOS/MP the publishing mechanism would have
  mirrored it; in the simulation the state object is the mirror);
- the crashed machine's **forwarding addresses** are recovered onto the
  executor machine, and the network redirects traffic addressed to the
  dead machine there — the published-communications takeover;
- **unprotected** processes are casualties: messages to them get the
  normal dead-process treatment (sender notified the link is unusable).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import KernelError
from repro.kernel.ids import ProcessId
from repro.kernel.process_state import ProcessState, ProcessStatus
from repro.net.topology import MachineId

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.cluster import Cluster


@dataclass
class CrashReport:
    """What one crash did."""

    machine: MachineId
    executor: MachineId
    recovered: list[ProcessId] = field(default_factory=list)
    casualties: list[ProcessId] = field(default_factory=list)
    forwarding_recovered: int = 0
    migrations_aborted: int = 0


class CrashRecoveryManager:
    """Fail-stop crashes with stable-storage process recovery.

    Written against :class:`~repro.core.cluster.Cluster` (serial
    executor).  A crash scheduled ahead of time must go through
    :meth:`~repro.core.cluster.Cluster.call_at_barrier`: the recovery
    sequence mutates several shards' state atomically, which is only
    sound between windows with every shard clock frozen at the crash
    instant (``system.now()``).
    """

    def __init__(self, system: "Cluster") -> None:
        self.system = system
        self._protected: set[ProcessId] = set()
        self.reports: list[CrashReport] = []

    def protect(self, pid: ProcessId) -> None:
        """Mark *pid* as saved to stable storage (recoverable)."""
        self._protected.add(pid)

    def protect_all(self, machine: MachineId) -> None:
        """Protect every process currently on *machine*."""
        for pid in self.system.kernel(machine).processes:
            self.protect(pid)

    def crash(
        self, machine: MachineId, executor: MachineId
    ) -> CrashReport:
        """Fail-stop *machine*; recover its protected contents on
        *executor*."""
        if machine == executor:
            raise KernelError("executor must be a different machine")
        system = self.system
        dead = system.kernel(machine)
        alive = system.kernel(executor)
        if dead.crashed:
            raise KernelError(f"machine {machine} already crashed")
        if alive.crashed:
            raise KernelError(f"executor {executor} is itself dead")
        report = CrashReport(machine, executor)

        # The instant of failure: the kernel stops doing anything, and
        # the delivery substrate (published communications) hands its
        # streams and its traffic to the executor.
        dead.crashed = True
        system.crash_transport(machine, executor)

        # Abort outbound migrations from *any* machine that were headed
        # to the dead one (their destination state is gone).
        for kernel in system.kernels:
            if kernel is dead or kernel.crashed:
                continue
            for pid in list(kernel.migration.outgoing_pids()):
                entry = kernel.migration._outgoing.get(pid)
                if entry is None or entry.dest != machine:
                    continue
                state = kernel.processes.get(pid)
                entry.record.success = False
                entry.record.refusal_reason = "destination crashed"
                entry.record.completed_at = system.now()
                if state is not None:
                    kernel.restore_aborted_migration(state)
                kernel.migration._finish_source(entry, success=False)
                report.migrations_aborted += 1

        # Resolve inbound migrations *from* the dead machine anywhere in
        # the system.  If the destination already holds the installed
        # state (all three data moves done), it finishes the move in
        # place — the dead source's remaining duties (forwarding an
        # already-lost pending queue, cleanup) are moot.  Otherwise the
        # transfer is incomplete and is cancelled; the frozen state is
        # still at the source and is recovered below if protected.
        for kernel in system.kernels:
            if kernel is dead or kernel.crashed:
                continue
            for pid, entry in list(kernel.migration._incoming.items()):
                if entry.source != machine:
                    continue
                installed = (
                    entry.phase == "installed"
                    and pid in kernel.processes
                )
                del kernel.migration._incoming[pid]
                if installed:
                    # The same state object is still referenced by the
                    # dead source's table; claim it exclusively first.
                    dead.processes.pop(pid, None)
                    kernel.restart_migrated_process(kernel.processes[pid])
                    # The dead source died before its step-7 cleanup, so
                    # the forwarding address it owed was lost with it.
                    # The executor answers for the dead machine's routing
                    # (the transport redirect), so it holds the pointer —
                    # without it, traffic still addressed to the source
                    # redirects to the executor and is undeliverable.
                    if kernel is not alive:
                        alive.forwarding.install(
                            pid, kernel.machine, system.now(),
                        )
                        report.forwarding_recovered += 1
                    kernel.tracer.record(
                        "recover", "inbound-completed", pid=str(pid),
                        at=kernel.machine,
                    )
                else:
                    kernel.memory.cancel_reservation(pid)
                    kernel.processes.pop(pid, None)
                    report.migrations_aborted += 1
                    kernel.tracer.record(
                        "recover", "inbound-cancelled", pid=str(pid),
                        at=kernel.machine,
                    )

        # Recover forwarding addresses: degenerate processes, recovered
        # like processes (§4).  Skip entries the executor can answer
        # better itself — the process is resident here, or the executor
        # holds its own (later-on-the-path) pointer; installing the dead
        # machine's copy would shadow it with a staler or self-pointing
        # one.  Exception: an executor entry pointing *at* the dead
        # machine must be overwritten — the dead machine's copy is the
        # next link of that very chain (strictly fresher), and keeping
        # the stale pointer would combine with the transport redirect
        # (dead -> executor) into a routing cycle that forwards forever.
        for entry in dead.forwarding.entries():
            if entry.pid in alive.processes:
                continue
            own = alive.forwarding.lookup(entry.pid)
            if own is not None and own.machine != machine:
                continue
            alive.forwarding.install(
                entry.pid, entry.machine, system.now(),
            )
            report.forwarding_recovered += 1

        # Recover protected processes; unprotected ones are casualties.
        for pid, state in list(dead.processes.items()):
            del dead.processes[pid]
            if pid in self._protected:
                self._recover(dead, alive, state)
                report.recovered.append(pid)
            else:
                dead_mark = alive  # executor answers for the casualties
                dead_mark.dead.add(pid)
                report.casualties.append(pid)
                alive.tracer.record(
                    "recover", "casualty", pid=str(pid), machine=machine,
                )

        self.reports.append(report)
        alive.tracer.record(
            "recover", "crash", machine=machine, executor=executor,
            recovered=len(report.recovered),
            casualties=len(report.casualties),
        )
        return report

    def audit(self) -> list[str]:
        """Cross-check recovery bookkeeping against live system state.

        Meant to run at quiescence (the chaos survivor-invariant gate):
        returns one human-readable problem per inconsistency, empty when
        recovery left no orphaned state behind.  Checks:

        - crashed kernels hold no process state and no open migration
          protocol entries;
        - no process is resident on two machines at once;
        - every *recovered* process is either alive on exactly one
          working machine or properly exited (dead-marked) — never
          silently vanished;
        - every *casualty* is dead everywhere and dead-marked somewhere
          (its executor answers for it);
        - no working kernel still has migration protocol entries open.
        """
        system = self.system
        problems: list[str] = []
        hosts: dict[ProcessId, list[MachineId]] = {}
        for kernel in system.kernels:
            if kernel.crashed:
                if kernel.processes:
                    problems.append(
                        f"crashed machine {kernel.machine} still holds "
                        f"{len(kernel.processes)} process state(s)"
                    )
                continue
            for pid in kernel.processes:
                hosts.setdefault(pid, []).append(kernel.machine)
            open_entries = kernel.migration.in_progress
            if open_entries:
                problems.append(
                    f"machine {kernel.machine} has {open_entries} "
                    f"migration protocol entr(y/ies) still open"
                )
        for pid, machines in sorted(hosts.items(), key=lambda kv: str(kv[0])):
            if len(machines) > 1:
                problems.append(
                    f"{pid} is resident on {len(machines)} machines "
                    f"at once: {machines}"
                )

        def dead_marked(pid: ProcessId) -> bool:
            return any(pid in k.dead for k in system.kernels)

        for report in self.reports:
            for pid in report.recovered:
                if pid in hosts or dead_marked(pid):
                    continue
                problems.append(
                    f"recovered {pid} (crash of machine {report.machine}) "
                    f"is neither alive nor dead-marked — orphaned"
                )
            for pid in report.casualties:
                if pid in hosts:
                    problems.append(
                        f"casualty {pid} (crash of machine "
                        f"{report.machine}) is still alive on "
                        f"{hosts[pid]}"
                    )
                elif not dead_marked(pid):
                    problems.append(
                        f"casualty {pid} (crash of machine "
                        f"{report.machine}) is not dead-marked anywhere"
                    )
        return problems

    def _recover(self, dead, alive, state: ProcessState) -> None:
        """Reinstate one process on the executor."""
        pid = state.pid
        # Freeze exactly as migration step 1 would: a process caught on
        # the dead CPU restarts READY; blocked waits keep their nature.
        if state.status is ProcessStatus.RUNNING:
            state.status = ProcessStatus.READY
        if state.status is ProcessStatus.IN_MIGRATION:
            # Mid-outbound-migration at the crash: restore its recorded
            # state; the (aborted) protocol record was handled above.
            state.abort_migration()
        dead.scheduler.remove(pid)
        dead_timer = dead._timers.pop(pid, None)
        if dead_timer is not None:
            dead.loop.cancel(dead_timer)
        if state.wake_deadline is not None:
            state.wake_remaining = max(
                0, state.wake_deadline - self.system.now(),
            )
            state.wake_deadline = None

        alive.memory.attach(pid, state.memory)
        alive.processes[pid] = state
        alive.forwarding.collect(pid)
        state.residence_history.append(alive.machine)
        if state.context is not None:
            state.context.rebind(alive)
        state.accounting.migrations += 1  # a recovery is a forced move
        alive._unfreeze(state)
        alive.tracer.record(
            "recover", "recovered", pid=str(pid), to=alive.machine,
        )
