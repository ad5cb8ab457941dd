"""The DEMOS/MP kernel.

One kernel runs on every machine.  It implements the primitive objects of
the system — executing processes, messages (including inter-processor
messages), and links — while every higher-level service lives in server
processes reached through the very same message mechanism.

The parts that matter for the paper:

- **uniform message delivery** (:meth:`Kernel.route_message`): a message
  goes to its destination's last-known machine; the kernel there delivers
  it to the process, executes it (DELIVERTOKERNEL), redirects it through a
  forwarding address, or applies the undeliverable policy;
- **forwarding addresses** (§4) and the piggy-backed **link updates** (§5),
  whose rules live in the modules named after them;
- **the syscall engine**: programs are generators; the kernel resumes them
  on a round-robin CPU, so the process state object really does hold the
  complete execution state — which is what makes migration "copy one
  object plus its memory bytes" (§7).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import (
    KernelError,
    LinkAccessError,
    ProcessStateError,
    ReproError,
    SimulationError,
    UnknownProcessError,
)
from repro.kernel.context import ProcessContext
from repro.kernel.forwarding import Forwarder, ForwardingTable
from repro.kernel.ids import (
    LOCAL_ID_LIMIT,
    KernelAddresses,
    ProcessAddress,
    ProcessId,
    kernel_address,
)
from repro.kernel.links import Link, LinkAttribute, LinkSnapshot
from repro.kernel.memory import MemoryImage, MemoryManager
from repro.kernel.messages import Message, MessageKind
from repro.kernel.ops import (
    CONTROL_PAYLOAD_BYTES,
    OP_FORWARD_GC,
    OP_MIGRATE_PROCESS,
    OP_SPAWN,
    OP_SPAWN_REPLY,
    OP_START_PROCESS,
    OP_STOP_PROCESS,
)
from repro.kernel.process_state import ProcessState, ProcessStatus
from repro.kernel.scheduler import RoundRobinScheduler
from repro.kernel.syscalls import (
    Compute,
    CreateLink,
    DestroyLink,
    DupLink,
    Exit,
    GetInfo,
    MoveData,
    Receive,
    RequestMigration,
    Send,
    Sleep,
    Syscall,
    Yield,
)
from repro.net.network import Network
from repro.net.topology import MachineId
from repro.sim.loop import Event, EventLoop
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - circular-import guard
    from repro.core.config import SystemConfig
    from repro.kernel.datamove import TransferManager
    from repro.kernel.migration import MigrationEngine
    from repro.obs.metrics import MetricsRegistry

ProgramFactory = Callable[[ProcessContext], Any]

# Module-level aliases for the statuses the delivery and dispatch hot
# paths test on every message/resume (and the kind every user send
# mints); a global load is cheaper than the enum class-attribute chain
# at these call frequencies.
_READY = ProcessStatus.READY
_RUNNING = ProcessStatus.RUNNING
_WAITING_MESSAGE = ProcessStatus.WAITING_MESSAGE
_SLEEPING = ProcessStatus.SLEEPING
_IN_MIGRATION = ProcessStatus.IN_MIGRATION
_USER = MessageKind.USER
_CONTROL = MessageKind.CONTROL


#: CPU quantum, microseconds
QUANTUM = 1_000
#: CPU cost of one program resume / kernel call, microseconds
SYSCALL_CPU_COST = 10


@dataclass
class KernelStats:
    """Per-kernel counters surfaced to benchmarks."""

    messages_sent_local: int = 0
    messages_sent_remote: int = 0
    messages_delivered: int = 0
    messages_forwarded: int = 0
    link_updates_sent: int = 0
    link_updates_applied: int = 0
    links_retargeted: int = 0
    undeliverable: int = 0
    nacks_sent: int = 0
    processes_spawned: int = 0
    processes_exited: int = 0
    syscalls: int = 0

    def publish(self, registry: "MetricsRegistry", machine: MachineId) -> None:
        """Mirror every counter into a metrics registry (as a collector),
        labelled by machine so per-machine series aggregate system-wide."""
        for name in (
            "messages_sent_local", "messages_sent_remote",
            "messages_delivered", "messages_forwarded",
            "link_updates_sent", "link_updates_applied",
            "links_retargeted", "undeliverable", "nacks_sent",
            "processes_spawned", "processes_exited", "syscalls",
        ):
            registry.counter(f"kernel.{name}", machine=machine).set_total(
                getattr(self, name)
            )


class Kernel:
    """The kernel of one machine."""

    def __init__(
        self,
        machine: MachineId,
        loop: EventLoop,
        network: Network,
        tracer: Tracer,
        config: "SystemConfig",
        well_known: dict[str, ProcessAddress] | None = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.machine = machine
        self.loop = loop
        self.network = network
        self.tracer = tracer
        self.config = config
        #: §3.2 autonomy: consulted before accepting an inbound
        #: migration; receives (pid, total_bytes) and returns a verdict
        self.accept_migration: Callable[[ProcessId, int], bool] | None = None
        #: the system-wide registry this kernel publishes into; a
        #: standalone kernel gets a private one so publishing never
        #: needs a null check
        if metrics is None:
            from repro.obs.metrics import MetricsRegistry

            metrics = MetricsRegistry()
        self.metrics = metrics
        self.metrics.register_collector(self._publish_metrics)
        #: service name -> address, used to mint bootstrap links at spawn.
        #: The dict is shared (not copied): the System adds services as
        #: they boot, and every kernel sees them immediately.
        self.well_known: dict[str, ProcessAddress] = (
            well_known if well_known is not None else {}
        )
        self.address = kernel_address(machine)
        #: the kernel addresses of the machines this one sends control
        #: traffic to (at most one entry per machine)
        self._peers = KernelAddresses()
        #: mints the serial of every message this kernel sends; the
        #: sender address names this machine, so the pair is unique
        #: cluster-wide and counts alike on every engine
        self.next_serial = itertools.count(1).__next__

        self.processes: dict[ProcessId, ProcessState] = {}
        self.dead: set[ProcessId] = set()
        self.forwarding = ForwardingTable()
        self.scheduler = RoundRobinScheduler()
        self.memory = MemoryManager(self.config.memory_capacity)
        self.stats = KernelStats()
        # Bound-method locals for the delivery fast path.  The dicts and
        # collaborators behind these are mutated but never reassigned, so
        # the bindings stay valid for the kernel's lifetime.
        self._processes_get = self.processes.get
        self._forward_target = self.forwarding.forward_target
        self._trace_wants = tracer.wants
        #: the scheduler's queued-pid table, read (never written) so a
        #: dispatch with nothing queued returns before pick_next
        self._run_queue = self.scheduler._queued

        self._local_id_counter = 0
        self._cpu_busy = False
        #: set by crash recovery: a crashed kernel does nothing ever again
        self.crashed = False
        #: maintenance mode: a draining kernel refuses inbound migration
        #: offers (§3.2 autonomy), so an evacuation cannot race policy
        #: moves pushing work back onto the machine being emptied
        self.draining = False
        self._timers: dict[ProcessId, Event] = {}
        #: a _flush_wakeups scheduler grant is already queued this tick;
        #: a burst of N message wakeups costs one dispatch probe, not N
        self._wakeup_flush_scheduled = False
        #: op -> handler for kernel-addressed control messages
        self._control_handlers: dict[str, Callable[[Message], None]] = {}
        #: op -> handler for DELIVERTOKERNEL messages targeted at a process
        self._process_control_handlers: dict[
            str, Callable[[ProcessState, Message], None]
        ] = {}
        #: program registry: name -> factory, for remote spawn requests
        self.program_registry: dict[str, ProgramFactory] = {}

        #: exact-type syscall dispatch; a class missing here (a non-Syscall
        #: or a bare Syscall) falls to _handle_syscall, which raises
        self._syscall_table: dict[
            type, Callable[[ProcessState, Any], None]
        ] = {
            Send: self.send_from_process,
            Receive: self._do_receive,
            CreateLink: self._do_create_link,
            DupLink: self._sys_dup_link,
            DestroyLink: self._sys_destroy_link,
            Compute: self._sys_compute,
            Sleep: self._do_sleep,
            MoveData: self._sys_move_data,
            RequestMigration: self._sys_request_migration,
            Exit: self._sys_exit,
            GetInfo: self._sys_get_info,
            Yield: self._sys_yield,
        }

        self.register_control(OP_SPAWN, self._on_spawn_request)
        self.register_process_control(OP_STOP_PROCESS, self._on_stop)
        self.register_process_control(OP_START_PROCESS, self._on_start)
        self.register_process_control(
            OP_MIGRATE_PROCESS, self._on_migrate_directive
        )

        # Components (each registers its own control handlers).
        from repro.kernel.datamove import TransferManager
        from repro.kernel.migration import MigrationEngine

        #: the §4 rules, each bound once for the delivery path
        self.forwarder = Forwarder(self)
        self._forward = self.forwarder.forward
        self._undeliverable = self.forwarder.undeliverable
        self.transfers: "TransferManager" = TransferManager(self)
        self.migration: "MigrationEngine" = MigrationEngine(self)

        #: the machine's transport send, bound once: a remote message
        #: goes kernel -> transport, with no network facade in between
        self._send_remote = network.register_receiver(
            machine, self._on_network_payload
        ).send

    # ==================================================================
    # Process lifecycle
    # ==================================================================

    def spawn(
        self,
        program_factory: ProgramFactory,
        name: str = "",
        memory: MemoryImage | None = None,
        extra_links: dict[str, ProcessAddress] | None = None,
    ) -> ProcessId:
        """Create a process on this machine and make it runnable.

        Bootstrap links to every well-known service (plus *extra_links*)
        are minted into its link table; their ids are exposed through
        ``ctx.bootstrap`` so programs can reach the switchboard et al.
        """
        self._local_id_counter += 1
        if self._local_id_counter >= LOCAL_ID_LIMIT:
            raise SimulationError(
                f"machine {self.machine} has minted all"
                f" {LOCAL_ID_LIMIT - 1} local process ids"
            )
        pid = ProcessId(self.machine, self._local_id_counter)
        state = ProcessState(
            pid=pid,
            name=name or f"proc-{pid.local_id}",
            memory=memory or MemoryImage.sized(),
        )
        state.residence_history.append(self.machine)
        self.memory.attach(pid, state.memory)

        ctx = ProcessContext(self, pid)
        for service, address in {
            **self.well_known,
            **(extra_links or {}),
        }.items():
            link_id = state.link_table.insert(Link(address))
            ctx.bootstrap[service] = link_id
        state.context = ctx
        state.program = program_factory(ctx)

        self.processes[pid] = state
        self.stats.processes_spawned += 1
        if self._trace_wants("kernel"):
            self.tracer.record(
                "kernel", "spawn", pid=str(pid), name=state.name,
                machine=self.machine,
            )
        self._make_runnable(state)
        if self.config.notify_process_manager:
            self._notify_process_manager(
                "process-created",
                {"pid": pid, "machine": self.machine, "name": state.name},
                links=(self.control_link_snapshot(pid),),
            )
        return pid

    def adopt(self, state: ProcessState) -> None:
        """Install a migrated-in process state (migration steps 3-5).

        The state arrives still IN_MIGRATION; :class:`MigrationEngine`
        restarts it when the source's cleanup completes.
        """
        if state.pid in self.processes:
            raise ProcessStateError(f"{state.pid} already present here")
        self.processes[state.pid] = state
        # A process that migrates back on top of its own forwarding
        # address supersedes it.
        self.forwarding.collect(state.pid)
        state.residence_history.append(self.machine)
        if state.context is not None:
            state.context.rebind(self)

    def terminate(self, pid: ProcessId, code: int = 0) -> None:
        """End a process: reclaim memory, GC forwarding addresses."""
        state = self._state(pid)
        if state.status is ProcessStatus.TERMINATED:
            return
        was = state.status
        state.status = ProcessStatus.TERMINATED
        state.exit_code = code
        self.scheduler.remove(pid)
        self._cancel_timer(pid)
        self.memory.detach(pid)
        del self.processes[pid]
        self.dead.add(pid)
        self.stats.processes_exited += 1
        if self._trace_wants("kernel"):
            self.tracer.record(
                "kernel", "exit", pid=str(pid), code=code, was=was.value,
            )
        # Garbage-collect forwarding addresses backwards along the path of
        # migration (paper §4).
        for previous in set(state.residence_history):
            if previous == self.machine:
                self.forwarding.collect(pid)
                continue
            self.send_control(
                previous, OP_FORWARD_GC, {"pid": pid},
                CONTROL_PAYLOAD_BYTES[OP_FORWARD_GC], category="gc",
            )
        if self.config.notify_process_manager:
            self._notify_process_manager(
                "process-exited", {"pid": pid, "machine": self.machine},
            )

    def register_program(self, name: str, factory: ProgramFactory) -> None:
        """Make *factory* spawnable by name via remote OP_SPAWN requests."""
        self.program_registry[name] = factory

    # ==================================================================
    # Message send / delivery
    # ==================================================================

    def send_from_process(self, state: ProcessState, call: Send) -> None:
        """Execute a Send syscall on behalf of *state*."""
        link_table = state.link_table
        link = link_table.get(call.link_id)
        enclosed = call.links
        if enclosed:
            enclosed = tuple(
                [LinkSnapshot.of(link_table.get(lid)) for lid in enclosed]
            )
        else:
            enclosed = ()
        # Positional, in field order: dest, sender, kind, op, payload,
        # payload_bytes, links, deliver_to_kernel, forward_count,
        # category, serial.  The sender address was minted once per
        # residence.
        message = Message(
            link.address,
            state.context.address,
            _USER,
            call.op,
            call.payload,
            call.payload_bytes,
            enclosed,
            link.deliver_to_kernel or call.deliver_to_kernel,
            0,
            "user",
            self.next_serial(),
        )
        accounting = state.accounting
        accounting.messages_sent += 1
        accounting.bytes_sent += message.wire_bytes
        self.route_message(message)

    def send_control(
        self,
        dest_machine: MachineId,
        op: str,
        payload: Any,
        payload_bytes: int,
        category: str = "admin",
    ) -> None:
        """Send a kernel-to-kernel control message."""
        # Positional, in field order (see send_from_process).
        self.route_message(
            Message(
                self._peers[dest_machine],
                self.address,
                _CONTROL,
                op,
                payload,
                payload_bytes,
                (),
                False,
                0,
                category,
                self.next_serial(),
            )
        )

    def send_to_process(
        self,
        dest: ProcessAddress,
        op: str,
        payload: Any = None,
        payload_bytes: int = 8,
        deliver_to_kernel: bool = False,
        category: str = "admin",
        kind: MessageKind = MessageKind.CONTROL,
        links: tuple[LinkSnapshot, ...] = (),
    ) -> None:
        """Kernel-originated message to a process address.

        With ``deliver_to_kernel`` this is the §2.2 mechanism: the message
        follows the process and is executed by the kernel that hosts it.
        Kernels may enclose links they manufacture (the kernel participates
        in all link operations), e.g. the control link returned to the
        process manager when it asks for a process to be created.
        """
        message = Message(
            dest=dest,
            sender=self.address,
            kind=kind,
            op=op,
            payload=payload,
            payload_bytes=payload_bytes,
            deliver_to_kernel=deliver_to_kernel,
            category=category,
            links=links,
            serial=self.next_serial(),
        )
        self.route_message(message)

    def control_link_snapshot(self, pid: ProcessId) -> LinkSnapshot:
        """A DELIVERTOKERNEL link to local process *pid*, for enclosure."""
        return LinkSnapshot(
            ProcessAddress(pid, self.machine),
            LinkAttribute.DELIVER_TO_KERNEL,
            None,
        )

    def route_message(self, message: Message) -> None:
        """Hand a message to the delivery system.

        Local destinations are delivered immediately (never touching the
        network); remote ones go to the destination's last-known machine.
        """
        target = message.dest.last_known_machine
        if target == self.machine:
            self.stats.messages_sent_local += 1
            self.deliver_local(message)
        else:
            self.stats.messages_sent_remote += 1
            self._send_remote(
                target, message, message.wire_bytes, message.category
            )

    def _on_network_payload(self, src: MachineId, payload: Any) -> None:
        """Reliable transport handed us an in-order message."""
        if not isinstance(payload, Message):
            raise KernelError(f"unexpected network payload: {payload!r}")
        self.deliver_local(payload)

    def deliver_local(self, message: Message) -> None:
        """Deliver a message that has arrived at this machine.

        This is the heart of migration transparency: the receiver may be a
        live process, the kernel itself, a forwarding address, or nothing.
        The resident-process case — by far the most common — is resolved
        with a single process-table probe; kernel addresses (which are
        never in the process table) and forwarding addresses only pay
        their own lookups after that probe misses.
        """
        if self.crashed:
            return
        pid = message.dest.pid
        state = self._processes_get(pid)
        if state is not None:
            if (
                message.deliver_to_kernel
                and state.status is not _IN_MIGRATION
            ):
                # Executed by the kernel on behalf of the process (§2.2).
                self._handle_process_control(state, message)
                return
            # Normal queueing.  DELIVERTOKERNEL messages for a process in
            # transit are "held and forwarded for delivery when normal
            # message receiving can continue" — they sit in the queue and
            # travel with the pending messages in step 6.
            state.message_queue.append(message)
            self.stats.messages_delivered += 1
            if self._trace_wants("kernel"):
                self.tracer.record(
                    "kernel", "deliver", pid=str(state.pid), op=message.op,
                    sender=str(message.sender.pid), serial=message.serial,
                    fwd=message.forward_count,
                )
            # Wakeup fast path.  The Receive is satisfied inline — timer
            # cancel, message hand-off, READY, run-queue insert — so
            # every other event in this tick observes exactly the state
            # it always did.  Only the CPU grant is batched: all wakeups
            # of a tick share one deferred _maybe_dispatch event instead
            # of probing the scheduler once per delivered message.
            if state.status is _WAITING_MESSAGE and isinstance(
                state.pending_syscall, Receive
            ):
                # A timer is armed only together with a wake deadline.
                if state.wake_deadline is not None:
                    self._cancel_timer(state.pid)
                    state.wake_deadline = None
                self._hand_message(state)
                state.status = _READY
                self.scheduler.enqueue(state.pid)
                if not self._cpu_busy and not self._wakeup_flush_scheduled:
                    self._wakeup_flush_scheduled = True
                    self.loop.call_soon(self._flush_wakeups)
            return

        if pid.is_kernel:
            self._handle_kernel_message(message)
            return

        forward_to = self._forward_target(pid)
        if forward_to is not None:
            self._forward(message, forward_to)
            return

        self._undeliverable(message)

    def _flush_wakeups(self) -> None:
        """Grant the CPU once for all of this tick's message wakeups."""
        self._wakeup_flush_scheduled = False
        self._maybe_dispatch()

    # ------------------------------------------------------------------
    # Kernel-addressed and DELIVERTOKERNEL dispatch
    # ------------------------------------------------------------------

    def register_control(
        self, op: str, handler: Callable[[Message], None]
    ) -> None:
        """Register a handler for a kernel-addressed control op."""
        self._control_handlers[op] = handler

    def register_process_control(
        self, op: str, handler: Callable[[ProcessState, Message], None]
    ) -> None:
        """Register a handler for a DELIVERTOKERNEL op aimed at a process."""
        self._process_control_handlers[op] = handler

    def _handle_kernel_message(self, message: Message) -> None:
        try:
            handler = self._control_handlers[message.op]
        except KeyError:
            self.tracer.record(
                "kernel", "unknown-control", op=message.op,
                sender=str(message.sender),
            )
            return
        handler(message)

    def _handle_process_control(
        self, state: ProcessState, message: Message
    ) -> None:
        if self._trace_wants("kernel"):
            self.tracer.record(
                "kernel", "d2k", pid=str(state.pid), op=message.op,
                fwd=message.forward_count,
            )
        handler = self._process_control_handlers.get(message.op)
        if handler is None:
            self.tracer.record(
                "kernel", "unknown-d2k", op=message.op, pid=str(state.pid),
            )
            return
        handler(state, message)

    def _on_spawn_request(self, message: Message) -> None:
        payload = message.payload
        name = payload["program"]
        factory = self.program_registry.get(name)
        reply_to: ProcessAddress | None = payload.get("reply_to")
        req_id = payload.get("req_id")
        if factory is None:
            if reply_to is not None:
                self.send_to_process(
                    reply_to, OP_SPAWN_REPLY,
                    {
                        "ok": False,
                        "error": f"unknown program {name!r}",
                        "req_id": req_id,
                    },
                    kind=MessageKind.USER, category="admin",
                )
            return
        params = payload.get("params") or {}
        memory = payload.get("memory")
        bound = factory if not params else (
            lambda ctx, _f=factory, _p=params: _f(ctx, **_p)
        )
        pid = self.spawn(bound, name=payload.get("name", name), memory=memory)
        if reply_to is not None:
            # The reply encloses a DELIVERTOKERNEL link so the requester
            # (normally the process manager) can control the new process
            # wherever it later moves.
            self.send_to_process(
                reply_to, OP_SPAWN_REPLY,
                {
                    "ok": True,
                    "pid": pid,
                    "machine": self.machine,
                    "req_id": req_id,
                },
                kind=MessageKind.USER, category="admin",
                links=(self.control_link_snapshot(pid),),
            )

    def _on_stop(self, state: ProcessState, message: Message) -> None:
        """Suspend a process (the paper's worked DELIVERTOKERNEL example)."""
        if state.status in (
            ProcessStatus.SUSPENDED, ProcessStatus.TERMINATED,
        ):
            return
        state.suspended_from = (
            ProcessStatus.READY
            if state.status is ProcessStatus.RUNNING
            else state.status
        )
        self.freeze(state)
        state.status = ProcessStatus.SUSPENDED
        self.tracer.record("kernel", "suspended", pid=str(state.pid))

    def _on_start(self, state: ProcessState, message: Message) -> None:
        if state.status is not ProcessStatus.SUSPENDED:
            return
        resumed_to = state.suspended_from or ProcessStatus.READY
        state.suspended_from = None
        state.status = resumed_to
        self._rearm_after_unfreeze(state)
        self.tracer.record(
            "kernel", "resumed", pid=str(state.pid), to=state.status.value,
        )

    def _on_migrate_directive(
        self, state: ProcessState, message: Message
    ) -> None:
        dest: MachineId = message.payload["dest"]
        self.migration.start(state.pid, dest)

    # ==================================================================
    # Syscall engine
    # ==================================================================

    def _state(self, pid: ProcessId) -> ProcessState:
        try:
            return self.processes[pid]
        except KeyError:
            raise UnknownProcessError(
                f"{pid} is not on machine {self.machine}"
            ) from None

    def _make_runnable(self, state: ProcessState) -> None:
        state.status = ProcessStatus.READY
        self.scheduler.enqueue(state.pid)
        self._maybe_dispatch()

    def _maybe_dispatch(self, holder: ProcessState | None = None) -> None:
        """Give the CPU to the next ready process, if it is free.

        With *holder*, the process already on the CPU keeps it (the
        run-queue bypass of :meth:`_resume_program`): nothing is picked,
        and the event scheduled is the one a pick would schedule.
        """
        if holder is not None:
            state = holder
        else:
            if self._cpu_busy or self.crashed or not self._run_queue:
                return
            scheduler = self.scheduler
            processes_get = self._processes_get
            while True:
                pid = scheduler.pick_next()
                if pid is None:
                    return
                state = processes_get(pid)
                if state is None or state.status is not _READY:
                    scheduler.release_cpu(pid)
                    continue
                break
            state.status = _RUNNING
            self._cpu_busy = True
        remaining = state.compute_remaining
        if remaining > 0:
            slice_len = remaining if remaining < QUANTUM else QUANTUM
            self.loop.call_after(
                slice_len, self._compute_slice_done, state.pid, slice_len
            )
        else:
            self.loop.call_after(
                SYSCALL_CPU_COST, self._resume_program, state.pid
            )

    def _release_cpu(self, pid: ProcessId) -> None:
        self.scheduler.release_cpu(pid)
        self._cpu_busy = False
        self._maybe_dispatch()

    def _compute_slice_done(self, pid: ProcessId, slice_len: int) -> None:
        if self.crashed:
            return
        state = self._processes_get(pid)
        if state is None:
            self._release_cpu(pid)
            return
        state.accounting.cpu_time += slice_len
        if state.status is not _RUNNING:
            # Preempted by migration or suspension mid-slice; the unfinished
            # Compute travels in compute_remaining.
            state.compute_remaining = max(
                0, state.compute_remaining - slice_len
            )
            self._release_cpu(pid)
            return
        state.compute_remaining -= slice_len
        if state.compute_remaining <= 0:
            # Compute finished: resume the program with None on its next
            # turn.
            state.pending_syscall = None
            state.resume_value = None
        state.status = _READY
        self.scheduler.release_cpu(pid)
        self.scheduler.enqueue(pid)
        self._cpu_busy = False
        self._maybe_dispatch()

    def _resume_program(self, pid: ProcessId) -> None:
        if self.crashed:
            return
        state = self._processes_get(pid)
        if state is None:
            self._release_cpu(pid)
            return
        state.accounting.cpu_time += SYSCALL_CPU_COST
        if state.status is not _RUNNING:
            # Migration or suspension won the race; resume later, elsewhere.
            self._release_cpu(pid)
            return
        assert state.program is not None
        self.stats.syscalls += 1
        error = state.resume_error
        value = state.resume_value
        state.resume_error = None
        state.resume_value = None
        try:
            if error is not None:
                syscall = state.program.throw(error)
            else:
                syscall = state.program.send(value)
        except StopIteration:
            self._release_cpu(pid)
            self.terminate(pid, 0)
            return
        except ReproError as exc:
            self.tracer.record(
                "kernel", "crash", pid=str(pid), error=repr(exc),
            )
            self._release_cpu(pid)
            self.terminate(pid, 1)
            return
        # Release the running mark before the syscall decides the next
        # status, so the requeue below actually queues.  The scheduler
        # marked this very pid object running, so identity settles it.
        scheduler = self.scheduler
        if scheduler.running is pid:
            scheduler.running = None
        else:
            scheduler.release_cpu(pid)
        # Every key of the table is a Syscall class, so an exact-type
        # hit needs no isinstance check; a miss raises.
        handler = self._syscall_table.get(syscall.__class__)
        if handler is None:
            handler = self._handle_syscall
        try:
            handler(state, syscall)
        except ReproError as exc:
            state.resume_error = exc
            self._requeue(state)
        else:
            if state.status is _RUNNING:
                if not self._run_queue and not self.crashed:
                    # A call that did not block, with nobody else ready:
                    # the requeue and pick_next round trip would hand
                    # the CPU straight back, so the process keeps it.
                    scheduler.running = state.pid
                    self._maybe_dispatch(state)
                    return
                # Otherwise it goes to the back of the queue.
                state.status = _READY
                scheduler.enqueue(state.pid)
        self._cpu_busy = False
        if self._run_queue:  # _maybe_dispatch's own first probe, hoisted
            self._maybe_dispatch()

    def _handle_syscall(self, state: ProcessState, syscall: Any) -> None:
        if not isinstance(syscall, Syscall):
            raise KernelError(
                f"program yielded {syscall!r}, which is not a Syscall"
            )
        raise KernelError(f"unhandled syscall {syscall!r}")

    # Syscall handlers.  A handler that blocks the process sets its
    # status; one that leaves it RUNNING is requeued by _resume_program.

    def _sys_dup_link(self, state: ProcessState, syscall: DupLink) -> None:
        state.resume_value = state.link_table.dup(syscall.link_id)

    def _sys_destroy_link(
        self, state: ProcessState, syscall: DestroyLink
    ) -> None:
        state.link_table.remove(syscall.link_id)

    def _sys_compute(self, state: ProcessState, syscall: Compute) -> None:
        state.compute_remaining = max(0, syscall.duration)
        state.pending_syscall = syscall

    def _sys_move_data(self, state: ProcessState, syscall: MoveData) -> None:
        self.transfers.start_move(state, syscall)

    def _sys_request_migration(
        self, state: ProcessState, syscall: RequestMigration
    ) -> None:
        state.resume_value = True
        self.migration.start(state.pid, syscall.destination)

    def _sys_exit(self, state: ProcessState, syscall: Exit) -> None:
        self.terminate(state.pid, syscall.code)

    def _sys_get_info(self, state: ProcessState, syscall: GetInfo) -> None:
        state.resume_value = {
            "pid": state.pid,
            "machine": self.machine,
            "now": self.loop.now,
            "queue_length": len(state.message_queue),
            "link_count": len(state.link_table),
            "migrations": state.accounting.migrations,
        }

    def _sys_yield(self, state: ProcessState, syscall: Yield) -> None:
        pass

    def _requeue(self, state: ProcessState) -> None:
        state.status = _READY
        self.scheduler.enqueue(state.pid)

    def _do_receive(self, state: ProcessState, syscall: Receive) -> None:
        if state.message_queue:
            self._hand_message(state)
            return
        state.pending_syscall = syscall
        state.status = ProcessStatus.WAITING_MESSAGE
        if syscall.timeout is not None:
            state.wake_deadline = self.loop.now + syscall.timeout
            self._arm_timer(state.pid, syscall.timeout)

    def _do_create_link(
        self, state: ProcessState, syscall: CreateLink
    ) -> None:
        if syscall.data_area is not None and not (
            state.memory.address_space_contains(
                syscall.data_area.offset, syscall.data_area.length
            )
        ):
            raise LinkAccessError(
                f"data area {syscall.data_area} outside address space"
            )
        link = Link(
            ProcessAddress(state.pid, self.machine),
            syscall.attributes,
            syscall.data_area,
        )
        state.resume_value = state.link_table.insert(link)

    def _do_sleep(self, state: ProcessState, syscall: Sleep) -> None:
        state.pending_syscall = syscall
        state.status = ProcessStatus.SLEEPING
        state.wake_deadline = self.loop.now + max(0, syscall.duration)
        self._arm_timer(state.pid, max(0, syscall.duration))

    def _hand_message(self, state: ProcessState) -> None:
        """Pop the next queued message and prepare it as the Receive result,
        materialising any enclosed links into the receiver's table."""
        message = state.message_queue.popleft()
        snapshots = message.links
        if snapshots:
            insert = state.link_table.insert
            message.delivered_link_ids = tuple(
                [insert(snapshot.materialise()) for snapshot in snapshots]
            )
        else:
            message.delivered_link_ids = ()
        # A message is "received" when the process gets it, not each time
        # it lands in a queue (pending messages re-queue after step 6).
        accounting = state.accounting
        accounting.messages_received += 1
        accounting.bytes_received += message.wire_bytes
        if message.forward_count:
            accounting.forwarded_to_me += 1
        state.pending_syscall = None
        state.resume_value = message

    def _try_satisfy_receive(self, state: ProcessState) -> None:
        """Wake a WAITING_MESSAGE process if a message is available."""
        if (
            state.status is _WAITING_MESSAGE
            and state.message_queue
            and isinstance(state.pending_syscall, Receive)
        ):
            self._cancel_timer(state.pid)
            state.wake_deadline = None
            self._hand_message(state)
            self._make_runnable(state)

    # ------------------------------------------------------------------
    # Timers (Receive timeout, Sleep)
    # ------------------------------------------------------------------

    def _arm_timer(self, pid: ProcessId, delay: int) -> None:
        self._cancel_timer(pid)
        self._timers[pid] = self.loop.call_after(delay, self._timer_fired, pid)

    def _cancel_timer(self, pid: ProcessId) -> None:
        timer = self._timers.pop(pid, None)
        if timer is not None:
            self.loop.cancel(timer)

    def _timer_fired(self, pid: ProcessId) -> None:
        if self.crashed:
            return
        self._timers.pop(pid, None)
        state = self.processes.get(pid)
        if state is None:
            return
        if state.status is _WAITING_MESSAGE or state.status is _SLEEPING:
            # A Sleep ended, or a Receive timed out: resume with None.
            state.wake_deadline = None
            state.pending_syscall = None
            state.resume_value = None
            self._make_runnable(state)

    def freeze(self, state: ProcessState) -> None:
        """Take *state* off the CPU and turn its wake deadline into the
        remaining time (suspension, migration step 1, crash recovery)."""
        self.scheduler.remove(state.pid)
        self._cancel_timer(state.pid)
        if state.wake_deadline is not None:
            state.wake_remaining = max(0, state.wake_deadline - self.loop.now)
            state.wake_deadline = None

    def _rearm_after_unfreeze(self, state: ProcessState) -> None:
        """Restore run-queue membership / timers after restart or resume."""
        if state.status is ProcessStatus.READY:
            self.scheduler.enqueue(state.pid)
            self._maybe_dispatch()
        elif state.status in (
            ProcessStatus.WAITING_MESSAGE, ProcessStatus.SLEEPING,
        ):
            if state.wake_remaining is not None:
                state.wake_deadline = self.loop.now + state.wake_remaining
                self._arm_timer(state.pid, state.wake_remaining)
                state.wake_remaining = None
            self._try_satisfy_receive(state)

    # ==================================================================
    # Introspection
    # ==================================================================

    def _publish_metrics(self, registry: "MetricsRegistry") -> None:
        """Registry collector: mirror this kernel's counters and gauges."""
        machine = self.machine
        self.stats.publish(registry, machine)
        registry.gauge("kernel.processes_alive", machine=machine).set(
            len(self.processes)
        )
        registry.gauge("kernel.run_queue", machine=machine).set(
            self.scheduler.load
        )
        registry.gauge("kernel.memory_used_bytes", machine=machine).set(
            self.memory.used_bytes
        )
        registry.gauge("kernel.memory_free_bytes", machine=machine).set(
            self.memory.free_bytes
        )
        registry.gauge("kernel.forwarding_entries", machine=machine).set(
            len(self.forwarding)
        )
        registry.gauge("kernel.forwarding_bytes", machine=machine).set(
            self.forwarding.storage_bytes
        )
        registry.counter("kernel.forwards", machine=machine).set_total(
            self.forwarding.total_forwards
        )
        registry.counter(
            "kernel.forwarding_collected", machine=machine
        ).set_total(self.forwarding.collected)
        registry.gauge(
            "kernel.migrations_in_flight", machine=machine
        ).set(self.migration.in_progress)

    def load_snapshot(self) -> dict[str, Any]:
        """The load information a migration decision rule needs (§3.1)."""
        return {
            "machine": self.machine,
            "run_queue": self.scheduler.load,
            "processes": len(self.processes),
            "memory_used": self.memory.used_bytes,
            "memory_free": self.memory.free_bytes,
            "forwarding_entries": len(self.forwarding),
        }

    def _notify_process_manager(
        self,
        op: str,
        payload: dict,
        links: tuple[LinkSnapshot, ...] = (),
    ) -> None:
        pm = self.well_known.get("process_manager")
        if pm is None:
            return
        self.send_to_process(
            pm, op, payload, payload_bytes=10,
            kind=MessageKind.USER, category="notify", links=links,
        )

    def __repr__(self) -> str:
        return (
            f"Kernel(machine={self.machine}, processes={len(self.processes)},"
            f" fwd={len(self.forwarding)})"
        )
