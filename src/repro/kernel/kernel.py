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
- **forwarding addresses** (§4) and the piggy-backed **link updates** (§5);
- **the syscall engine**: programs are generators; the kernel resumes them
  on a round-robin CPU, so the process state object really does hold the
  complete execution state — which is what makes migration "copy one
  object plus its memory bytes" (§7).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import (
    KernelError,
    LinkAccessError,
    ProcessStateError,
    ReproError,
    UnknownProcessError,
)
from repro.kernel.context import ProcessContext
from repro.kernel.forwarding import ForwardingTable
from repro.kernel.ids import (
    ProcessAddress,
    ProcessId,
    kernel_address,
)
from repro.kernel.links import Link, LinkSnapshot
from repro.kernel.linkupdate import (
    LinkUpdate,
    OP_LINK_UPDATE,
    build_link_update,
    sender_machine_of,
)
from repro.kernel.memory import MemoryImage, MemoryManager
from repro.kernel.messages import Message, MessageKind, control_message
from repro.kernel.ops import (
    CONTROL_PAYLOAD_BYTES,
    OP_FORWARD_GC,
    OP_MIGRATE_PROCESS,
    OP_NACK,
    OP_SPAWN,
    OP_SPAWN_REPLY,
    OP_START_PROCESS,
    OP_STOP_PROCESS,
    OP_UNDELIVERABLE,
    OP_WHERE_IS_REPLY,
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
from repro.sim.events import ScheduledEvent
from repro.sim.loop import EventLoop
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - circular-import guard
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
_IN_MIGRATION = ProcessStatus.IN_MIGRATION
_USER = MessageKind.USER


class UndeliverablePolicy(Enum):
    """What to do with a message whose destination is not here.

    FORWARD is the paper's design: leave a forwarding address behind.
    RETURN_TO_SENDER is the §4 alternative the paper rejects; it is
    implemented as an ablation (experiment E7).
    """

    FORWARD = "forward"
    RETURN_TO_SENDER = "return-to-sender"


@dataclass
class KernelConfig:
    """Per-kernel tunables.  Defaults model the paper's environment."""

    quantum: int = 1_000  #: CPU quantum, microseconds
    syscall_cpu_cost: int = 10  #: cost of one program resume / kernel call
    memory_capacity: int = 1 << 22  #: real memory per machine, bytes
    max_data_packet: int = 1_024  #: move-data chunk payload, bytes
    undeliverable_policy: UndeliverablePolicy = UndeliverablePolicy.FORWARD
    #: whether migration leaves a forwarding address (False only in the
    #: return-to-sender ablation)
    leave_forwarding_address: bool = True
    #: whether forwards send the §5 link-update message (False only in
    #: the A1 ablation quantifying what lazy link updating buys)
    send_link_updates: bool = True
    #: notify the process manager of spawn/exit/migration events
    notify_process_manager: bool = False
    #: predicate consulted before accepting an inbound migration (§3.2
    #: autonomy); receives (pid, total_bytes) and returns a verdict
    accept_migration: Callable[[ProcessId, int], bool] | None = None


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
    extra_by_op: dict[str, int] = dataclass_field(default_factory=dict)

    def bump(self, op: str) -> None:
        """Increment an ad-hoc named counter."""
        self.extra_by_op[op] = self.extra_by_op.get(op, 0) + 1

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
        for op, count in self.extra_by_op.items():
            registry.counter(
                "kernel.extra", machine=machine, op=op
            ).set_total(count)


class Kernel:
    """The kernel of one machine."""

    def __init__(
        self,
        machine: MachineId,
        loop: EventLoop,
        network: Network,
        tracer: Tracer,
        config: KernelConfig | None = None,
        well_known: dict[str, ProcessAddress] | None = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.machine = machine
        self.loop = loop
        self.network = network
        self.tracer = tracer
        self.config = config or KernelConfig()
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

        self.processes: dict[ProcessId, ProcessState] = {}
        self.dead: set[ProcessId] = set()
        self.forwarding = ForwardingTable()
        self.scheduler = RoundRobinScheduler(self.config.quantum)
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
        #: hop-count distribution of messages this kernel forwarded
        #: (paper §4: chains are the cost of lazy link updating)
        self._forward_hops = self.metrics.histogram(
            "kernel.forward_hops",
            buckets=(1, 2, 4, 8, 16, 32, 64),
            machine=machine,
        )

        self._local_id_counter = 0
        self._cpu_busy = False
        #: set by crash recovery: a crashed kernel does nothing ever again
        self.crashed = False
        #: maintenance mode: a draining kernel refuses inbound migration
        #: offers (§3.2 autonomy), so an evacuation cannot race policy
        #: moves pushing work back onto the machine being emptied
        self.draining = False
        self._timers: dict[ProcessId, ScheduledEvent] = {}
        #: a _flush_wakeups scheduler grant is already queued this tick;
        #: a burst of N message wakeups costs one dispatch probe, not N
        self._wakeup_flush_scheduled = False
        #: return-to-sender mode: messages parked while we locate their target
        self._awaiting_location: dict[ProcessId, list[Message]] = {}
        #: op -> handler for kernel-addressed control messages
        self._control_handlers: dict[str, Callable[[Message], None]] = {}
        #: op -> handler for DELIVERTOKERNEL messages targeted at a process
        self._process_control_handlers: dict[
            str, Callable[[ProcessState, Message], None]
        ] = {}
        #: program registry: name -> factory, for remote spawn requests
        self.program_registry: dict[str, ProgramFactory] = {}
        #: listeners notified when a process exits: fn(pid, exit_code)
        self.exit_listeners: list[Callable[[ProcessId, int], None]] = []
        #: hooks consulted before normal undeliverable handling; a hook
        #: returning True claims the message (used by the move-data engine
        #: to fail a blocked holder instead of hanging it)
        self.undeliverable_hooks: list[Callable[[Message], bool]] = []

        #: exact-type syscall dispatch; insertion order mirrors the old
        #: isinstance ladder so the subclass fallback scan behaves the same
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

        self._register_base_handlers()

        # Components (each registers its own control handlers).
        from repro.kernel.datamove import TransferManager
        from repro.kernel.migration import MigrationEngine

        self.transfers: "TransferManager" = TransferManager(self)
        self.migration: "MigrationEngine" = MigrationEngine(self)

        network.register_receiver(machine, self._on_network_payload)

    # ==================================================================
    # Process lifecycle
    # ==================================================================

    def spawn(
        self,
        program_factory: ProgramFactory,
        name: str = "",
        memory: MemoryImage | None = None,
        priority: int = 0,
        extra_links: dict[str, ProcessAddress] | None = None,
    ) -> ProcessId:
        """Create a process on this machine and make it runnable.

        Bootstrap links to every well-known service (plus *extra_links*)
        are minted into its link table; their ids are exposed through
        ``ctx.bootstrap`` so programs can reach the switchboard et al.
        """
        self._local_id_counter += 1
        pid = ProcessId(self.machine, self._local_id_counter)
        state = ProcessState(
            pid=pid,
            name=name or f"proc-{pid.local_id}",
            memory=memory or MemoryImage.sized(),
            priority=priority,
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
        for listener in self.exit_listeners:
            listener(pid, code)
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
        # category.  The sender address was minted once per residence.
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
        message = control_message(
            dest=kernel_address(dest_machine),
            sender=self.address,
            op=op,
            payload=payload,
            payload_bytes=payload_bytes,
            category=category,
        )
        self.route_message(message)

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
        )
        self.route_message(message)

    def control_link_snapshot(self, pid: ProcessId) -> LinkSnapshot:
        """A DELIVERTOKERNEL link to local process *pid*, for enclosure."""
        from repro.kernel.links import LinkAttribute

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
            self.network.send(
                self.machine, target, message, message.wire_bytes,
                message.category,
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
                self.scheduler.enqueue(state.pid, state.priority)
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

    def _forward(self, message: Message, forward_to: MachineId) -> None:
        """Redirect through a forwarding address (paper Figure 4-1), and
        send the link-update special message (Figure 5-1)."""
        original_sender = message.sender
        message.redirect(forward_to)
        self.stats.messages_forwarded += 1
        self._forward_hops.observe(message.forward_count)
        if self._trace_wants("forward"):
            self.tracer.record(
                "forward", "hit", pid=str(message.dest.pid), op=message.op,
                serial=message.serial, to=forward_to,
                hop=message.forward_count,
            )
        self.route_message(message)
        # "As a byproduct of forwarding, an attempt may be made to fix up
        # the link of the sending process."  Only process senders hold
        # link tables; kernel-originated traffic has nothing to patch.
        if (
            self.config.send_link_updates
            and not original_sender.pid.is_kernel
            and message.kind is not MessageKind.LINK_UPDATE
        ):
            update = LinkUpdate(
                sender_pid=original_sender.pid,
                target_pid=message.dest.pid,
                new_machine=forward_to,
            )
            update_msg = build_link_update(
                self.machine, update, sender_machine_of(message)
            )
            self.stats.link_updates_sent += 1
            if self._trace_wants("linkupd"):
                self.tracer.record(
                    "linkupd", "sent", sender=str(update.sender_pid),
                    target=str(update.target_pid), new_machine=forward_to,
                )
            self.route_message(update_msg)

    # ------------------------------------------------------------------
    # Undeliverable handling (FORWARD vs RETURN_TO_SENDER)
    # ------------------------------------------------------------------

    def _undeliverable(self, message: Message) -> None:
        self.stats.undeliverable += 1
        pid = message.dest.pid
        self.tracer.record(
            "kernel", "undeliverable", pid=str(pid), op=message.op,
            dead=pid in self.dead, serial=message.serial,
        )
        for hook in self.undeliverable_hooks:
            if hook(message):
                return
        if message.kind in (MessageKind.LINK_UPDATE, MessageKind.NACK):
            return  # best-effort traffic is silently dropped
        policy = self.config.undeliverable_policy
        if (
            policy is UndeliverablePolicy.RETURN_TO_SENDER
            and pid not in self.dead
        ):
            self._nack(message)
            return
        # FORWARD mode, or the process is genuinely dead: tell the sending
        # process its link is no longer usable so it can take recovery
        # action (paper §4).
        self._notify_sender_undeliverable(message)

    def _nack(self, message: Message) -> None:
        """Return a message to its sender's kernel as not deliverable."""
        self.stats.nacks_sent += 1
        nack = Message(
            dest=kernel_address(message.sender.last_known_machine),
            sender=self.address,
            kind=MessageKind.NACK,
            op=OP_NACK,
            payload=message,
            payload_bytes=message.wire_bytes,
            category="nack",
        )
        self.route_message(nack)

    def _notify_sender_undeliverable(self, message: Message) -> None:
        if message.sender.pid.is_kernel:
            return
        notice = Message(
            dest=message.sender,
            sender=self.address,
            kind=MessageKind.NACK,
            op=OP_UNDELIVERABLE,
            payload={
                "op": message.op,
                "dest": message.dest.pid,
                "dead": message.dest.pid in self.dead,
            },
            payload_bytes=8,
            category="nack",
        )
        self.route_message(notice)

    def _on_nack(self, nack: Message) -> None:
        """Return-to-sender mode: find the process's new home via the
        process manager, then re-send the original message (paper §4's
        rejected alternative, kept as the E7 ablation)."""
        original: Message = nack.payload
        pid = original.dest.pid
        parked = self._awaiting_location.setdefault(pid, [])
        parked.append(original)
        if len(parked) > 1:
            return  # a location query is already outstanding
        pm = self.well_known.get("process_manager")
        if pm is None:
            self._notify_sender_undeliverable(original)
            self._awaiting_location.pop(pid, None)
            return
        self.send_to_process(
            pm, "where-is", {"pid": pid, "reply_machine": self.machine},
            payload_bytes=8, category="locate", kind=MessageKind.USER,
        )

    def _on_where_is_reply(self, message: Message) -> None:
        payload = message.payload
        pid: ProcessId = payload["pid"]
        machine: MachineId | None = payload.get("machine")
        parked = self._awaiting_location.pop(pid, [])
        for original in parked:
            if machine is None:
                self._notify_sender_undeliverable(original)
                continue
            original.redirect(machine)
            sender_state = self.processes.get(original.sender.pid)
            if sender_state is not None:
                self.stats.links_retargeted += (
                    sender_state.link_table.retarget_all(pid, machine)
                )
            self.route_message(original)

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

    def _register_base_handlers(self) -> None:
        self.register_control(OP_LINK_UPDATE, self._apply_link_update)
        self.register_control(OP_FORWARD_GC, self._on_forward_gc)
        self.register_control(OP_NACK, self._on_nack)
        self.register_control(OP_WHERE_IS_REPLY, self._on_where_is_reply)
        self.register_control(OP_SPAWN, self._on_spawn_request)
        self.register_process_control(OP_STOP_PROCESS, self._on_stop)
        self.register_process_control(OP_START_PROCESS, self._on_start)
        self.register_process_control(
            OP_MIGRATE_PROCESS, self._on_migrate_directive
        )

    def _handle_kernel_message(self, message: Message) -> None:
        handler = self._control_handlers.get(message.op)
        if handler is None:
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

    def _apply_link_update(self, message: Message) -> None:
        update: LinkUpdate = message.payload
        state = self.processes.get(update.sender_pid)
        if state is None:
            self.tracer.record(
                "linkupd", "no-process", sender=str(update.sender_pid),
            )
            return
        changed = state.link_table.retarget_all(
            update.target_pid, update.new_machine
        )
        self.stats.link_updates_applied += 1
        self.stats.links_retargeted += changed
        if self._trace_wants("linkupd"):
            self.tracer.record(
                "linkupd", "applied", sender=str(update.sender_pid),
                target=str(update.target_pid),
                new_machine=update.new_machine, changed=changed,
            )

    def _on_forward_gc(self, message: Message) -> None:
        pid: ProcessId = message.payload["pid"]
        if self.forwarding.collect(pid):
            self.tracer.record("forward", "collected", pid=str(pid))

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
        self.scheduler.remove(state.pid)
        self._cancel_timer(state.pid)
        if state.wake_deadline is not None:
            state.wake_remaining = max(0, state.wake_deadline - self.loop.now)
            state.wake_deadline = None
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
        self.scheduler.enqueue(state.pid, state.priority)
        self._maybe_dispatch()

    def _maybe_dispatch(self) -> None:
        """Give the CPU to the next ready process, if it is free."""
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
            quantum = self.config.quantum
            slice_len = remaining if remaining < quantum else quantum
            self.loop.call_after(
                slice_len, self._compute_slice_done, state.pid, slice_len
            )
        else:
            self.loop.call_after(
                self.config.syscall_cpu_cost, self._resume_program, state.pid
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
        self.scheduler.enqueue(pid, state.priority)
        self._cpu_busy = False
        self._maybe_dispatch()

    def _resume_program(self, pid: ProcessId) -> None:
        if self.crashed:
            return
        state = self._processes_get(pid)
        if state is None:
            self._release_cpu(pid)
            return
        state.accounting.cpu_time += self.config.syscall_cpu_cost
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
        # hit needs neither the isinstance check nor the subclass scan.
        handler = self._syscall_table.get(syscall.__class__)
        if handler is None:
            handler = self._handle_syscall
        try:
            handler(state, syscall)
        except ReproError as exc:
            state.resume_error = exc
            self._requeue(state)
        else:
            # A call that did not block goes to the back of the queue.
            if state.status is _RUNNING:
                state.status = _READY
                scheduler.enqueue(state.pid, state.priority)
        self._cpu_busy = False
        if self._run_queue:  # _maybe_dispatch's own first probe, hoisted
            self._maybe_dispatch()

    def _handle_syscall(self, state: ProcessState, syscall: Any) -> None:
        if not isinstance(syscall, Syscall):
            raise KernelError(
                f"program yielded {syscall!r}, which is not a Syscall"
            )
        self._dispatch_syscall(state, syscall)

    def _dispatch_syscall(self, state: ProcessState, syscall: Syscall) -> None:
        # Exact-type table dispatch: one dict probe replaces the former
        # isinstance ladder for every built-in syscall.  Subclasses (rare,
        # but allowed) fall through to the isinstance scan, which walks
        # the same table in the ladder's original order.
        handler = self._syscall_table.get(syscall.__class__)
        if handler is not None:
            handler(state, syscall)
            return
        for klass, fallback in self._syscall_table.items():
            if isinstance(syscall, klass):
                fallback(state, syscall)
                return
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
        self.scheduler.enqueue(state.pid, state.priority)

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
        if state.status is ProcessStatus.WAITING_MESSAGE:
            state.wake_deadline = None
            state.pending_syscall = None
            state.resume_value = None  # Receive timed out
            self._make_runnable(state)
        elif state.status is ProcessStatus.SLEEPING:
            state.wake_deadline = None
            state.pending_syscall = None
            state.resume_value = None
            self._make_runnable(state)

    def freeze_timers_for_migration(self, state: ProcessState) -> None:
        """Convert an absolute wake deadline to a remaining duration that
        travels with the process (migration step 1)."""
        self._cancel_timer(state.pid)
        if state.wake_deadline is not None:
            state.wake_remaining = max(0, state.wake_deadline - self.loop.now)
            state.wake_deadline = None

    def _rearm_after_unfreeze(self, state: ProcessState) -> None:
        """Restore run-queue membership / timers after restart or resume."""
        if state.status is ProcessStatus.READY:
            self.scheduler.enqueue(state.pid, state.priority)
            self._maybe_dispatch()
        elif state.status in (
            ProcessStatus.WAITING_MESSAGE, ProcessStatus.SLEEPING,
        ):
            if state.wake_remaining is not None:
                state.wake_deadline = self.loop.now + state.wake_remaining
                self._arm_timer(state.pid, state.wake_remaining)
                state.wake_remaining = None
            self._try_satisfy_receive(state)

    def restart_migrated_process(self, state: ProcessState) -> None:
        """Migration step 8: restart the process in its recorded state."""
        state.complete_migration()
        self._unfreeze(state)

    def restore_aborted_migration(self, state: ProcessState) -> None:
        """Put a process back in service after a destination refusal."""
        state.abort_migration()
        self._unfreeze(state)

    def _unfreeze(self, state: ProcessState) -> None:
        # DELIVERTOKERNEL messages held while in transit are executed now
        # that "normal message receiving can continue" (paper §2.2).
        held = [m for m in state.message_queue if m.deliver_to_kernel]
        if held:
            remaining = [
                m for m in state.message_queue if not m.deliver_to_kernel
            ]
            state.message_queue.clear()
            state.message_queue.extend(remaining)
        self._rearm_after_unfreeze(state)
        for message in held:
            self._handle_process_control(state, message)

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

    def find_process(self, pid: ProcessId) -> ProcessState | None:
        """The local state for *pid*, if it lives here."""
        return self.processes.get(pid)

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
