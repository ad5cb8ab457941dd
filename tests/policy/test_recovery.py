"""Tests for fail-stop crash recovery (§1, §4)."""

import pytest

from repro.chaos.invariants import check_memory_accounting
from repro.errors import KernelError
from repro.kernel.ids import ProcessAddress
from repro.kernel.messages import MessageKind
from repro.kernel.ops import OP_UNDELIVERABLE
from repro.kernel.process_state import ProcessStatus
from repro.policy.recovery import CrashRecoveryManager
from tests.conftest import drain, make_bare_system


def parked(ctx):
    while True:
        yield ctx.receive()


class TestCrashRecovery:
    def test_protected_compute_finishes_on_executor(self):
        system = make_bare_system()
        finished = {}

        def cruncher(ctx):
            yield ctx.compute(40_000)
            finished["machine"] = ctx.machine
            yield ctx.exit()

        pid = system.spawn(cruncher, machine=0)
        manager = CrashRecoveryManager(system)
        manager.protect(pid)
        system.loop.call_at(10_000, lambda: manager.crash(0, 1))
        drain(system)
        assert finished["machine"] == 1

    def test_protected_waiter_receives_on_executor(self):
        system = make_bare_system()
        got = []

        def waiter(ctx):
            msg = yield ctx.receive()
            got.append((msg.op, ctx.machine))
            yield ctx.exit()

        pid = system.spawn(waiter, machine=0)
        drain(system)
        manager = CrashRecoveryManager(system)
        manager.protect(pid)
        report = manager.crash(0, 2)
        assert report.recovered == [pid]
        # Stale address still names the dead machine; the network
        # redirect carries it to the executor, which hosts the process.
        system.kernel(1).send_to_process(
            ProcessAddress(pid, 0), "hello", {}, kind=MessageKind.USER,
        )
        drain(system)
        assert got == [("hello", 2)]

    def test_unprotected_process_is_a_casualty(self):
        system = make_bare_system()
        notices = []

        def sender(ctx):
            yield ctx.sleep(10_000)
            yield ctx.send(ctx.bootstrap["victim"], op="too-late")
            msg = yield ctx.receive(timeout=500_000)
            notices.append(msg.op if msg else None)
            yield ctx.exit()

        victim = system.spawn(parked, machine=0)
        system.kernel(1).spawn(
            sender, name="sender",
            extra_links={"victim": ProcessAddress(victim, 0)},
        )
        manager = CrashRecoveryManager(system)  # victim NOT protected
        system.loop.call_at(5_000, lambda: manager.crash(0, 2))
        drain(system)
        assert notices == [OP_UNDELIVERABLE]
        assert manager.reports[0].casualties == [victim]

    def test_forwarding_addresses_recovered_like_processes(self):
        """A probe through a chain whose middle machine crashed still
        reaches the process: the executor answers for the dead hop."""
        system = make_bare_system(machines=4)
        got = []

        def receiver(ctx):
            msg = yield ctx.receive()
            got.append((msg.op, msg.forward_count, ctx.machine))
            yield ctx.exit()

        pid = system.spawn(receiver, machine=0)
        system.migrate(pid, 1)
        drain(system)
        system.migrate(pid, 2)
        drain(system)
        # Machine 1 (holding the 1->2 forwarding address) crashes.
        manager = CrashRecoveryManager(system)
        report = manager.crash(1, 3)
        assert report.forwarding_recovered == 1
        # Probe with the *original* address: 0 forwards to 1; machine 3
        # executes 1's forwarding table and forwards on to 2.
        system.kernel(0).send_to_process(
            ProcessAddress(pid, 0), "chase", {}, kind=MessageKind.USER,
        )
        drain(system)
        assert got == [("chase", 2, 2)]

    def test_migration_toward_crashed_machine_aborts_cleanly(self):
        system = make_bare_system()
        pid = system.spawn(parked, machine=0)
        drain(system)
        ticket = system.migrate(pid, 1)  # heads for the doomed machine
        manager = CrashRecoveryManager(system)
        manager.crash(1, 2)
        drain(system)
        assert ticket.done and ticket.success is False
        assert ticket.record.refusal_reason == "destination crashed"
        assert system.where_is(pid) == 0
        # Still alive and serviceable.
        got = []

        def poke():
            system.kernel(2).send_to_process(
                ProcessAddress(pid, 0), "alive?", {},
                kind=MessageKind.USER,
            )

        poke()
        drain(system)
        assert system.process_state(pid).accounting.messages_received == 1
        # The request, redirected to the executor, reserved nothing.
        assert check_memory_accounting(system) == []
        assert system.kernel(2).migration._incoming == {}

    def test_migration_started_after_crash_is_refused(self):
        system = make_bare_system()
        pid = system.spawn(parked, machine=0)
        drain(system)
        CrashRecoveryManager(system).crash(1, 2)
        ticket = system.migrate(pid, 1)  # the machine is already dead
        drain(system)
        assert ticket.done and ticket.success is False
        assert ticket.record.refusal_reason == "destination crashed"
        assert system.where_is(pid) == 0
        assert (system.process_state(pid).status
                is ProcessStatus.WAITING_MESSAGE)
        assert check_memory_accounting(system) == []
        assert system.kernel(2).migration._incoming == {}

    def test_stale_refusal_leaves_the_next_move_alone(self):
        system = make_bare_system(machines=4)
        pid = system.spawn(parked, machine=0)
        drain(system)
        first = system.migrate(pid, 1)
        CrashRecoveryManager(system).crash(1, 2)
        # Moved on at once: the refusal of the given-up move to 1
        # arrives while this one is under way.
        second = system.migrate(pid, 3)
        drain(system)
        assert first.done and first.success is False
        assert second.done and second.success is True
        assert system.where_is(pid) == 3
        assert check_memory_accounting(system) == []

    def test_sleeping_process_wakes_on_executor(self):
        system = make_bare_system()
        woke = {}

        def sleeper(ctx):
            yield ctx.sleep(50_000)
            woke["machine"] = ctx.machine
            yield ctx.exit()

        pid = system.spawn(sleeper, machine=0)
        manager = CrashRecoveryManager(system)
        manager.protect(pid)
        system.loop.call_at(10_000, lambda: manager.crash(0, 1))
        drain(system)
        assert woke["machine"] == 1

    def test_protect_all(self):
        system = make_bare_system()
        pids = [system.spawn(parked, machine=0) for _ in range(3)]
        manager = CrashRecoveryManager(system)
        manager.protect_all(0)
        report = manager.crash(0, 1)
        assert sorted(report.recovered, key=str) == sorted(pids, key=str)
        assert report.casualties == []

    def test_double_crash_rejected(self):
        system = make_bare_system()
        manager = CrashRecoveryManager(system)
        manager.crash(0, 1)
        with pytest.raises(KernelError):
            manager.crash(0, 2)
        with pytest.raises(KernelError):
            manager.crash(2, 0)  # dead executor

    def test_self_executor_rejected(self):
        system = make_bare_system()
        manager = CrashRecoveryManager(system)
        with pytest.raises(KernelError):
            manager.crash(0, 0)

    def test_network_settles_after_crash(self):
        """Messages in flight toward the dead machine are acked by the
        executor; nothing retransmits forever."""
        system = make_bare_system()
        pid = system.spawn(parked, machine=0)
        manager = CrashRecoveryManager(system)
        manager.protect(pid)
        # Fire a burst, crash mid-flight.
        for i in range(10):
            system.kernel(1).send_to_process(
                ProcessAddress(pid, 0), "n", i, kind=MessageKind.USER,
            )
        system.loop.call_at(50, lambda: manager.crash(0, 2))
        drain(system)
        assert system.network.quiescent()
        state = system.process_state(pid)
        # The parked receiver consumed every message on the executor.
        assert state.accounting.messages_received == 10


class TestSourceCrashDuringOutboundMigration:
    def test_early_crash_cancels_and_recovers_at_source_snapshot(self):
        """The source dies right after step 2: the destination cancels
        its reservation and the protected frozen state is recovered on
        the executor."""
        system = make_bare_system(machines=4, latency=5_000)
        pid = system.spawn(parked, machine=0)
        drain(system)
        manager = CrashRecoveryManager(system)
        manager.protect(pid)
        system.kernel(0).migration.start(pid, 1)
        # Crash before any data chunks can arrive (wires are slow).
        system.loop.call_at(12_000, lambda: manager.crash(0, 3))
        drain(system)
        assert system.where_is(pid) == 3
        assert system.kernel(1).migration.in_progress == 0
        # The destination's reservation was released.
        assert system.kernel(1).memory.used_bytes == 0
        got = []
        state = system.process_state(pid)
        system.kernel(2).send_to_process(
            ProcessAddress(pid, 0), "post-crash", {},
            kind=MessageKind.USER,
        )
        drain(system)
        assert state.accounting.messages_received == 1

    def test_late_crash_completes_move_at_destination(self):
        """The source dies after the state is fully installed at the
        destination but before cleanup-complete arrives: the destination
        finishes the migration in place."""
        system = make_bare_system(machines=4)
        pid = system.spawn(parked, machine=0)
        drain(system)

        manager = CrashRecoveryManager(system)
        manager.protect(pid)

        crashed = {"done": False}

        # Crash exactly at step 7: state installed at the destination,
        # the cleanup-complete message not yet delivered.
        def watch(record):
            if (
                not crashed["done"]
                and record.category == "migrate"
                and record.event == "step7-cleanup"
            ):
                crashed["done"] = True
                # Source executed step 7 but its cleanup-complete message
                # is still unsent/unacked; kill it right now.
                system.loop.call_soon(lambda: manager.crash(0, 3))

        system.tracer.subscribe(watch)
        system.kernel(0).migration.start(pid, 1)
        drain(system)
        assert crashed["done"]
        # The process lives exactly once, at the destination.
        hosts = [
            k.machine for k in system.kernels if pid in k.processes
        ]
        assert hosts == [1]
        from repro.kernel.process_state import ProcessStatus

        assert system.process_state(pid).status is not (
            ProcessStatus.IN_MIGRATION
        )
