"""Tests for the eight-step migration mechanism (paper §3.1)."""

import pytest

from repro.errors import MigrationError
from repro.kernel.ids import ProcessAddress, kernel_pid
from repro.kernel.messages import MessageKind
from repro.kernel.ops import (
    ADMIN_MESSAGES_PER_MIGRATION, ADMIN_PAYLOAD_BYTES, OP_MIGRATE_PROCESS
)
from repro.kernel.process_state import ProcessStatus
from tests.conftest import drain, make_bare_system


def parked(ctx):
    """A process that waits forever."""
    yield ctx.receive()
    yield ctx.exit()


class TestBasicMigration:
    def test_pid_is_preserved(self):
        system = make_bare_system()
        pid = system.spawn(parked, machine=0)
        system.migrate(pid, 2)
        drain(system)
        assert system.where_is(pid) == 2
        state = system.process_state(pid)
        assert state.pid == pid

    def test_exactly_nine_admin_messages(self):
        system = make_bare_system()
        pid = system.spawn(parked, machine=0)
        ticket = system.migrate(pid, 1)
        drain(system)
        assert ticket.success
        assert (
            ticket.record.admin_message_count == ADMIN_MESSAGES_PER_MIGRATION
        )

    def test_admin_payloads_in_6_to_12_byte_range(self):
        system = make_bare_system()
        pid = system.spawn(parked, machine=0)
        ticket = system.migrate(pid, 1)
        drain(system)
        for op, size in ticket.record.admin_messages:
            assert 6 <= size <= 12, f"{op} payload {size}B outside 6-12B"

    def test_three_data_moves(self):
        system = make_bare_system()
        pid = system.spawn(parked, machine=0)
        ticket = system.migrate(pid, 1)
        drain(system)
        assert set(ticket.record.segment_bytes) == {
            "resident", "swappable", "program"
        }
        assert ticket.record.segment_bytes["resident"] == 250

    def test_steps_traced_in_order(self):
        system = make_bare_system()
        pid = system.spawn(parked, machine=0)
        system.migrate(pid, 1)
        drain(system)
        steps = [
            r.event
            for r in system.tracer.records("migrate")
            if r.event.startswith("step")
        ]
        assert steps == [
            "step1-freeze",
            "step2-request",
            "step3-allocate",
            "step4-state",
            "step4-state",
            "step5-program",
            "step6-forward-pending",
            "step7-cleanup",
            "step8-restart",
        ]

    def test_memory_moves_between_machines(self):
        system = make_bare_system()
        pid = system.spawn(parked, machine=0)
        source_used = system.kernel(0).memory.used_bytes
        system.migrate(pid, 1)
        drain(system)
        assert system.kernel(0).memory.used_bytes < source_used
        assert system.kernel(1).memory.used_bytes > 0

    def test_forwarding_address_left_behind(self):
        system = make_bare_system()
        pid = system.spawn(parked, machine=0)
        system.migrate(pid, 2)
        drain(system)
        entry = system.kernel(0).forwarding.lookup(pid)
        assert entry is not None
        assert entry.machine == 2
        assert entry.size_bytes == 8

    def test_migration_counted_in_accounting(self):
        system = make_bare_system()
        pid = system.spawn(parked, machine=0)
        system.migrate(pid, 1)
        drain(system)
        assert system.process_state(pid).accounting.migrations == 1

    def test_residence_history_tracks_path(self):
        system = make_bare_system()
        pid = system.spawn(parked, machine=0)
        system.migrate(pid, 1)
        drain(system)
        system.migrate(pid, 2)
        drain(system)
        assert system.process_state(pid).residence_history == [0, 1, 2]


class TestStatusPreservation:
    def test_waiting_process_still_waiting_after_move(self):
        system = make_bare_system()
        pid = system.spawn(parked, machine=0)
        drain(system)  # let it block in Receive
        system.migrate(pid, 1)
        drain(system)
        assert (
            system.process_state(pid).status is ProcessStatus.WAITING_MESSAGE
        )

    def test_computing_process_finishes_on_destination(self):
        system = make_bare_system()
        finished = {}

        def cruncher(ctx):
            yield ctx.compute(20_000)
            finished["machine"] = ctx.machine
            finished["at"] = ctx.now
            yield ctx.exit()

        pid = system.spawn(cruncher, machine=0)
        system.loop.call_at(5_000, lambda: system.migrate(pid, 2))
        drain(system)
        assert finished["machine"] == 2
        assert finished["at"] >= 20_000

    def test_suspended_process_stays_suspended(self):
        system = make_bare_system()

        def victim(ctx):
            while True:
                yield ctx.compute(1_000)

        pid = system.spawn(victim, machine=0)
        system.kernel(1).send_to_process(
            ProcessAddress(pid, 0), "stop-process", {}, deliver_to_kernel=True
        )
        system.run(until=10_000)
        assert system.process_state(pid).status is ProcessStatus.SUSPENDED
        system.migrate(pid, 2)
        drain(system)
        assert system.process_state(pid).status is ProcessStatus.SUSPENDED
        assert system.where_is(pid) == 2

    def test_sleeping_process_wakes_on_destination(self):
        system = make_bare_system()
        woke = {}

        def sleeper(ctx):
            yield ctx.sleep(30_000)
            woke["machine"] = ctx.machine
            woke["at"] = ctx.now
            yield ctx.exit()

        pid = system.spawn(sleeper, machine=0)
        system.loop.call_at(5_000, lambda: system.migrate(pid, 1))
        drain(system)
        assert woke["machine"] == 1
        assert woke["at"] >= 30_000

    def test_receive_timeout_survives_migration(self):
        system = make_bare_system()
        result = {}

        def waiter(ctx):
            msg = yield ctx.receive(timeout=40_000)
            result["msg"] = msg
            result["machine"] = ctx.machine
            yield ctx.exit()

        pid = system.spawn(waiter, machine=0)
        system.loop.call_at(5_000, lambda: system.migrate(pid, 1))
        drain(system)
        assert result["msg"] is None
        assert result["machine"] == 1


class TestPendingMessages:
    def test_queued_messages_forwarded_with_process(self):
        system = make_bare_system()
        received = []

        final = {}

        def busy_receiver(ctx):
            yield ctx.compute(10_000)  # stay busy while messages pile up
            for _ in range(5):
                msg = yield ctx.receive()
                received.append(msg.payload)
            final["machine"] = ctx.machine
            yield ctx.exit()

        pid = system.spawn(busy_receiver, machine=0)

        def blast():
            kernel = system.kernel(1)
            for i in range(5):
                kernel.send_to_process(
                    ProcessAddress(pid, 0), "data", i, kind=MessageKind.USER
                )

        system.loop.call_at(1_000, blast)
        ticket = system.migrate(pid, 2)
        drain(system)
        assert sorted(received) == [0, 1, 2, 3, 4]
        assert final["machine"] == 2

    def test_pending_count_recorded(self):
        system = make_bare_system()

        def idle(ctx):
            yield ctx.compute(5_000)
            while True:
                yield ctx.receive()

        pid = system.spawn(idle, machine=0)
        kernel = system.kernel(0)
        drain(system)
        # Park three messages in its queue while frozen: freeze first.
        state = system.process_state(pid)
        assert state.status is ProcessStatus.WAITING_MESSAGE
        # Deliver messages, then freeze before it consumes them all: do
        # the opposite — freeze by migrating a process with a stuffed
        # queue.  Stuff the queue directly via local sends from a peer
        # that never yields the CPU to the receiver.
        ticket = system.migrate(pid, 1)
        from repro.kernel.messages import MessageKind

        for i in range(3):
            kernel.send_to_process(
                ProcessAddress(pid, 0), "late", i, kind=MessageKind.USER
            )
        drain(system)
        assert ticket.success
        assert ticket.record.pending_forwarded >= 0  # counted, not lost
        state = system.process_state(pid)
        assert state is not None


class TestValidationAndRefusal:
    def test_migrating_kernel_rejected(self):
        system = make_bare_system()
        with pytest.raises(MigrationError):
            system.kernel(0).migration.start(kernel_pid(0), 1)

    def test_unknown_destination_rejected(self):
        system = make_bare_system()
        pid = system.spawn(parked, machine=0)
        with pytest.raises(MigrationError):
            system.kernel(0).migration.start(pid, 99)

    def test_noop_migration_to_same_machine(self):
        system = make_bare_system()
        pid = system.spawn(parked, machine=0)
        assert system.kernel(0).migration.start(pid, 0) is False

    def test_double_migration_request_ignored(self):
        system = make_bare_system()
        pid = system.spawn(parked, machine=0)
        assert system.kernel(0).migration.start(pid, 1) is True
        assert system.kernel(0).migration.start(pid, 2) is False
        drain(system)
        assert system.where_is(pid) == 1

    def test_policy_refusal_restores_process(self):
        system = make_bare_system()
        system.kernel(1).accept_migration = lambda pid, size: False
        pid = system.spawn(parked, machine=0)
        drain(system)
        ticket = system.migrate(pid, 1)
        drain(system)
        assert ticket.success is False
        assert ticket.record.refusal_reason == "destination policy"
        assert system.where_is(pid) == 0
        state = system.process_state(pid)
        assert state.status is ProcessStatus.WAITING_MESSAGE

    def test_refusal_uses_two_admin_messages(self):
        system = make_bare_system()
        system.kernel(1).accept_migration = lambda pid, size: False
        pid = system.spawn(parked, machine=0)
        ticket = system.migrate(pid, 1)
        drain(system)
        assert ticket.record.admin_message_count == 2

    def test_memory_pressure_refusal(self):
        system = make_bare_system()
        system.kernel(1).memory.capacity_bytes = 100  # nothing fits
        pid = system.spawn(parked, machine=0)
        ticket = system.migrate(pid, 1)
        drain(system)
        assert ticket.success is False
        assert ticket.record.refusal_reason == "no memory"
        assert system.where_is(pid) == 0

    def test_process_still_works_after_refusal(self):
        system = make_bare_system()
        system.kernel(1).accept_migration = lambda pid, size: False
        log = []

        def worker(ctx):
            msg = yield ctx.receive()
            log.append(msg.op)
            yield ctx.exit()

        pid = system.spawn(worker, machine=0)
        ticket = system.migrate(pid, 1)
        drain(system)
        assert ticket.success is False
        from repro.kernel.messages import MessageKind

        system.kernel(2).send_to_process(
            ProcessAddress(pid, 0), "after-refusal", {}, kind=MessageKind.USER
        )
        drain(system)
        assert log == ["after-refusal"]


class TestSelfMigrationAndDirectives:
    def test_self_requested_migration(self):
        system = make_bare_system()
        trail = {}

        def nomad(ctx):
            trail["before"] = ctx.machine
            yield ctx.request_migration(2)
            yield ctx.compute(1_000)
            trail["after"] = ctx.machine
            yield ctx.exit()

        system.spawn(nomad, machine=0)
        drain(system)
        assert trail == {"before": 0, "after": 2}

    def test_migrate_directive_via_d2k(self):
        system = make_bare_system()
        pid = system.spawn(parked, machine=0)
        system.kernel(2).send_to_process(
            ProcessAddress(pid, 0),
            OP_MIGRATE_PROCESS,
            {"dest": 1},
            deliver_to_kernel=True,
        )
        drain(system)
        assert system.where_is(pid) == 1

    def test_migrate_directive_follows_moved_process(self):
        """A directive sent with a stale address chases the process via
        its forwarding address — control follows the process (§2.2)."""
        system = make_bare_system(machines=4)
        pid = system.spawn(parked, machine=0)
        system.migrate(pid, 1)
        drain(system)
        # Directive still addressed to machine 0 (stale).
        system.kernel(3).send_to_process(
            ProcessAddress(pid, 0),
            OP_MIGRATE_PROCESS,
            {"dest": 2},
            deliver_to_kernel=True,
        )
        drain(system)
        assert system.where_is(pid) == 2

    def test_directive_during_migration_is_held_then_applied(self):
        system = make_bare_system(machines=4)
        pid = system.spawn(parked, machine=0)
        system.migrate(pid, 1)  # freeze + start moving
        # While in migration, a second directive arrives at the source.
        system.kernel(0).send_to_process(
            ProcessAddress(pid, 0),
            OP_MIGRATE_PROCESS,
            {"dest": 3},
            deliver_to_kernel=True,
        )
        drain(system)
        # Held during the first move, executed on restart: ends up on 3.
        assert system.where_is(pid) == 3


class TestChains:
    def test_chained_forwarding_addresses(self):
        system = make_bare_system(machines=4)
        pid = system.spawn(parked, machine=0)
        for dest in (1, 2, 3):
            system.migrate(pid, dest)
            drain(system)
        assert system.kernel(0).forwarding.lookup(pid).machine == 1
        assert system.kernel(1).forwarding.lookup(pid).machine == 2
        assert system.kernel(2).forwarding.lookup(pid).machine == 3
        assert system.where_is(pid) == 3

    def test_migrating_back_supersedes_forwarding_address(self):
        system = make_bare_system()
        pid = system.spawn(parked, machine=0)
        system.migrate(pid, 1)
        drain(system)
        system.migrate(pid, 0)
        drain(system)
        assert system.where_is(pid) == 0
        assert system.kernel(0).forwarding.lookup(pid) is None

    def test_forwarding_gc_on_death(self):
        system = make_bare_system(machines=4)

        def mortal(ctx):
            while True:
                msg = yield ctx.receive()
                if msg.op == "die":
                    yield ctx.exit()

        pid = system.spawn(mortal, machine=0)
        for dest in (1, 2, 3):
            system.migrate(pid, dest)
            drain(system)
        assert len(system.kernel(0).forwarding) == 1
        from repro.kernel.messages import MessageKind

        system.kernel(3).send_to_process(
            ProcessAddress(pid, 3), "die", {}, kind=MessageKind.USER
        )
        drain(system)
        # Backward pointers collected every forwarding address.
        assert system.total_forwarding_entries() == 0
