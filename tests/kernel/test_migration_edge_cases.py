"""Edge cases of the migration mechanism beyond the happy path."""

from repro.kernel.ids import ProcessAddress
from repro.kernel.memory import MemoryImage, SegmentKind
from repro.kernel.messages import MessageKind
from repro.kernel.process_state import ProcessStatus
from tests.conftest import drain, make_bare_system


def parked(ctx):
    while True:
        yield ctx.receive()


class TestConcurrentMigrations:
    def test_two_processes_swap_machines_simultaneously(self):
        """Crossing migrations: A goes 0->1 while B goes 1->0."""
        system = make_bare_system()
        a = system.spawn(parked, machine=0, name="a")
        b = system.kernel(1).spawn(parked, name="b")
        ticket_a = system.migrate(a, 1)
        ticket_b = system.migrate(b, 0)
        drain(system)
        assert ticket_a.success and ticket_b.success
        assert system.where_is(a) == 1
        assert system.where_is(b) == 0

    def test_many_processes_to_same_destination(self):
        system = make_bare_system()
        pids = [system.spawn(parked, machine=0) for _ in range(5)]
        tickets = [system.migrate(pid, 2) for pid in pids]
        drain(system)
        assert all(t.success for t in tickets)
        assert all(system.where_is(pid) == 2 for pid in pids)
        # Each used its own nine admin messages.
        for ticket in tickets:
            assert ticket.record.admin_message_count == 9

    def test_pipeline_of_migrations_same_process(self):
        """A second directive issued the moment the first finishes."""
        system = make_bare_system(machines=4)
        pid = system.spawn(parked, machine=0)

        hops = []

        def chain(success, record):
            hops.append(record.dest)
            if record.dest < 3:
                system.kernel(record.dest).migration.start(
                    pid, record.dest + 1, on_done=chain
                )

        system.kernel(0).migration.start(pid, 1, on_done=chain)
        drain(system)
        assert hops == [1, 2, 3]
        assert system.where_is(pid) == 3


class TestLinksInTransit:
    def test_enclosed_link_in_pending_message_survives_migration(self):
        """"Links may be either in some process's link table or in a
        message that is enroute to a process" — a link enclosed in a
        message that is *queued during the migration* must still work
        after delivery on the destination."""
        system = make_bare_system(machines=4)
        echoed = []

        def origin(ctx):  # will receive through the in-transit link
            msg = yield ctx.receive()
            echoed.append((msg.op, msg.sender.pid))
            yield ctx.exit()

        def mover(ctx):  # migrates with the link-bearing message queued
            msg = yield ctx.receive()
            link_to_origin = msg.delivered_link_ids[0]
            yield ctx.send(link_to_origin, op="used-after-move")
            yield ctx.exit()

        origin_pid = system.spawn(origin, machine=0, name="origin")
        mover_pid = system.kernel(1).spawn(parked_free := mover, name="mover")

        # Freeze the mover, then send it a message carrying a link.
        ticket = system.migrate(mover_pid, 2)

        def seeder(ctx):
            yield ctx.send(
                ctx.bootstrap["mover"],
                op="carry",
                links=(ctx.bootstrap["origin"],),
            )
            yield ctx.exit()

        system.kernel(3).spawn(
            seeder,
            name="seeder",
            extra_links={
                "mover": ProcessAddress(mover_pid, 1),
                "origin": ProcessAddress(origin_pid, 0),
            },
        )
        drain(system)
        assert ticket.success
        assert echoed == [("used-after-move", mover_pid)]


class TestSwappedMemory:
    def test_migrating_process_with_swapped_segments(self):
        """Step 5: "the kernel move data operation handles reading or
        writing of swapped out memory" — a partially swapped process
        migrates whole."""
        system = make_bare_system()
        pid = system.spawn(
            parked,
            machine=0,
            memory=MemoryImage.sized(code=4_000, data=8_000, stack=1_000),
        )
        system.kernel(0).memory.swap_out(pid, SegmentKind.DATA)
        state_before = system.process_state(pid)
        assert state_before.memory.resident_bytes == 5_000
        ticket = system.migrate(pid, 1)
        drain(system)
        assert ticket.success
        state = system.process_state(pid)
        # The full image (swapped included) was transferred and the swap
        # flags travel with the segments.
        assert ticket.record.segment_bytes["program"] == 13_000
        assert state.memory.segment(SegmentKind.DATA).swapped_out
        assert state.memory.resident_bytes == 5_000

    def test_migration_reservation_released_on_refusal(self):
        system = make_bare_system()
        system.kernel(1).accept_migration = lambda pid, size: False
        pid = system.spawn(parked, machine=0)
        before = system.kernel(1).memory.used_bytes
        ticket = system.migrate(pid, 1)
        drain(system)
        assert ticket.success is False
        assert system.kernel(1).memory.used_bytes == before

    def test_memory_accounting_balanced_after_round_trip(self):
        system = make_bare_system()
        pid = system.spawn(parked, machine=0)
        baseline_0 = system.kernel(0).memory.used_bytes
        baseline_1 = system.kernel(1).memory.used_bytes
        system.migrate(pid, 1)
        drain(system)
        system.migrate(pid, 0)
        drain(system)
        assert system.kernel(0).memory.used_bytes == baseline_0
        assert system.kernel(1).memory.used_bytes == baseline_1


class TestSuspensionInteractions:
    def test_stop_during_compute_preserves_remaining_work(self):
        system = make_bare_system()
        finished = {}

        def cruncher(ctx):
            yield ctx.compute(20_000)
            finished["at"] = ctx.now
            yield ctx.exit()

        pid = system.spawn(cruncher, machine=0)
        addr = ProcessAddress(pid, 0)
        kernel = system.kernel(1)
        system.loop.call_at(
            5_000,
            lambda: kernel.send_to_process(
                addr, "stop-process", {}, deliver_to_kernel=True
            ),
        )
        system.run(until=50_000)
        assert "at" not in finished
        state = system.process_state(pid)
        assert state.status is ProcessStatus.SUSPENDED
        # Progress made so far is preserved; restart finishes the rest.
        kernel.send_to_process(
            addr, "start-process", {}, deliver_to_kernel=True
        )
        drain(system)
        assert finished["at"] >= 20_000

    def test_migrate_then_stop_then_start_across_machines(self):
        system = make_bare_system()
        finished = {}

        def cruncher(ctx):
            yield ctx.compute(30_000)
            finished["machine"] = ctx.machine
            yield ctx.exit()

        pid = system.spawn(cruncher, machine=0)
        addr = ProcessAddress(pid, 0)  # stays stale on purpose
        control = system.kernel(2)
        system.loop.call_at(2_000, lambda: system.migrate(pid, 1))
        system.loop.call_at(
            20_000,
            lambda: control.send_to_process(
                addr, "stop-process", {}, deliver_to_kernel=True
            ),
        )
        system.loop.call_at(
            40_000,
            lambda: control.send_to_process(
                addr, "start-process", {}, deliver_to_kernel=True
            ),
        )
        drain(system)
        assert finished["machine"] == 1


class TestExitDuringTraffic:
    def test_exit_with_queued_messages_is_clean(self):
        system = make_bare_system()

        def eager_exit(ctx):
            yield ctx.compute(5_000)
            yield ctx.exit()

        pid = system.spawn(eager_exit, machine=0)
        kernel = system.kernel(1)
        for i in range(5):
            kernel.send_to_process(
                ProcessAddress(pid, 0), "noise", i, kind=MessageKind.USER
            )
        drain(system)
        assert not system.is_alive(pid)
        assert pid in system.kernel(0).dead
