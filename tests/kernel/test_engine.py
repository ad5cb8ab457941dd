"""Tests for the kernel's syscall engine: programs as generators."""

from repro.errors import InvalidLinkError, KernelError
from repro.kernel.ids import ProcessAddress
from repro.kernel.links import DataArea, LinkAttribute
from repro.kernel.ops import OP_MIGRATE_PROCESS, OP_STOP_PROCESS
from repro.kernel.process_state import ProcessStatus
from tests.conftest import drain, make_bare_system


class TestLifecycle:
    def test_program_runs_and_exits(self):
        system = make_bare_system()
        seen = []

        def program(ctx):
            seen.append("ran")
            yield ctx.exit(0)

        pid = system.spawn(program, machine=0)
        drain(system)
        assert seen == ["ran"]
        assert not system.is_alive(pid)

    def test_falling_off_the_end_terminates(self):
        system = make_bare_system()

        def program(ctx):
            yield ctx.compute(10)

        pid = system.spawn(program, machine=0)
        drain(system)
        assert not system.is_alive(pid)

    def test_exit_code_traced(self):
        system = make_bare_system()

        def program(ctx):
            yield ctx.exit(42)

        system.spawn(program, machine=0)
        drain(system)
        (record,) = system.tracer.records("kernel", "exit")
        assert record.fields["code"] == 42

    def test_repro_error_crashes_process(self):
        system = make_bare_system()

        def program(ctx):
            yield ctx.send(999)  # invalid link id

        pid = system.spawn(program, machine=0)
        drain(system)
        assert not system.is_alive(pid)
        (record,) = system.tracer.records("kernel", "exit")
        assert record.fields["code"] == 1

    def test_program_can_catch_kernel_errors(self):
        system = make_bare_system()
        caught = []

        def program(ctx):
            try:
                yield ctx.send(999)
            except InvalidLinkError as exc:
                caught.append(exc)
            yield ctx.exit()

        system.spawn(program, machine=0)
        drain(system)
        assert len(caught) == 1

    def test_yielding_non_syscall_raises_in_program(self):
        system = make_bare_system()
        caught = []

        def program(ctx):
            try:
                yield "not a syscall"
            except KernelError as exc:
                caught.append(str(exc))
            yield ctx.exit()

        system.spawn(program, machine=0)
        drain(system)
        assert caught and "not a Syscall" in caught[0]


class TestCompute:
    def test_compute_advances_time(self):
        system = make_bare_system()
        finished = {}

        def program(ctx):
            yield ctx.compute(5_000)
            finished["at"] = ctx.now
            yield ctx.exit()

        system.spawn(program, machine=0)
        drain(system)
        assert finished["at"] >= 5_000

    def test_compute_contends_for_cpu(self):
        system = make_bare_system()
        finished = {}

        def make_program(tag):
            def program(ctx):
                yield ctx.compute(5_000)
                finished[tag] = ctx.now
                yield ctx.exit()
            return program

        system.spawn(make_program("a"), machine=0)
        system.spawn(make_program("b"), machine=0)
        drain(system)
        # Two 5ms jobs sharing one CPU need >= 10ms of wall clock.
        assert max(finished.values()) >= 10_000

    def test_parallel_machines_do_not_contend(self):
        system = make_bare_system()
        finished = {}

        def make_program(tag):
            def program(ctx):
                yield ctx.compute(5_000)
                finished[tag] = ctx.now
                yield ctx.exit()
            return program

        system.spawn(make_program("a"), machine=0)
        system.spawn(make_program("b"), machine=1)
        drain(system)
        assert max(finished.values()) < 7_000

    def test_round_robin_interleaves_quanta(self):
        system = make_bare_system()
        order = []

        def make_program(tag):
            def program(ctx):
                yield ctx.compute(2_000)
                order.append(tag)
                yield ctx.exit()
            return program

        system.spawn(make_program("a"), machine=0)
        system.spawn(make_program("b"), machine=0)
        drain(system)
        # With a 1ms quantum both 2ms jobs finish within one quantum of
        # each other rather than strictly serially.
        assert sorted(order) == ["a", "b"]

    def test_cpu_accounting(self):
        system = make_bare_system()

        def program(ctx):
            yield ctx.compute(3_000)
            yield ctx.receive()  # park forever

        pid = system.spawn(program, machine=0)
        drain(system)
        state = system.process_state(pid)
        assert state.accounting.cpu_time >= 3_000


class TestSleepAndTimers:
    def test_sleep_blocks_without_cpu(self):
        system = make_bare_system()
        waked = {}

        def sleeper(ctx):
            yield ctx.sleep(10_000)
            waked["at"] = ctx.now
            yield ctx.exit()

        def worker(ctx):
            yield ctx.compute(5_000)
            waked["worker"] = ctx.now
            yield ctx.exit()

        system.spawn(sleeper, machine=0)
        system.spawn(worker, machine=0)
        drain(system)
        assert waked["at"] >= 10_000
        assert waked["worker"] < 10_000  # sleeper did not hold the CPU

    def test_receive_timeout_returns_none(self):
        system = make_bare_system()
        result = {}

        def program(ctx):
            msg = yield ctx.receive(timeout=2_000)
            result["msg"] = msg
            result["at"] = ctx.now
            yield ctx.exit()

        system.spawn(program, machine=0)
        drain(system)
        assert result["msg"] is None
        assert result["at"] >= 2_000

    def test_receive_timeout_cancelled_by_arrival(self):
        system = make_bare_system()
        result = {}

        def receiver(ctx):
            msg = yield ctx.receive(timeout=50_000)
            result["op"] = msg.op if msg else None
            yield ctx.exit()

        def sender(ctx, peer):
            link = ctx.bootstrap["peer"]
            yield ctx.send(link, op="hello")
            yield ctx.exit()

        receiver_pid = system.spawn(receiver, machine=0)
        kernel = system.kernel(1)
        kernel.spawn(
            lambda ctx: sender(ctx, receiver_pid),
            name="sender",
            extra_links={"peer": ProcessAddress(receiver_pid, 0)},
        )
        drain(system)
        assert result["op"] == "hello"
        assert system.loop.now < 50_000


class TestLinks:
    def test_create_link_points_to_self(self):
        system = make_bare_system()
        captured = {}

        def program(ctx):
            link_id = yield ctx.create_link()
            captured["link_id"] = link_id
            info = yield ctx.get_info()
            captured["links"] = info["link_count"]
            yield ctx.exit()

        pid = system.spawn(program, machine=0)
        drain(system)
        assert captured["link_id"] > 0
        assert captured["links"] == 1

    def test_create_link_with_bad_data_area_fails(self):
        system = make_bare_system()
        caught = []

        def program(ctx):
            try:
                yield ctx.create_link(
                    LinkAttribute.DATA_READ, DataArea(0, 10**9)
                )
            except Exception as exc:
                caught.append(type(exc).__name__)
            yield ctx.exit()

        system.spawn(program, machine=0)
        drain(system)
        assert caught == ["LinkAccessError"]

    def test_dup_and_destroy(self):
        system = make_bare_system()
        counts = []

        def program(ctx):
            link_id = yield ctx.create_link()
            dup_id = yield ctx.dup_link(link_id)
            info = yield ctx.get_info()
            counts.append(info["link_count"])
            yield ctx.destroy_link(dup_id)
            info = yield ctx.get_info()
            counts.append(info["link_count"])
            yield ctx.exit()

        system.spawn(program, machine=0)
        drain(system)
        assert counts == [2, 1]


class TestGetInfoAndYield:
    def test_get_info_reports_pid_and_machine(self):
        system = make_bare_system()
        captured = {}

        def program(ctx):
            info = yield ctx.get_info()
            captured.update(info)
            yield ctx.exit()

        pid = system.spawn(program, machine=2)
        drain(system)
        assert captured["pid"] == pid
        assert captured["machine"] == 2
        assert captured["migrations"] == 0

    def test_yield_lets_peer_run(self):
        system = make_bare_system()
        order = []

        def polite(ctx):
            order.append("polite-start")
            yield ctx.yield_cpu()
            order.append("polite-end")
            yield ctx.exit()

        def other(ctx):
            order.append("other")
            yield ctx.exit()

        system.spawn(polite, machine=0)
        system.spawn(other, machine=0)
        drain(system)
        assert order.index("other") < order.index("polite-end")


class TestSelfDirectedControl:
    """A DELIVERTOKERNEL message a process sends to itself is executed
    while its Send is being serviced; the status it leaves must stand,
    not be overwritten by the Send's requeue."""

    def test_a_process_can_stop_itself(self):
        system = make_bare_system()
        after = []

        def program(ctx):
            control = yield ctx.create_link(LinkAttribute.DELIVER_TO_KERNEL)
            yield ctx.send(control, op=OP_STOP_PROCESS)
            after.append(ctx.now)
            yield ctx.exit()

        pid = system.spawn(program, machine=0)
        drain(system)
        assert after == []
        assert system.process_state(pid).status is ProcessStatus.SUSPENDED

    def test_a_process_can_migrate_itself(self):
        system = make_bare_system()
        seen = []

        def program(ctx):
            control = yield ctx.create_link(LinkAttribute.DELIVER_TO_KERNEL)
            yield ctx.send(control, op=OP_MIGRATE_PROCESS, payload={"dest": 2})
            yield ctx.compute(100)
            seen.append(ctx.machine)
            yield ctx.exit()

        system.spawn(program, machine=0)
        drain(system)
        assert seen == [2]
        assert [r.success for r in system.migration_records()] == [True]
