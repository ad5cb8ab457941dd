"""Tests for the System facade."""

import pytest

from repro.core.config import SystemConfig
from repro.core.system import System
from repro.errors import ConfigError, UnknownProcessError
from repro.kernel.ids import ProcessAddress
from repro.servers.common import rpc
from tests.conftest import drain, make_bare_system, make_system


def parked(ctx):
    while True:
        yield ctx.receive()


class TestConstruction:
    def test_boots_figure_2_3_servers(self):
        system = make_system()
        names = {s.name for k in system.kernels for s in k.processes.values()}
        assert {
            "switchboard", "process_manager", "memory_scheduler",
            "command_interpreter", "disk_driver", "buffer_manager",
            "directory_manager", "file_system",
        } <= names

    def test_bare_system_has_no_processes(self):
        system = make_bare_system()
        assert all(not k.processes for k in system.kernels)

    def test_well_known_services_registered(self):
        system = make_system()
        for name in ("switchboard", "process_manager", "memory_scheduler",
                     "file_system", "command_interpreter"):
            assert name in system.well_known

    def test_invalid_config_rejected_at_construction(self):
        with pytest.raises(ConfigError):
            System(SystemConfig(machines=0))

    def test_more_than_one_shard_rejected(self):
        # System is the one-shard engine: it used to build one shard
        # silently.
        with pytest.raises(ConfigError, match="needs ShardedSystem"):
            System(SystemConfig(machines=4, shards=4))

    def test_kernel_accessor_bounds(self):
        system = make_bare_system(machines=2)
        with pytest.raises(ConfigError):
            system.kernel(5)


class TestOperations:
    def test_spawn_places_on_requested_machine(self):
        system = make_bare_system()
        pid = system.spawn(parked, machine=2, name="p")
        assert system.where_is(pid) == 2
        assert pid.creating_machine == 2

    def test_migrate_unknown_pid_raises(self):
        from repro.kernel.ids import ProcessId

        system = make_bare_system()
        with pytest.raises(UnknownProcessError):
            system.migrate(ProcessId(0, 42), 1)

    def test_ticket_fills_in_on_completion(self):
        system = make_bare_system()
        pid = system.spawn(parked, machine=0)
        ticket = system.migrate(pid, 1)
        assert ticket.initiated and not ticket.done
        drain(system)
        assert ticket.done and ticket.success
        assert ticket.record.dest == 1

    def test_migrate_callback_invoked(self):
        system = make_bare_system()
        pid = system.spawn(parked, machine=0)
        calls = []
        system.migrate(pid, 1, on_done=lambda ok, rec: calls.append(ok))
        drain(system)
        assert calls == [True]

    def test_run_until_pauses_and_resumes(self):
        system = make_bare_system()
        finished = {}

        def worker(ctx):
            yield ctx.compute(10_000)
            finished["at"] = ctx.now
            yield ctx.exit()

        system.spawn(worker, machine=0)
        system.run(until=5_000)
        assert "at" not in finished
        drain(system)
        assert finished["at"] >= 10_000

    def test_migration_records_aggregated_and_sorted(self):
        system = make_bare_system()
        first = system.spawn(parked, machine=0)
        second = system.spawn(parked, machine=1)
        system.migrate(first, 1)
        drain(system)
        system.migrate(second, 2)
        drain(system)
        records = system.migration_records()
        assert len(records) == 2
        assert records[0].pid == first
        assert records[0].started_at <= records[1].started_at

    def test_loads_snapshot_shape(self):
        system = make_bare_system(machines=2)
        loads = system.loads()
        assert set(loads) == {0, 1}
        assert {"run_queue", "memory_free", "processes"} <= set(loads[0])

    def test_is_alive_and_process_state(self):
        system = make_bare_system()

        def brief(ctx):
            yield ctx.exit()

        pid = system.spawn(brief, machine=0)
        assert system.is_alive(pid)
        drain(system)
        assert not system.is_alive(pid)
        assert system.process_state(pid) is None

    def test_total_forwarding_entries(self):
        system = make_bare_system()
        pid = system.spawn(parked, machine=0)
        assert system.total_forwarding_entries() == 0
        system.migrate(pid, 1)
        drain(system)
        assert system.total_forwarding_entries() == 1


def replier(ctx):
    while True:
        message = yield ctx.receive()
        reply_link = message.delivered_link_ids[0]
        yield ctx.send(reply_link, op="pong")
        yield ctx.destroy_link(reply_link)


class TestBudgetedRun:
    UNTIL = 60_000
    #: an action the caller schedules between the two runs, at a tick
    #: no event shares
    MARK_AT = 30_001

    def run(self, budget):
        """Round trips across one wire to UNTIL; a *budget* cuts the
        first run short, and the caller schedules its mark in between
        (ahead of time otherwise)."""
        system = make_bare_system(machines=2)
        server = system.spawn(replier, machine=0, name="replier")

        def caller(ctx):
            while True:
                yield from rpc(ctx, ctx.bootstrap["peer"], "ping")

        system.kernel(1).spawn(
            caller,
            name="caller",
            extra_links={"peer": ProcessAddress(server, 0)},
        )
        marks = []

        def mark():
            system.call_at(self.MARK_AT, 0, lambda: marks.append(system.now()))

        if budget is None:
            mark()
        else:
            fired = system.run(until=self.UNTIL, max_events=budget)
            assert fired == budget
            # An event due before UNTIL is still pending, so the clock
            # stays at the last event fired and the mark is not late.
            assert system.now() < self.MARK_AT
            mark()
        system.run(until=self.UNTIL)
        return (
            system.events_fired(),
            system.now(),
            marks,
            [kernel.stats for kernel in system.kernels],
            system.network.stats,
        )

    def test_a_budget_cut_run_resumes_to_an_uninterrupted_runs_counters(
        self,
    ):
        assert self.run(budget=25) == self.run(budget=None)


class TestRegistry:
    def test_registered_programs_spawnable_by_name(self):
        from repro.core.registry import lookup_program, registered_programs

        programs = registered_programs()
        assert "compute" in programs
        assert "pinger" in programs
        assert lookup_program("compute") is programs["compute"]

    def test_unknown_program_lookup_raises(self):
        from repro.core.registry import lookup_program

        with pytest.raises(ConfigError):
            lookup_program("no-such-program")

    def test_duplicate_registration_rejected(self):
        from repro.core.registry import register_program

        @register_program("test-dup-unique-name")
        def first(ctx):
            yield ctx.exit()

        with pytest.raises(ConfigError):
            @register_program("test-dup-unique-name")
            def second(ctx):
                yield ctx.exit()

    def test_reregistering_same_factory_is_fine(self):
        from repro.core.registry import register_program
        from repro.workloads.compute import compute_bound

        register_program("compute")(compute_bound)
