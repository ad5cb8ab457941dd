"""Tests for the process manager (§2.3, §3.1)."""

import functools

from repro.servers.common import rpc
from repro.workloads.compute import compute_bound
from tests.conftest import drain, make_system


def pm_request(system, op, payload, machine=3, notify=True):
    """Drive one PM request from a scratch client; returns the reply."""
    out = {}

    def client(ctx):
        reply = yield from rpc(
            ctx, ctx.bootstrap["process_manager"], op, payload,
        )
        out.update(reply.payload)
        yield ctx.exit()

    system.spawn(client, machine=machine, name="pm-client")
    drain(system)
    return out


class TestCreateProcess:
    def test_create_on_explicit_machine(self):
        system = make_system()
        out = pm_request(
            system, "create-process",
            {"program": "compute", "machine": 2,
             "params": {"total": 1_000}, "name": "job"},
        )
        assert out["ok"]
        assert out["machine"] == 2
        assert out["pid"].creating_machine == 2

    def test_create_with_placement_via_memory_scheduler(self):
        system = make_system()
        out = pm_request(
            system, "create-process",
            {"program": "compute", "params": {"total": 1_000}},
        )
        assert out["ok"]
        assert out["machine"] in range(4)

    def test_unknown_program_reports_error(self):
        system = make_system()
        out = pm_request(
            system, "create-process", {"program": "nonsense"},
        )
        assert out["ok"] is False
        assert "unknown program" in out["error"]

    def test_created_process_actually_runs(self, board):
        system = make_system()
        # A by-name spawn carries no board, so bind one into the program
        # every kernel knows as "compute".
        for kernel in system.kernels:
            kernel.register_program(
                "compute", functools.partial(compute_bound, board=board)
            )
        out = pm_request(
            system, "create-process",
            {"program": "compute", "machine": 1,
             "params": {"total": 2_000, "key": "pm-spawned"}},
        )
        assert out["ok"]
        drain(system)
        assert len(board.get("pm-spawned")) == 1


class TestControl:
    def test_pm_migrate_moves_process(self):
        system = make_system(notify_process_manager=True)
        out = pm_request(
            system, "create-process",
            {"program": "pinger", "machine": 2,
             "params": {"rounds": 1_000, "gap": 5_000}},
        )
        pid = out["pid"]
        # No echo server exists, so the pinger parks in lookup — fine,
        # we only care that it can be moved.
        moved = pm_request(system, "migrate", {"pid": pid, "dest": 3})
        assert moved["ok"]
        drain(system)
        assert system.where_is(pid) == 3

    def test_pm_migrate_unknown_pid_fails(self):
        from repro.kernel.ids import ProcessId

        system = make_system()
        out = pm_request(
            system, "migrate", {"pid": ProcessId(0, 99), "dest": 1},
        )
        assert out["ok"] is False

    def test_pm_stop_and_start(self):
        from repro.kernel.process_state import ProcessStatus

        system = make_system(notify_process_manager=True)
        out = pm_request(
            system, "create-process",
            {"program": "pinger", "machine": 2,
             "params": {"rounds": 10_000, "gap": 100_000}},
        )
        pid = out["pid"]
        stopped = pm_request(system, "stop", {"pid": pid})
        assert stopped["ok"]
        drain(system)
        assert system.process_state(pid).status is ProcessStatus.SUSPENDED
        started = pm_request(system, "start", {"pid": pid})
        assert started["ok"]
        drain(system)
        assert system.process_state(pid).status is not ProcessStatus.SUSPENDED

    def test_pm_tracks_migrations_via_notifications(self):
        system = make_system(notify_process_manager=True)
        out = pm_request(
            system, "create-process",
            {"program": "pinger", "machine": 1,
             "params": {"rounds": 10_000, "gap": 100_000}},
        )
        pid = out["pid"]
        system.migrate(pid, 3)  # direct kernel-level move, not via PM
        drain(system)
        status = pm_request(system, "status", {})
        assert status["processes"][str(pid)]["machine"] == 3

    def test_status_lists_known_processes(self):
        system = make_system(notify_process_manager=True)
        out = pm_request(
            system, "create-process",
            {"program": "compute", "machine": 0,
             "params": {"total": 500}, "name": "listed"},
        )
        status = pm_request(system, "status", {})
        assert str(out["pid"]) in status["processes"]


class TestWhereIs:
    def test_where_is_via_user_reply(self):
        system = make_system(notify_process_manager=True)
        out = pm_request(
            system, "create-process",
            {"program": "pinger", "machine": 2,
             "params": {"rounds": 10_000, "gap": 100_000}},
        )
        pid = out["pid"]
        answer = pm_request(system, "where-is", {"pid": pid})
        assert answer["ok"] and answer["machine"] == 2

    def test_where_is_unknown_pid(self):
        from repro.kernel.ids import ProcessId

        system = make_system()
        answer = pm_request(system, "where-is", {"pid": ProcessId(9, 9)})
        assert answer["ok"] is False
