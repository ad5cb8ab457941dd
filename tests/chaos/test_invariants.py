"""Survivor invariants: clean systems pass, seeded damage is named."""

import pytest

from repro.chaos.invariants import (
    check_chain_collapse,
    check_exactly_once,
    check_memory_accounting,
    check_no_stranded_forwarding,
    check_quiescence,
    check_recovery_state,
    survivor_invariants,
)
from repro.kernel.ids import ProcessAddress, ProcessId
from repro.kernel.messages import MessageKind
from repro.policy.recovery import CrashRecoveryManager
from repro.workloads.closed_loop import ClientPool, ClosedLoopConfig
from repro.workloads.pingpong import echo_server
from tests.conftest import make_system

FAKE = ProcessId(creating_machine=0, local_id=999)


def parked(ctx):
    while True:
        yield ctx.receive()


def run_echo_workload(system, clients=2, requests=3):
    system.spawn(lambda ctx: echo_server(ctx), machine=1, name="echo")
    pool = ClientPool(
        system,
        ClosedLoopConfig(clients=clients, requests_per_client=requests),
    )
    pool.install()
    system.run(max_events=5_000_000)
    return pool


class TestCleanSystem:
    def test_quiesced_workload_passes_everything(self):
        system = make_system(machines=4)
        pool = run_echo_workload(system)
        assert survivor_invariants(system, pool=pool) == []

    def test_real_forwarding_chain_is_clean(self):
        system = make_system(machines=4)
        pid = system.spawn(parked, machine=1, name="mover")
        system.migrate(pid, 3)
        system.run(max_events=1_000_000)
        # A genuine post-migration entry on machine 1 pointing at 3.
        assert system.kernel(1).forwarding.lookup(pid) is not None
        assert check_chain_collapse(system) == []
        assert check_no_stranded_forwarding(system) == []


class TestSeededViolations:
    def test_dangling_chain_detected(self):
        system = make_system(machines=4)
        system.kernel(0).forwarding.install(FAKE, 2, now=0)
        problems = check_chain_collapse(system)
        assert len(problems) == 1
        assert "dangles at machine 2" in problems[0]

    def test_cyclic_chain_detected(self):
        system = make_system(machines=4)
        system.kernel(0).forwarding.install(FAKE, 1, now=0)
        system.kernel(1).forwarding.install(FAKE, 0, now=0)
        problems = check_chain_collapse(system)
        assert any("cycles" in p for p in problems)

    def test_residency_ends_the_walk_before_cycle_check(self):
        system = make_system(machines=4)
        pid = system.spawn(parked, machine=1, name="resident")
        # Entry pointing at the process's own machine: moot, not a loop
        # (the delivering kernel consults its process table first).
        system.kernel(1).forwarding.install(pid, 1, now=0)
        assert check_chain_collapse(system) == []

    def test_stranded_entry_for_dead_process_detected(self):
        system = make_system(machines=4)
        system.kernel(2).forwarding.install(FAKE, 0, now=0)
        problems = check_no_stranded_forwarding(system)
        assert len(problems) == 1
        assert f"dead {FAKE}" in problems[0]

    def test_incomplete_quota_detected(self):
        system = make_system(machines=4)
        pool = run_echo_workload(system)
        pool.request_counts[0] -= 1
        problems = check_exactly_once(pool)
        assert any("completed 2/3 requests" in p for p in problems)

    def test_reply_mismatch_detected(self):
        system = make_system(machines=4)
        pool = run_echo_workload(system)
        pool.mismatches += 1
        problems = check_exactly_once(pool)
        assert any("did not echo" in p for p in problems)

    def test_orphaned_recovery_state_detected(self):
        system = make_system(machines=4)
        recovery = CrashRecoveryManager(system)
        pid = system.spawn(parked, machine=2, name="victim")
        recovery.protect(pid)
        system.run(until=5_000)
        recovery.crash(2, executor=3)
        system.run(max_events=1_000_000)
        assert check_recovery_state(recovery) == []
        # Vanish the recovered process without an exit: orphaned.
        system.kernel(3).processes.pop(pid)
        system.kernel(3).memory.detach(pid)
        problems = check_recovery_state(recovery)
        assert any("orphaned" in p for p in problems)

    @pytest.mark.survivor_violation
    def test_memory_leak_detected(self):
        system = make_system(machines=4)
        pid = system.spawn(parked, machine=2, name="leak")
        system.run(until=5_000)
        # Drop the process table entry but keep its allocation.
        del system.kernel(2).processes[pid]
        problems = check_memory_accounting(system)
        assert len(problems) == 1
        assert "machine 2 memory accounting is off" in problems[0]

    def test_in_flight_traffic_fails_quiescence(self):
        system = make_system(machines=4)
        pid = system.spawn(parked, machine=1, name="target")
        system.run(until=2_000)
        system.kernel(0).send_to_process(
            ProcessAddress(pid, 1), "probe", {}, kind=MessageKind.USER,
        )
        problems = check_quiescence(system)
        assert len(problems) == 1
        assert "not quiescent" in problems[0]
