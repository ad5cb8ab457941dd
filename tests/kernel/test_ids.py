"""Tests for process ids and addresses (paper Figure 2-1)."""

import copy
import pickle

import pytest

from repro.errors import SimulationError
from repro.kernel.ids import (
    KERNEL_LOCAL_ID,
    LOCAL_ID_LIMIT,
    PROCESS_ADDRESS_BYTES,
    PROCESS_ID_BYTES,
    ProcessAddress,
    ProcessId,
    kernel_address,
    kernel_pid,
)
from tests.conftest import make_bare_system


def parked(ctx):
    while True:
        yield ctx.receive()


class TestProcessId:
    def test_equality_is_by_value(self):
        assert ProcessId(1, 2) == ProcessId(1, 2)
        assert ProcessId(1, 2) != ProcessId(2, 2)

    def test_hashable(self):
        assert len({ProcessId(0, 1), ProcessId(0, 1), ProcessId(0, 2)}) == 2

    def test_immutable(self):
        with pytest.raises(AttributeError):
            ProcessId(0, 1).local_id = 5

    def test_kernel_pid_reserved_local_id(self):
        assert kernel_pid(3) == ProcessId(3, KERNEL_LOCAL_ID)
        assert kernel_pid(3).is_kernel
        assert not ProcessId(3, 1).is_kernel

    def test_str_forms(self):
        assert str(ProcessId(2, 5)) == "p2.5"
        assert str(kernel_pid(2)) == "kernel[2]"

    def test_orders_as_the_pair(self):
        pids = [ProcessId(1, 3), ProcessId(0, LOCAL_ID_LIMIT - 1),
                ProcessId(1, 1)]
        assert sorted(pids) == sorted(
            pids, key=lambda p: (p.creating_machine, p.local_id)
        )

    def test_pickle_and_copy_keep_the_pid(self):
        pid = ProcessId(3, 7)
        for back in (pickle.loads(pickle.dumps(pid)), copy.deepcopy(pid)):
            assert type(back) is ProcessId and back == pid
            assert (back.creating_machine, back.local_id) == (3, 7)

    def test_spawn_refuses_a_local_id_that_cannot_be_packed(self):
        kernel = make_bare_system().kernel(1)
        kernel._local_id_counter = LOCAL_ID_LIMIT - 2
        last = kernel.spawn(parked)
        assert (last.creating_machine, last.local_id) == (
            1, LOCAL_ID_LIMIT - 1,
        )
        with pytest.raises(SimulationError, match="machine 1 "):
            kernel.spawn(parked)

    def test_wire_sizes_match_paper_scale(self):
        # A pid is creating machine + local id; an address adds the
        # last-known machine.  These sizes feed the 6-12B admin payloads.
        assert PROCESS_ID_BYTES == 4
        assert PROCESS_ADDRESS_BYTES == 6


class TestProcessAddress:
    def test_moved_to_changes_only_location(self):
        address = ProcessAddress(ProcessId(0, 1), 0)
        moved = address.moved_to(2)
        assert moved.pid == address.pid
        assert moved.last_known_machine == 2
        assert address.last_known_machine == 0  # original untouched

    def test_moved_to_same_machine_returns_self(self):
        address = ProcessAddress(ProcessId(0, 1), 3)
        assert address.moved_to(3) is address

    def test_kernel_address(self):
        address = kernel_address(4)
        assert address.pid.is_kernel
        assert address.last_known_machine == 4

    def test_str(self):
        assert str(ProcessAddress(ProcessId(1, 2), 3)) == "p1.2@3"
