"""Migration across the whole status matrix.

Step 1 promises "No change is made to the recorded state of the process
(whether it is suspended, running, waiting for message, etc.)" — so every
status a process can be in must survive a migration and resume exactly
its semantics on the destination.  One test per status, same template.
"""

import pytest

from repro.kernel.ids import ProcessAddress
from repro.kernel.memory import MemoryImage
from repro.kernel.messages import MessageKind
from repro.kernel.ops import OP_START_PROCESS, OP_STOP_PROCESS
from repro.kernel.process_state import ProcessStatus
from tests.conftest import drain, make_bare_system


class TestStatusMatrix:
    def test_ready_queued_behind_a_hog(self):
        """A READY process stuck behind a CPU hog migrates and runs."""
        system = make_bare_system()
        done = {}

        def hog(ctx):
            yield ctx.compute(200_000)
            yield ctx.exit()

        def subject(ctx):
            yield ctx.compute(50_000)
            done["machine"] = ctx.machine
            done["at"] = ctx.now
            yield ctx.exit()

        system.spawn(hog, machine=0)
        pid = system.spawn(subject, machine=0)
        # The subject shares the CPU with the hog; move it to an idle box.
        system.loop.call_at(5_000, lambda: system.migrate(pid, 1))
        drain(system)
        assert done["machine"] == 1
        # Alone on machine 1, it finished well before sharing would allow
        # (interleaved with the hog it would need ~100ms of wall clock).
        assert done["at"] < 80_000

    def test_running_mid_quantum(self):
        system = make_bare_system()
        done = {}

        def subject(ctx):
            yield ctx.compute(50_000)
            done["machine"] = ctx.machine
            yield ctx.exit()

        pid = system.spawn(subject, machine=0)
        # Fire the migration while the subject holds the CPU.
        system.loop.call_at(500, lambda: system.migrate(pid, 2))
        drain(system)
        assert done["machine"] == 2

    def test_waiting_message(self):
        system = make_bare_system()
        done = {}

        def subject(ctx):
            msg = yield ctx.receive()
            done["op"] = msg.op
            done["machine"] = ctx.machine
            yield ctx.exit()

        pid = system.spawn(subject, machine=0)
        drain(system)
        system.migrate(pid, 1)
        drain(system)
        assert system.process_state(pid).status is ProcessStatus.WAITING_MESSAGE
        system.kernel(2).send_to_process(
            ProcessAddress(pid, 0), "wake", {}, kind=MessageKind.USER,
        )
        drain(system)
        assert done == {"op": "wake", "machine": 1}

    def test_sleeping(self):
        system = make_bare_system()
        done = {}

        def subject(ctx):
            yield ctx.sleep(60_000)
            done["machine"] = ctx.machine
            done["at"] = ctx.now
            yield ctx.exit()

        pid = system.spawn(subject, machine=0)
        system.loop.call_at(10_000, lambda: system.migrate(pid, 1))
        drain(system)
        assert done["machine"] == 1
        assert done["at"] >= 60_000

    def test_suspended(self):
        system = make_bare_system()
        done = {}

        def subject(ctx):
            yield ctx.compute(30_000)
            done["machine"] = ctx.machine
            yield ctx.exit()

        pid = system.spawn(subject, machine=0)
        addr = ProcessAddress(pid, 0)
        control = system.kernel(2)
        control.send_to_process(addr, OP_STOP_PROCESS, {},
                                deliver_to_kernel=True)
        system.run(until=10_000)
        assert system.process_state(pid).status is ProcessStatus.SUSPENDED
        system.migrate(pid, 1)
        drain(system)
        assert system.process_state(pid).status is ProcessStatus.SUSPENDED
        # Start it with the (stale) address; D2K chases it.
        control.send_to_process(addr, OP_START_PROCESS, {},
                                deliver_to_kernel=True)
        drain(system)
        assert done["machine"] == 1

    def test_waiting_transfer(self):
        """Covered in depth by test_datamove; here just the status
        invariant across the freeze."""
        from repro.kernel.links import DataArea, LinkAttribute

        system = make_bare_system(latency=3_000)
        done = {}

        def owner(ctx):
            link = yield ctx.create_link(
                LinkAttribute.DATA_READ, DataArea(0, 32_768),
            )
            yield ctx.send(ctx.bootstrap["holder"], op="area",
                          links=(link,))
            while True:
                yield ctx.receive()

        def holder(ctx):
            msg = yield ctx.receive()
            moved = yield ctx.move_data(
                msg.delivered_link_ids[0], "read", 0, 32_768,
            )
            done["moved"] = moved
            done["machine"] = ctx.machine
            yield ctx.exit()

        holder_pid = system.kernel(1).spawn(holder, name="holder")
        system.kernel(0).spawn(
            owner, name="owner", memory=MemoryImage.sized(data=32_768),
            extra_links={"holder": ProcessAddress(holder_pid, 1)},
        )
        system.loop.call_at(
            7_000, lambda: system.migrate(holder_pid, 2),
        )
        drain(system)
        assert done["moved"] == 32_768
        assert done["machine"] == 2

    @pytest.mark.parametrize("destination", [1, 2])
    def test_migration_is_destination_agnostic(self, destination):
        system = make_bare_system()
        done = {}

        def subject(ctx):
            yield ctx.compute(5_000)
            done["machine"] = ctx.machine
            yield ctx.exit()

        pid = system.spawn(subject, machine=0)
        system.migrate(pid, destination)
        drain(system)
        assert done["machine"] == destination
