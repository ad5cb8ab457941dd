"""Miscellaneous kernel behaviours: unknown ops, trace filtering,
stats accessors, and defensive paths."""
from repro.core import cluster as cluster_module

from repro.kernel.ids import ProcessAddress, ProcessId, kernel_address
from repro.kernel.messages import Message, MessageKind
from tests.conftest import drain, make_bare_system


def parked(ctx):
    while True:
        yield ctx.receive()


class TestUnknownOps:
    def test_unknown_kernel_control_is_traced_not_fatal(self):
        system = make_bare_system()
        system.kernel(0).send_control(
            1, "made-up-op", {}, payload_bytes=6, category="control"
        )
        drain(system)
        assert system.tracer.count("kernel", "unknown-control") == 1

    def test_unknown_d2k_op_is_traced_not_fatal(self):
        system = make_bare_system()
        pid = system.spawn(parked, machine=0)
        system.kernel(1).send_to_process(
            ProcessAddress(pid, 0), "made-up-d2k", {}, deliver_to_kernel=True
        )
        drain(system)
        assert system.tracer.count("kernel", "unknown-d2k") == 1
        assert system.is_alive(pid)

    def test_undeliverable_link_update_is_dropped_silently(self):
        """A link update whose target kernel has no such process must
        not cascade into NACK loops."""
        from repro.kernel.linkupdate import LinkUpdate, build_link_update

        system = make_bare_system()
        update = build_link_update(
            forwarder=kernel_address(0),
            update=LinkUpdate(ProcessId(1, 99), ProcessId(0, 5), 2),
            sender_kernel=kernel_address(1),
        )
        system.kernel(0).route_message(update)
        drain(system)
        assert system.tracer.count("linkupd", "no-process") == 1
        assert all(k.stats.nacks_sent == 0 for k in system.kernels)


class TestTraceFiltering:
    def test_trace_categories_config_filters(self):
        system = make_bare_system(trace_categories=("migrate",))
        pid = system.spawn(parked, machine=0)
        system.migrate(pid, 1)
        drain(system)
        categories = {r.category for r in system.tracer}
        assert categories == {"migrate"}
        assert system.tracer.dropped > 0

    def test_trace_ring_buffer_bound(self, monkeypatch):
        monkeypatch.setattr(cluster_module, "MAX_TRACE_RECORDS", 10)
        system = make_bare_system()
        for _ in range(5):
            pid = system.spawn(parked, machine=0)
        drain(system)
        assert len(system.tracer) <= 10


class TestStatsAndRepr:
    def test_kernel_repr(self):
        system = make_bare_system()
        assert "machine=0" in repr(system.kernel(0))

    def test_system_repr(self):
        system = make_bare_system()
        assert "machines=3" in repr(system)

    def test_local_vs_remote_send_stats(self):
        system = make_bare_system()
        a = system.spawn(parked, machine=0)
        kernel = system.kernel(0)
        kernel.send_to_process(
            ProcessAddress(a, 0), "local", {}, kind=MessageKind.USER
        )
        kernel.send_to_process(kernel_address(1).moved_to(1), "remote", {})
        drain(system)
        assert kernel.stats.messages_sent_local >= 1
        assert kernel.stats.messages_sent_remote >= 1


class TestDefensivePaths:
    def test_message_to_kernel_of_crashless_machine_handled(self):
        """Kernel-addressed message with an unregistered op on a healthy
        machine must not produce undeliverable handling."""
        system = make_bare_system()
        message = Message(
            dest=kernel_address(1),
            sender=kernel_address(0),
            kind=MessageKind.CONTROL,
            op="nonsense",
            payload_bytes=6,
        )
        system.kernel(0).route_message(message)
        drain(system)
        assert system.kernel(1).stats.undeliverable == 0

    def test_spawn_beyond_memory_capacity_raises(self):
        import pytest

        from repro.errors import MemoryError_
        from repro.kernel.memory import MemoryImage

        system = make_bare_system(memory_capacity=10_000)
        with pytest.raises(MemoryError_):
            system.kernel(0).spawn(
                parked, memory=MemoryImage.sized(code=50_000, data=0, stack=0)
            )

    def test_terminate_is_idempotent(self):
        system = make_bare_system()

        def brief(ctx):
            yield ctx.exit()

        pid = system.spawn(brief, machine=0)
        drain(system)
        # Second terminate attempt: the pid is gone; UnknownProcessError.
        import pytest

        from repro.errors import UnknownProcessError

        with pytest.raises(UnknownProcessError):
            system.kernel(0).terminate(pid)
