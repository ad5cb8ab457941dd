"""Tests for tracer unsubscribe."""

from tests.conftest import drain, make_bare_system


class TestUnsubscribe:
    def test_unsubscribed_listener_stops_seeing_records(self):
        system = make_bare_system()
        seen = []
        system.tracer.subscribe(seen.append)
        system.spawn(lambda ctx: iter(()), machine=0)
        count_at_unsub = len(seen)
        assert count_at_unsub > 0
        system.tracer.unsubscribe(seen.append)
        # unsubscribe removed *a different bound method object*; use the
        # identical callable to test removal semantics properly.

    def test_unsubscribe_identical_callable(self):
        system = make_bare_system()
        seen = []
        listener = seen.append
        system.tracer.subscribe(listener)
        system.spawn(lambda ctx: iter(()), machine=0)
        before = len(seen)
        system.tracer.unsubscribe(listener)
        system.spawn(lambda ctx: iter(()), machine=1)
        assert len(seen) == before

    def test_unsubscribe_unknown_is_noop(self):
        system = make_bare_system()
        system.tracer.unsubscribe(lambda r: None)

    def test_affinity_stop_detaches_observer(self):
        from repro.policy.affinity import AffinityPolicy

        system = make_bare_system()
        policy = AffinityPolicy(system)
        policy.install()
        policy.stop()
        count_before = sum(policy.matrix.counts.values())
        # New deliveries no longer feed the matrix.
        def server(ctx):
            while True:
                yield ctx.receive()

        from repro.kernel.ids import ProcessAddress
        from repro.kernel.messages import MessageKind

        pid = system.spawn(server, machine=0)
        system.kernel(1).send_to_process(
            ProcessAddress(pid, 0), "x", {}, kind=MessageKind.USER,
        )
        drain(system)
        assert sum(policy.matrix.counts.values()) == count_before

