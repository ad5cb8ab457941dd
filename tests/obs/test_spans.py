"""Tests for migration spans, the view of the kernels' cost records."""

from repro.core import cluster as cluster_module
from repro.kernel.ids import ProcessAddress, ProcessId
from repro.kernel.messages import MessageKind
from repro.obs.spans import migration_spans
from repro.stats.migration_cost import PROTOCOL_EVENTS, MigrationCostRecord
from repro.stats.timeline import migration_timeline
from tests.conftest import drain, make_bare_system

FULL_STEPS = [1, 2, 3, 4, 4, 5, 6, 7, 8]


def parked(ctx):
    while True:
        yield ctx.receive()


def migrated(source=0, dest=2, **overrides):
    """A bare system that migrated one parked process; (system, ticket)."""
    system = make_bare_system(**overrides)
    pid = system.spawn(parked, machine=source)
    ticket = system.migrate(pid, dest)
    drain(system)
    return system, ticket


def chat_with_stale_address(system, pid, stale):
    """A fresh process on machine 2 sends to *pid* at its old machine,
    so the message is forwarded and the sender's link updated."""

    def chatty(ctx):
        yield ctx.send(ctx.bootstrap["target"], op="hi")
        yield ctx.receive(timeout=50_000)
        yield ctx.exit()

    system.kernel(2).spawn(
        chatty, name="chatty",
        extra_links={"target": ProcessAddress(pid, stale)},
    )
    drain(system)


def hand_record(**fields):
    """A record as the source kernel would hold it mid-protocol."""
    defaults = dict(
        pid=ProcessId(0, 1), source=0, dest=2, started_at=100,
        saved_status="ready",
    )
    return MigrationCostRecord(**{**defaults, **fields})


class TestSpanAssembly:
    def test_full_migration_becomes_one_ok_span(self):
        system, ticket = migrated()
        (span,) = system.spans()
        assert span.status == "ok"
        assert span.pid == str(ticket.pid)
        assert span.source == 0 and span.dest == 2
        assert span.start == ticket.record.started_at
        assert span.end == ticket.record.completed_at
        assert span.duration == ticket.record.duration > 0

    def test_span_contains_all_eight_steps_in_order(self):
        system, _ = migrated()
        (span,) = system.spans()
        assert span.steps() == FULL_STEPS
        times = span.event_times()
        assert times == sorted(times)
        assert [e.name for e in span.events] == [
            "FREEZE", "REQUEST", "ALLOCATE", "SEGMENT_MOVE", "ACCEPT",
            "SEGMENT_STREAM", "SEGMENT_MOVE", "SEGMENT_STREAM",
            "SEGMENT_MOVE", "SEGMENT_STREAM", "TRANSFER_COMPLETE",
            "FORWARD_PENDING", "CLEANUP", "RESTART", "RESTART_ACK",
        ]

    def test_span_events_are_the_kernel_trace_records(self):
        # The record is the one account: every protocol event of the
        # span is exactly the ``migrate`` record the kernel traced.
        system = make_bare_system()
        system.kernel(1).accept_migration = lambda p, s: False
        moved = system.spawn(parked, machine=0)
        refused = system.spawn(parked, machine=2)
        system.migrate(moved, 2)
        system.migrate(refused, 1)
        drain(system)
        traced = sorted(
            (
                (r.fields["pid"], r.time, PROTOCOL_EVENTS[r.event][0],
                 {k: v for k, v in r.fields.items() if k != "pid"})
                for r in system.tracer.records("migrate")
                if r.event in PROTOCOL_EVENTS
            ),
            key=lambda row: (row[0], row[1]),
        )
        viewed = sorted(
            (
                (span.pid, e.time, e.name,
                 {k: v for k, v in e.fields.items() if k != "step"})
                for span in system.spans()
                for e in span.events
            ),
            key=lambda row: (row[0], row[1]),
        )
        assert viewed == traced
        assert len(viewed) == 15 + 3

    def test_span_name(self):
        system, _ = migrated()
        (span,) = system.spans()
        assert span.name == "migrate p0.1 0->2"

    def test_refused_migration_closes_span_as_refused(self):
        record = hand_record(
            success=False, completed_at=120, refusal_reason="no memory",
        )
        (span,) = migration_spans([record])
        assert span.status == "refused"
        assert span.end == 120
        assert span.steps() == [1, 2]
        assert span.events[-1].name == "REFUSED"
        assert span.events[-1].fields == {"reason": "no memory"}

    def test_open_span_is_in_flight(self):
        system = make_bare_system()
        pid = system.spawn(parked, machine=0)
        system.migrate(pid, 2)
        system.run(until=1_000)  # past step 4, short of step 8
        (span,) = system.spans()
        assert span.status == "in-flight"
        assert span.end is None and span.duration is None
        assert span.steps()[:3] == [1, 2, 3] and 8 not in span.steps()
        assert system.migration_records() == []
        drain(system)
        (span,) = system.spans()
        assert span.status == "ok" and span.steps() == FULL_STEPS

    def test_partial_trace_ignored(self, monkeypatch):
        # A tracer that keeps one record still gives the full protocol
        # span: the steps come from the kernel's record, not the trace.
        monkeypatch.setattr(cluster_module, "MAX_TRACE_RECORDS", 1)
        system, ticket = migrated()
        assert len(system.tracer) == 1
        (span,) = system.spans()
        assert span.status == "ok"
        assert span.steps() == FULL_STEPS
        assert span.duration == ticket.record.duration

    def test_non_step_migrate_events_ignored(self):
        # not-here / already-moving / noop requests never open a span.
        system = make_bare_system()
        pid = system.spawn(parked, machine=0)
        assert not system.kernel(1).migration.start(pid, 2)  # not here
        assert not system.migrate(pid, 0).initiated  # noop
        assert system.migrate(pid, 2).initiated
        assert not system.migrate(pid, 1).initiated  # already moving
        drain(system)
        assert [s.name for s in system.spans()] == ["migrate p0.1 0->2"]
        assert system.tracer.count("migrate", "not-here") == 1

    def test_concurrent_migrations_tracked_separately(self):
        system = make_bare_system()
        a = system.spawn(parked, machine=0)
        b = system.spawn(parked, machine=1)
        system.migrate(a, 2)
        system.migrate(b, 2)
        system.run(until=1_000)
        spans = {s.pid: s for s in system.spans()}
        assert set(spans) == {str(a), str(b)}
        assert {s.status for s in spans.values()} == {"in-flight"}
        drain(system)
        spans = {s.pid: s for s in system.spans()}
        assert [spans[str(a)].source, spans[str(b)].source] == [0, 1]
        assert all(s.steps() == FULL_STEPS for s in spans.values())

    def test_sequential_migrations_of_same_pid(self):
        system, ticket = migrated()
        system.migrate(ticket.pid, 1)
        drain(system)
        spans = [s for s in system.spans() if s.pid == str(ticket.pid)]
        assert len(spans) == 2
        assert [s.source for s in spans] == [0, 2]
        assert spans[0].end <= spans[1].start

    def test_every_mapped_event_has_a_name(self):
        steps = []
        for event, (name, step, label) in PROTOCOL_EVENTS.items():
            assert name
            assert step is None or 1 <= step <= 8
            assert (label is None) == (step is None)
            if step is not None:
                assert label.startswith(f"{step} ")
                steps.append(step)
        assert sorted(steps) == list(range(1, 9))


class TestChildEvents:
    def test_forward_hits_attach_to_latest_span(self):
        system, ticket = migrated()
        system.migrate(ticket.pid, 1)
        drain(system)
        system.kernel(1).send_to_process(
            ProcessAddress(ticket.pid, 0), "probe", {},
            kind=MessageKind.USER,
        )
        drain(system)
        first, latest = system.spans()
        assert first.child_events() == []
        children = latest.child_events()
        assert {e.name for e in children} == {"FORWARD_HOP"}
        assert all(e.time > latest.end for e in children)
        assert latest.event_times() == sorted(latest.event_times())

    def test_link_updates_attach_by_target(self):
        system, ticket = migrated(dest=1)
        chat_with_stale_address(system, ticket.pid, stale=0)
        (span,) = system.spans()
        names = [e.name for e in span.child_events()]
        assert names[0] == "FORWARD_HOP"
        assert "LINK_UPDATE_SENT" in names
        assert "LINK_UPDATE_APPLIED" in names
        assert span.steps() == FULL_STEPS

    def test_child_events_for_unknown_pid_ignored(self):
        system, ticket = migrated(dest=1)
        chat_with_stale_address(system, ticket.pid, stale=0)
        assert system.tracer.count("forward", "hit") > 0
        # No record, no span: trace records alone never make one ...
        assert migration_spans([], system.tracer) == []
        # ... and a bystander's span collects none of them.
        bystander = hand_record(pid=ProcessId(1, 7), started_at=0)
        (span,) = migration_spans([bystander], system.tracer)
        assert span.child_events() == []


class TestAgainstRealSystem:
    def test_system_span_matches_migration_ticket(self):
        system = make_bare_system()
        pid = system.spawn(parked, machine=0)
        ticket = system.migrate(pid, 2)
        drain(system)
        assert ticket.success
        (span,) = system.spans()
        assert span.status == "ok"
        assert span.pid == str(pid)
        assert span.source == 0 and span.dest == 2
        assert span.steps() == FULL_STEPS
        assert span.duration == ticket.record.duration

    def test_refusal_on_real_system(self):
        # The destination declines (destination autonomy, paper §3.2) —
        # the span records the refusal.
        system = make_bare_system()
        system.kernel(1).accept_migration = lambda p, s: False
        pid = system.spawn(parked, machine=0)
        ticket = system.migrate(pid, 1)
        drain(system)
        assert not ticket.success
        (span,) = [s for s in system.spans() if s.pid == str(pid)]
        assert span.status == "refused"
        assert span.end is not None
        assert span.events[-1].fields == {"reason": "destination policy"}

    def test_spans_and_timeline_need_no_tracing(self):
        system, ticket = migrated(trace_categories=())
        assert len(system.tracer) == 0
        (span,) = system.spans()
        assert span.status == "ok"
        assert span.steps() == FULL_STEPS
        assert len(span.events) == 15
        assert span.duration == ticket.record.duration
        entries = migration_timeline(system.spans())
        assert [e.label.split()[0] for e in entries] == [
            str(step) for step in FULL_STEPS
        ]
        gauges = system.metrics.snapshot().to_dict()["gauges"]
        assert gauges["sim.migration_spans"] == 1
