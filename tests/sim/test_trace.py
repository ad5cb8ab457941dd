"""Tests for the structured tracer."""

from repro.sim.trace import TraceRecord, Tracer


def make_tracer(**kwargs):
    clock = {"now": 0}
    tracer = Tracer(lambda: clock["now"], **kwargs)
    return tracer, clock


class TestRecording:
    def test_records_time_category_event_fields(self):
        tracer, clock = make_tracer()
        clock["now"] = 42
        tracer.record("kernel", "deliver", pid="p0.1")
        (record,) = tracer.records()
        assert record == TraceRecord(42, "kernel", "deliver", {"pid": "p0.1"})

    def test_filter_by_category(self):
        tracer, _ = make_tracer()
        tracer.record("net", "drop")
        tracer.record("kernel", "deliver")
        assert len(tracer.records("net")) == 1

    def test_filter_by_event(self):
        tracer, _ = make_tracer()
        tracer.record("net", "drop")
        tracer.record("net", "duplicate")
        assert len(tracer.records("net", "drop")) == 1

    def test_count(self):
        tracer, _ = make_tracer()
        for _ in range(3):
            tracer.record("migrate", "step1-freeze")
        assert tracer.count("migrate") == 3
        assert tracer.count("migrate", "step1-freeze") == 3
        assert tracer.count("migrate", "other") == 0

    def test_clear(self):
        tracer, _ = make_tracer()
        tracer.record("a", "b")
        tracer.clear()
        assert len(tracer) == 0

    def test_iteration(self):
        tracer, _ = make_tracer()
        tracer.record("a", "x")
        tracer.record("a", "y")
        assert [r.event for r in tracer] == ["x", "y"]


class TestFiltering:
    def test_disabled_category_not_collected(self):
        tracer, _ = make_tracer(enabled_categories=["kernel"])
        tracer.record("net", "drop")
        tracer.record("kernel", "deliver")
        assert len(tracer) == 1
        assert tracer.dropped == 1

    def test_enabled_accessor(self):
        tracer, _ = make_tracer(enabled_categories=["kernel"])
        assert tracer.enabled("kernel")
        assert not tracer.enabled("net")

    def test_all_enabled_by_default(self):
        tracer, _ = make_tracer()
        assert tracer.enabled("anything")

    def test_empty_category_list_disables_everything(self):
        # An explicitly empty allow-list is not "no filter".
        tracer, _ = make_tracer(enabled_categories=[])
        tracer.record("kernel", "deliver")
        assert len(tracer) == 0
        assert tracer.dropped == 1

    def test_dropped_counts_every_filtered_record(self):
        tracer, _ = make_tracer(enabled_categories=["kernel"])
        for _ in range(3):
            tracer.record("net", "drop")
        tracer.record("kernel", "deliver")
        assert tracer.dropped == 3
        assert len(tracer) == 1

    def test_unsubscribe_stops_delivery(self):
        tracer, _ = make_tracer()
        seen = []
        tracer.subscribe(seen.append)
        tracer.record("a", "x")
        tracer.unsubscribe(seen.append)
        tracer.record("a", "y")
        assert [r.event for r in seen] == ["x"]

    def test_unsubscribe_unknown_listener_is_a_no_op(self):
        tracer, _ = make_tracer()
        tracer.unsubscribe(lambda record: None)
        tracer.record("a", "x")
        assert len(tracer) == 1


class TestRingBuffer:
    def test_bounded_buffer_keeps_most_recent(self):
        tracer, _ = make_tracer(max_records=3)
        for i in range(5):
            tracer.record("a", f"e{i}")
        assert [r.event for r in tracer] == ["e2", "e3", "e4"]

    def test_bound_is_a_hard_ceiling(self):
        tracer, _ = make_tracer(max_records=10)
        for i in range(1000):
            tracer.record("a", f"e{i}")
            assert len(tracer) <= 10
        assert [r.event for r in tracer] == [
            f"e{i}" for i in range(990, 1000)
        ]

    def test_eviction_does_not_count_as_dropped(self):
        # ``dropped`` counts category-filtered records, not ring
        # evictions: evicted records *were* collected (and seen by
        # listeners), they just aged out of the buffer.
        tracer, _ = make_tracer(max_records=2)
        for i in range(5):
            tracer.record("a", f"e{i}")
        assert tracer.dropped == 0

    def test_listeners_see_records_evicted_from_the_ring(self):
        # A listener (the affinity policy's CommunicationMatrix) must see
        # every record even when the ring is tighter than the burst.
        tracer, _ = make_tracer(max_records=1)
        seen = []
        tracer.subscribe(seen.append)
        for i in range(4):
            tracer.record("a", f"e{i}")
        assert [r.event for r in seen] == ["e0", "e1", "e2", "e3"]
        assert len(tracer) == 1

    def test_filtered_records_do_not_consume_ring_slots(self):
        tracer, _ = make_tracer(
            max_records=2, enabled_categories=["keep"],
        )
        tracer.record("keep", "a")
        for _ in range(10):
            tracer.record("noise", "x")
        tracer.record("keep", "b")
        assert [r.event for r in tracer] == ["a", "b"]
        assert tracer.dropped == 10

    def test_unbounded_by_default(self):
        tracer, _ = make_tracer()
        for i in range(10_000):
            tracer.record("a", "e")
        assert len(tracer) == 10_000


class TestListeners:
    def test_subscriber_sees_records(self):
        tracer, _ = make_tracer()
        seen = []
        tracer.subscribe(seen.append)
        tracer.record("a", "x")
        assert len(seen) == 1 and seen[0].event == "x"

    def test_subscriber_not_called_for_filtered(self):
        tracer, _ = make_tracer(enabled_categories=["a"])
        seen = []
        tracer.subscribe(seen.append)
        tracer.record("b", "x")
        assert seen == []

    def test_str_rendering(self):
        tracer, clock = make_tracer()
        clock["now"] = 7
        tracer.record("cat", "evt", k=1)
        assert "cat.evt" in str(tracer.records()[0])
