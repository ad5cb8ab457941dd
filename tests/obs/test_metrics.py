"""Tests for the metrics registry: instruments, labels, snapshots."""

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    LATENCY_BUCKETS_US,
    Histogram,
    MetricsRegistry,
    render_key,
)


class TestCounter:
    def test_inc_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(4)
        assert registry.snapshot().total("c") == 5

    def test_inc_rejects_negative(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_set_total_rejects_decrease(self):
        counter = MetricsRegistry().counter("c")
        counter.set_total(10)
        with pytest.raises(ValueError):
            counter.set_total(9)

    def test_set_total_idempotent_at_same_value(self):
        counter = MetricsRegistry().counter("c")
        counter.set_total(10)
        counter.set_total(10)
        assert counter.value == 10

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c", machine=1) is registry.counter(
            "c", machine=1
        )
        assert registry.counter("c", machine=1) is not registry.counter(
            "c", machine=2
        )

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        a = registry.counter("c", machine=1, op="x")
        b = registry.counter("c", op="x", machine=1)
        assert a is b


class TestGauge:
    def test_gauge_can_go_negative(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(5)
        gauge.set(-3)
        assert gauge.value == -3


class TestHistogram:
    def test_tracks_count_sum_min_max(self):
        histogram = MetricsRegistry().histogram("h")
        for value in (5, 1, 9):
            histogram.observe(value)
        snap = histogram.freeze()
        assert snap.count == 3
        assert snap.sum == 15
        assert snap.min == 1
        assert snap.max == 9
        assert snap.mean == 5

    def test_empty_histogram(self):
        snap = MetricsRegistry().histogram("h").freeze()
        assert snap.count == 0
        assert snap.mean is None
        assert snap.min is None and snap.max is None

    def test_cumulative_buckets(self):
        histogram = Histogram("h", (), buckets=(10, 100, 1000))
        for value in (5, 50, 500, 5000):
            histogram.observe(value)
        snap = histogram.freeze()
        # <=10: 1, <=100: 2, <=1000: 3; 5000 only in the implicit +Inf.
        assert snap.bucket_counts == (1, 2, 3)
        assert snap.count == 4

    def test_boundary_value_lands_in_its_bucket(self):
        histogram = Histogram("h", (), buckets=(10, 100))
        histogram.observe(10)
        assert histogram.freeze().bucket_counts == (1, 1)

    def test_bounds_are_sorted_and_deduplicated(self):
        histogram = Histogram("h", (), buckets=(100, 10, 100))
        assert histogram.bounds == (10, 100)

    def test_empty_bucket_list_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", (), buckets=())

    def test_default_buckets_cover_wide_range(self):
        assert DEFAULT_BUCKETS[0] == 4
        assert DEFAULT_BUCKETS[-1] >= 1_000_000

    def test_custom_buckets_only_apply_on_creation(self):
        registry = MetricsRegistry()
        first = registry.histogram("h", buckets=(1, 2))
        again = registry.histogram("h")
        assert again is first
        assert again.bounds == (1, 2)


class TestLatencyHistogram:
    def test_registry_get_or_create(self):
        registry = MetricsRegistry()
        first = registry.latency_histogram("workload.request_latency_us")
        again = registry.latency_histogram("workload.request_latency_us")
        assert again is first
        assert first.bounds == LATENCY_BUCKETS_US

    def test_shares_namespace_with_plain_histograms(self):
        registry = MetricsRegistry()
        plain = registry.histogram("h", buckets=(1, 2))
        assert registry.latency_histogram("h") is plain

    def test_disabled_registry_hands_out_null(self):
        registry = MetricsRegistry(enabled=False)
        instrument = registry.latency_histogram("h")
        instrument.observe(5)
        assert registry.snapshot().histogram("h") is None

    def test_percentiles_surface_in_to_dict(self):
        registry = MetricsRegistry()
        registry.latency_histogram("h").observe(100)
        document = registry.snapshot().to_dict()
        rendered = document["histograms"]["h"]
        assert rendered["count"] == 1
        assert rendered["p50"] == rendered["p95"] == rendered["p99"]
        assert 100 <= rendered["p50"] <= 100 * 2**0.25


class TestSnapshot:
    def test_total_sums_across_label_sets(self):
        registry = MetricsRegistry()
        registry.counter("c", machine=0).inc(2)
        registry.counter("c", machine=1).inc(3)
        assert registry.snapshot().total("c") == 5

    def test_get_single_series(self):
        registry = MetricsRegistry()
        registry.counter("c", machine=0).inc(2)
        snap = registry.snapshot()
        assert snap.get("c", machine=0) == 2
        assert snap.get("c", machine=9) == 0
        assert snap.get("absent") == 0

    def test_by_label(self):
        registry = MetricsRegistry()
        registry.counter("c", machine=0, op="a").inc(1)
        registry.counter("c", machine=0, op="b").inc(2)
        registry.counter("c", machine=1, op="a").inc(4)
        snap = registry.snapshot()
        assert snap.by_label("c", "machine") == {0: 3, 1: 4}
        assert snap.by_label("c", "op") == {"a": 5, "b": 2}

    def test_histogram_lookup(self):
        registry = MetricsRegistry()
        registry.histogram("h", machine=2).observe(7)
        snap = registry.snapshot()
        assert snap.histogram("h", machine=2).count == 1
        assert snap.histogram("h", machine=3) is None
        assert snap.histogram("absent") is None

    def test_snapshot_is_frozen_copy(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        snap = registry.snapshot()
        counter.inc(100)
        assert snap.total("c") == 1

    def test_to_dict_renders_flat_keys(self):
        registry = MetricsRegistry()
        registry.counter("kernel.forwards", machine=0).inc(3)
        registry.gauge("sim.now_us").set(42)
        registry.histogram("h", buckets=(10,)).observe(5)
        document = registry.snapshot().to_dict()
        assert document["counters"] == {"kernel.forwards{machine=0}": 3}
        assert document["gauges"] == {"sim.now_us": 42}
        assert document["histograms"]["h"]["count"] == 1
        assert document["histograms"]["h"]["buckets"] == {"10": 1}

    def test_render_key(self):
        assert render_key("n", ()) == "n"
        assert render_key("n", (("a", 1), ("b", "x"))) == "n{a=1,b=x}"


class TestCollectors:
    def test_collector_runs_on_snapshot(self):
        registry = MetricsRegistry()
        external = {"count": 7}

        def publish(reg):
            reg.counter("mirrored").set_total(external["count"])

        registry.register_collector(publish)
        assert registry.snapshot().total("mirrored") == 7
        external["count"] = 9
        assert registry.snapshot().total("mirrored") == 9

    def test_multiple_collectors_all_run(self):
        registry = MetricsRegistry()
        registry.register_collector(
            lambda reg: reg.counter("a").set_total(1)
        )
        registry.register_collector(
            lambda reg: reg.counter("b").set_total(2)
        )
        snap = registry.snapshot()
        assert snap.total("a") == 1 and snap.total("b") == 2


class TestHistogramDelta:
    """delta_since: the windowed view an SLO balancer samples."""

    def test_window_contains_only_new_observations(self):
        histogram = Histogram("lat", (), buckets=LATENCY_BUCKETS_US)
        for value in (100, 200, 400):
            histogram.observe(value)
        first = histogram.freeze()
        for value in (800, 1_600):
            histogram.observe(value)
        window = histogram.freeze().delta_since(first)
        assert window.count == 2
        assert window.sum == 800 + 1_600
        # The window's percentile reads off only the new observations.
        assert window.percentile(0.5) >= 800
        # An unchanged histogram yields an empty window.
        empty = histogram.freeze().delta_since(histogram.freeze())
        assert empty.count == 0
        assert empty.percentile(0.99) is None

    def test_windows_partition_the_lifetime_counts(self):
        histogram = Histogram("lat", (), buckets=LATENCY_BUCKETS_US)
        snapshots = [histogram.freeze()]
        for batch in ((10, 20), (30,), (40, 50, 60)):
            for value in batch:
                histogram.observe(value)
            snapshots.append(histogram.freeze())
        windows = [
            later.delta_since(earlier)
            for earlier, later in zip(snapshots, snapshots[1:])
        ]
        assert [w.count for w in windows] == [2, 1, 3]
        assert sum(w.sum for w in windows) == histogram.freeze().sum

    def test_min_max_keep_the_lifetime_envelope(self):
        histogram = Histogram("lat", (), buckets=LATENCY_BUCKETS_US)
        histogram.observe(1)
        first = histogram.freeze()
        histogram.observe(1_000_000)
        window = histogram.freeze().delta_since(first)
        assert window.min == 1
        assert window.max == 1_000_000

    def test_mismatched_buckets_rejected(self):
        small = Histogram("a", (), buckets=(1, 2)).freeze()
        large = Histogram("b", (), buckets=(1, 2, 3)).freeze()
        with pytest.raises(ValueError):
            large.delta_since(small)

    def test_newer_snapshot_required(self):
        histogram = Histogram("lat", (), buckets=LATENCY_BUCKETS_US)
        old = histogram.freeze()
        histogram.observe(5)
        new = histogram.freeze()
        with pytest.raises(ValueError):
            old.delta_since(new)


class TestHistogramByLabel:
    def test_series_keyed_by_one_label(self):
        registry = MetricsRegistry()
        registry.latency_histogram("lat", domain="east").observe(10)
        registry.latency_histogram("lat", domain="west").observe(20)
        registry.latency_histogram("lat").observe(30)  # unlabelled
        by_domain = registry.snapshot().histogram_by_label("lat", "domain")
        assert set(by_domain) == {"east", "west"}
        assert by_domain["east"].count == 1
        assert by_domain["west"].sum == 20

    def test_absent_metric_yields_empty_mapping(self):
        registry = MetricsRegistry()
        assert registry.snapshot().histogram_by_label("nope", "x") == {}
