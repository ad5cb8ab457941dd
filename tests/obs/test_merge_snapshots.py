"""Tests for cross-registry snapshot merging (sharded execution)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    merge_histogram_snapshots,
    merge_snapshots,
)

values = st.lists(
    st.floats(min_value=0.01, max_value=10_000.0,
              allow_nan=False, allow_infinity=False),
    max_size=40,
)


class TestMergeHistogramSnapshots:
    @given(streams=st.lists(values, min_size=1, max_size=4))
    def test_merge_equals_one_histogram_of_everything(self, streams):
        bounds = (1.0, 10.0, 100.0, 1000.0)
        parts = []
        union = Histogram("h", (), buckets=bounds)
        for stream in streams:
            part = Histogram("h", (), buckets=bounds)
            for value in stream:
                part.observe(value)
                union.observe(value)
            parts.append(part.freeze())
        merged = merge_histogram_snapshots(parts)
        expected = union.freeze()
        # sum is compared approximately: float addition order differs
        # between per-part and sequential accumulation (in the engine
        # observations are integer microseconds, which sum exactly).
        assert merged.sum == pytest.approx(expected.sum)
        assert merged == type(expected)(
            count=expected.count, sum=merged.sum, min=expected.min,
            max=expected.max, bucket_bounds=expected.bucket_bounds,
            bucket_counts=expected.bucket_counts,
        )

    def test_overflow_observations_survive(self):
        parts = []
        for value in (50.0, 70.0):  # beyond the last bound
            part = Histogram("h", (), buckets=(1.0, 2.0))
            part.observe(value)
            parts.append(part.freeze())
        merged = merge_histogram_snapshots(parts)
        assert merged.count == 2 and merged.sum == 120.0
        assert merged.bucket_counts == (0, 0)
        assert (merged.min, merged.max) == (50.0, 70.0)

    def test_zero_snapshots_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            merge_histogram_snapshots([])

    def test_mismatched_bounds_rejected(self):
        a = Histogram("h", (), buckets=(1.0, 2.0)).freeze()
        b = Histogram("h", (), buckets=(1.0, 3.0)).freeze()
        with pytest.raises(ValueError, match="bounds differ"):
            merge_histogram_snapshots([a, b])


class TestMergeSnapshots:
    def registry(self, machine, sends, latencies):
        registry = MetricsRegistry()
        registry.counter("net.sends", machine=machine).inc(sends)
        registry.counter("net.sends").inc(sends * 2)
        registry.gauge("queue.depth", machine=machine).set(machine + 1)
        histogram = registry.latency_histogram("latency_us")
        for value in latencies:
            histogram.observe(value)
        return registry

    def test_counters_sum_per_series(self):
        merged = merge_snapshots([
            self.registry(0, 5, []).snapshot(),
            self.registry(1, 7, []).snapshot(),
        ])
        assert merged.get("net.sends", machine=0) == 5
        assert merged.get("net.sends", machine=1) == 7
        assert merged.get("net.sends") == 24  # unlabelled series summed
        assert merged.total("net.sends") == 36

    def test_same_series_from_two_shards_adds_up(self):
        merged = merge_snapshots([
            self.registry(0, 5, []).snapshot(),
            self.registry(0, 3, []).snapshot(),
        ])
        assert merged.get("net.sends", machine=0) == 8

    def test_gauges_and_histograms_merge(self):
        merged = merge_snapshots([
            self.registry(0, 1, [10.0, 20.0]).snapshot(),
            self.registry(1, 1, [30.0]).snapshot(),
        ])
        assert merged.get("queue.depth", machine=1) == 2
        histogram = merged.histogram("latency_us")
        assert histogram.count == 3
        assert histogram.min == 10.0 and histogram.max == 30.0

    def test_merged_percentiles_match_single_registry(self):
        latencies = [float(v) for v in range(1, 101)]
        single = self.registry(0, 1, latencies).snapshot()
        merged = merge_snapshots([
            self.registry(0, 1, latencies[:50]).snapshot(),
            self.registry(0, 1, latencies[50:]).snapshot(),
        ])
        assert (
            merged.histogram("latency_us")
            == single.histogram("latency_us")
        )

    def test_empty_input_gives_empty_snapshot(self):
        merged = merge_snapshots([])
        assert merged.counters == {} and merged.histograms == {}
