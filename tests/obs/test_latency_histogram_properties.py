"""Property tests for the latency histogram math.

Three contracts the latency pipeline rests on:

- **bracketing** — a percentile read off the log-spaced buckets is
  within one bucket's relative width (a factor of ``2 ** 0.25``) of the
  true sample percentile, never below it;
- **mergeability** — ``merge_histogram_snapshots([a, b])`` is
  indistinguishable from having recorded the concatenated stream
  (latencies are integer microseconds, so float summation is exact and
  the snapshots compare equal);
- **conservation** — observations never vanish across ``delta_since``
  windows: the windows merge back to the one-shot histogram.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    LATENCY_BUCKETS_US,
    Histogram,
    merge_histogram_snapshots,
)

#: adjacent latency bucket bounds differ by exactly this factor
BUCKET_RATIO = 2 ** 0.25

#: integer-microsecond latencies inside the bucket grid's range
latencies = st.lists(
    st.integers(min_value=1, max_value=2**26 - 1),
    min_size=1,
    max_size=200,
)

QUANTILES = (0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0)

BOUNDED = settings(max_examples=200, deadline=None)


def fresh() -> Histogram:
    return Histogram("latency", (), buckets=LATENCY_BUCKETS_US)


def true_percentile(samples: list[int], q: float) -> int:
    """The exact rank-rule percentile: ceil(q * n)-th smallest sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


class TestBracketing:
    @BOUNDED
    @given(samples=latencies, q=st.sampled_from(QUANTILES))
    def test_percentile_brackets_true_sample_percentile(self, samples, q):
        histogram = fresh()
        for value in samples:
            histogram.observe(value)
        snap = histogram.freeze()
        truth = true_percentile(samples, q)
        estimate = snap.percentile(q)
        assert truth <= estimate <= truth * BUCKET_RATIO

    @BOUNDED
    @given(samples=latencies)
    def test_extremes_are_exact(self, samples):
        histogram = fresh()
        for value in samples:
            histogram.observe(value)
        snap = histogram.freeze()
        assert snap.min == min(samples)
        assert snap.max == max(samples)
        assert snap.percentile(1.0) <= snap.max
        assert snap.percentile(0.0) >= snap.min

    def test_empty_histogram_has_no_percentiles(self):
        snap = fresh().freeze()
        assert snap.percentile(0.5) is None
        assert snap.p50 is None and snap.p95 is None and snap.p99 is None

    def test_out_of_range_quantile_rejected(self):
        snap = fresh().freeze()
        with pytest.raises(ValueError):
            snap.percentile(1.5)
        with pytest.raises(ValueError):
            snap.percentile(-0.1)

    def test_observation_beyond_last_bound_degrades_to_max(self):
        histogram = fresh()
        histogram.observe(2**30)  # above the 2**26 grid
        snap = histogram.freeze()
        assert snap.percentile(0.5) == 2**30

    def test_bucket_grid_is_log_spaced_and_increasing(self):
        for lo, hi in zip(LATENCY_BUCKETS_US, LATENCY_BUCKETS_US[1:]):
            assert hi > lo
            assert hi / lo == pytest.approx(BUCKET_RATIO)


class TestMerge:
    @BOUNDED
    @given(first=latencies, second=latencies)
    def test_merge_equals_concatenated_stream(self, first, second):
        left = fresh()
        for value in first:
            left.observe(value)
        right = fresh()
        for value in second:
            right.observe(value)
        concat = fresh()
        for value in first + second:
            concat.observe(value)
        merged = merge_histogram_snapshots([left.freeze(), right.freeze()])
        assert merged == concat.freeze()

    @BOUNDED
    @given(samples=latencies)
    def test_merge_into_empty_is_identity(self, samples):
        source = fresh()
        for value in samples:
            source.observe(value)
        merged = merge_histogram_snapshots(
            [fresh().freeze(), source.freeze()]
        )
        assert merged == source.freeze()

    def test_merge_rejects_mismatched_bounds(self):
        other = Histogram("h", (), buckets=(1, 2, 3))
        with pytest.raises(ValueError):
            merge_histogram_snapshots([fresh().freeze(), other.freeze()])


class TestConservation:
    @BOUNDED
    @given(first=latencies, second=latencies)
    def test_counts_conserved_across_windows(self, first, second):
        histogram = fresh()
        start = histogram.freeze()
        for value in first:
            histogram.observe(value)
        middle = histogram.freeze()
        for value in second:
            histogram.observe(value)
        end = histogram.freeze()
        windows = [middle.delta_since(start), end.delta_since(middle)]

        concat = fresh()
        for value in first + second:
            concat.observe(value)
        whole = concat.freeze()

        assert windows[0].count + windows[1].count == whole.count
        assert windows[0].sum + windows[1].sum == whole.sum
        # each window keeps the lifetime envelope, so the merged windows
        # are the one-shot histogram exactly
        assert merge_histogram_snapshots(windows) == whole
