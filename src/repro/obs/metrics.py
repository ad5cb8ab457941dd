"""A metrics registry: named counters, gauges and histograms.

One :class:`MetricsRegistry` serves a whole simulated system.  Components
publish two ways:

- **push** — hot paths hold an instrument and update it directly
  (``registry.counter("migration.completed").inc()``,
  ``registry.histogram("migration.downtime_us").observe(dt)``);
- **pull** — components with existing cheap counters register a
  *collector* callback which copies them into the registry when a
  snapshot is taken (the Prometheus client model).  This keeps the
  per-event cost of kernel and network bookkeeping at a plain integer
  increment while still surfacing everything through one registry.

Instruments are identified by ``(name, labels)``; labels are sorted
key/value pairs (e.g. ``machine=0``), so per-machine series of the same
metric aggregate naturally.  :meth:`MetricsRegistry.snapshot` freezes the
whole registry into a :class:`MetricsSnapshot` for reports and exporters.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable

#: A label set, normalised to sorted ``(key, value)`` pairs.
LabelSet = tuple[tuple[str, Any], ...]

#: Default histogram bucket upper bounds (microseconds / bytes / counts
#: all fit: powers of four give wide dynamic range with few buckets).
DEFAULT_BUCKETS: tuple[float, ...] = tuple(4.0**i for i in range(1, 13))

#: Latency bucket upper bounds (microseconds): quarter-power-of-two steps
#: (adjacent bounds differ by 2**0.25 ~ 19%) from 1us to 2**26us (~67s).
#: ``2.0 ** (i / 4)`` is a pure function of the index, so the grid is
#: bit-identical on every platform and any percentile read off it is
#: within one bucket's relative width of the true sample percentile.
LATENCY_BUCKETS_US: tuple[float, ...] = tuple(
    2.0 ** (i / 4) for i in range(0, 105)
)


def _labelset(labels: dict[str, Any]) -> LabelSet:
    return tuple(sorted(labels.items()))


def render_key(name: str, labels: LabelSet) -> str:
    """Flat string form, e.g. ``kernel.forwards{machine=0}``."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelSet) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add *amount* (must not be negative)."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def set_total(self, value: float) -> None:
        """Overwrite the running total.

        For *collectors* mirroring an externally maintained count; the
        new total may not be below the current one.
        """
        if value < self.value:
            raise ValueError(
                f"counter {self.name} cannot decrease "
                f"({self.value} -> {value})"
            )
        self.value = value


class Gauge:
    """A value that can go up and down (queue depth, live entries)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelSet) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value


@dataclass(frozen=True)
class HistogramSnapshot:
    """Frozen view of one histogram."""

    count: int
    sum: float
    min: float | None
    max: float | None
    #: parallel to the histogram's bucket bounds: observations <= bound
    #: (cumulative, Prometheus-style); the implicit +Inf bucket == count
    bucket_bounds: tuple[float, ...]
    bucket_counts: tuple[int, ...]

    @property
    def mean(self) -> float | None:
        return self.sum / self.count if self.count else None

    def percentile(self, q: float) -> float | None:
        """The *q*-quantile (``0 <= q <= 1``) read off the buckets.

        Uses the exact rank rule — the ``ceil(q * count)``-th smallest
        observation — and returns the upper bound of the bucket holding
        that observation, clamped to the observed ``[min, max]`` envelope
        so the tails are anchored exactly.  With log-spaced bounds (see
        :data:`LATENCY_BUCKETS_US`) the result is within one bucket's
        relative width of the true sample percentile; observations above
        the last bound degrade to ``max``.  ``None`` on an empty
        histogram.
        """
        if not 0 <= q <= 1:
            raise ValueError(f"percentile q must be in [0, 1], got {q}")
        if not self.count:
            return None
        rank = max(1, math.ceil(q * self.count))
        index = bisect.bisect_left(self.bucket_counts, rank)
        if index >= len(self.bucket_bounds):
            return self.max
        return min(max(self.bucket_bounds[index], self.min), self.max)

    @property
    def p50(self) -> float | None:
        return self.percentile(0.50)

    @property
    def p95(self) -> float | None:
        return self.percentile(0.95)

    @property
    def p99(self) -> float | None:
        return self.percentile(0.99)

    def delta_since(
        self, previous: "HistogramSnapshot"
    ) -> "HistogramSnapshot":
        """The distribution observed *between* two snapshots of one
        histogram.

        Cumulative bucket counts subtract bucket-wise (the difference of
        two cumulative vectors is itself cumulative), so percentiles of
        the returned window are exact over the interval's observations.
        ``min``/``max`` cannot be recovered per-window and keep the
        lifetime envelope — the percentile clamp only loosens, never
        lies.  This is how an SLO balancer reads "p99 over the last
        sampling interval" off a histogram that must stay cumulative for
        everyone else.
        """
        if previous.bucket_bounds != self.bucket_bounds:
            raise ValueError("cannot diff histograms with different buckets")
        if previous.count > self.count:
            raise ValueError("delta_since needs an older snapshot")
        return HistogramSnapshot(
            count=self.count - previous.count,
            sum=self.sum - previous.sum,
            min=self.min,
            max=self.max,
            bucket_bounds=self.bucket_bounds,
            bucket_counts=tuple(
                now - then
                for now, then in zip(
                    self.bucket_counts, previous.bucket_counts
                )
            ),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "buckets": {
                str(bound): count
                for bound, count in zip(self.bucket_bounds, self.bucket_counts)
            },
        }


class Histogram:
    """A distribution of observations with fixed cumulative buckets."""

    __slots__ = (
        "name", "labels", "bounds", "_bucket_counts",
        "count", "sum", "min", "max",
    )

    def __init__(
        self,
        name: str,
        labels: LabelSet,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.labels = labels
        self.bounds: tuple[float, ...] = tuple(sorted(set(buckets)))
        if not self.bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        self._bucket_counts = [0] * len(self.bounds)
        self.count = 0
        self.sum: float = 0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        index = bisect.bisect_left(self.bounds, value)
        if index < len(self._bucket_counts):
            self._bucket_counts[index] += 1

    def freeze(self) -> HistogramSnapshot:
        """A cumulative-bucket snapshot of the distribution."""
        cumulative = []
        running = 0
        for n in self._bucket_counts:
            running += n
            cumulative.append(running)
        return HistogramSnapshot(
            count=self.count,
            sum=self.sum,
            min=self.min,
            max=self.max,
            bucket_bounds=self.bounds,
            bucket_counts=tuple(cumulative),
        )


class MetricsSnapshot:
    """A frozen copy of every instrument in a registry."""

    def __init__(
        self,
        counters: dict[str, dict[LabelSet, float]],
        gauges: dict[str, dict[LabelSet, float]],
        histograms: dict[str, dict[LabelSet, HistogramSnapshot]],
    ) -> None:
        self.counters = counters
        self.gauges = gauges
        self.histograms = histograms

    # -- scalar access --------------------------------------------------

    def _series(self, name: str) -> dict[LabelSet, float]:
        return self.counters.get(name) or self.gauges.get(name) or {}

    def total(self, name: str) -> float:
        """Sum of a counter/gauge across all label sets (0 if absent)."""
        return sum(self._series(name).values())

    def get(self, name: str, **labels: Any) -> float:
        """One series' value (0 if absent)."""
        return self._series(name).get(_labelset(labels), 0)

    def by_label(self, name: str, key: str) -> dict[Any, float]:
        """Aggregate a metric by one label key, e.g. per ``machine``."""
        out: dict[Any, float] = {}
        for labels, value in self._series(name).items():
            for k, v in labels:
                if k == key:
                    out[v] = out.get(v, 0) + value
        return out

    def histogram(self, name: str, **labels: Any) -> HistogramSnapshot | None:
        return self.histograms.get(name, {}).get(_labelset(labels))

    def histogram_by_label(
        self, name: str, key: str
    ) -> dict[Any, HistogramSnapshot]:
        """All of *name*'s series keyed by one label, e.g. per ``domain``.

        Series carrying the label more than once cannot occur (labels
        are a mapping); series without the label are skipped, so the
        unlabelled (global) histogram never shadows a domain's.
        """
        out: dict[Any, HistogramSnapshot] = {}
        for labels, snapshot in self.histograms.get(name, {}).items():
            for k, v in labels:
                if k == key:
                    out[v] = snapshot
        return out

    # -- export ---------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready nested dict (flat keys inside each section)."""

        def flatten(section: dict[str, dict[LabelSet, Any]], freeze=None):
            out = {}
            for name in sorted(section):
                for labels in sorted(section[name], key=str):
                    value = section[name][labels]
                    out[render_key(name, labels)] = (
                        freeze(value) if freeze else value
                    )
            return out

        return {
            "counters": flatten(self.counters),
            "gauges": flatten(self.gauges),
            "histograms": flatten(
                self.histograms, freeze=lambda h: h.to_dict()
            ),
        }


class NullCounter(Counter):
    """A counter that discards updates (disabled registry)."""

    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        pass

    def set_total(self, value: float) -> None:
        pass


class NullGauge(Gauge):
    """A gauge that discards updates (disabled registry)."""

    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class NullHistogram(Histogram):
    """A histogram that discards observations (disabled registry)."""

    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class MetricsRegistry:
    """Get-or-create instruments, pull collectors, take snapshots.

    A registry built with ``enabled=False`` hands out shared null
    instruments whose update methods are no-ops, so hot paths keep their
    unconditional ``instrument.inc()`` / ``.observe()`` calls and pay
    only an empty method call when metrics are off.  Snapshots of a
    disabled registry are empty and skip the pull collectors.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: dict[tuple[str, LabelSet], Counter] = {}
        self._gauges: dict[tuple[str, LabelSet], Gauge] = {}
        self._histograms: dict[tuple[str, LabelSet], Histogram] = {}
        self._collectors: list[Callable[[MetricsRegistry], None]] = []
        self._null_counter = NullCounter("_disabled", ())
        self._null_gauge = NullGauge("_disabled", ())
        self._null_histogram = NullHistogram("_disabled", ())

    # -- instruments ----------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        if not self.enabled:
            return self._null_counter
        key = (name, _labelset(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(*key)
        return instrument

    def gauge(self, name: str, **labels: Any) -> Gauge:
        if not self.enabled:
            return self._null_gauge
        key = (name, _labelset(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(*key)
        return instrument

    def histogram(
        self,
        name: str,
        buckets: Iterable[float] | None = None,
        **labels: Any,
    ) -> Histogram:
        if not self.enabled:
            return self._null_histogram
        key = (name, _labelset(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(
                *key, buckets=buckets or DEFAULT_BUCKETS
            )
        return instrument

    def latency_histogram(self, name: str, **labels: Any) -> Histogram:
        """Get-or-create a histogram on :data:`LATENCY_BUCKETS_US`.

        The grid is log-spaced, deterministic and microsecond-denominated,
        so p50/p95/p99 read off a snapshot
        (:meth:`HistogramSnapshot.percentile`) carry a bounded ~19%
        relative error while ``min``/``max`` stay exact.  Lives in the
        same namespace as :meth:`histogram`; as with custom buckets, the
        grid is fixed by whichever call creates the instrument first.
        """
        if not self.enabled:
            return self._null_histogram
        key = (name, _labelset(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(
                *key, buckets=LATENCY_BUCKETS_US
            )
        return instrument

    # -- collectors -----------------------------------------------------

    def register_collector(
        self, collector: Callable[["MetricsRegistry"], None]
    ) -> None:
        """Call *collector* (once) on every snapshot, before freezing.

        Collectors mirror externally maintained counters into the
        registry via :meth:`Counter.set_total` / :meth:`Gauge.set`.
        """
        self._collectors.append(collector)

    def snapshot(self) -> MetricsSnapshot:
        """Run collectors, then freeze every instrument."""
        if self.enabled:
            for collector in self._collectors:
                collector(self)

        def group(instruments: dict[tuple[str, LabelSet], Any], value_of):
            out: dict[str, dict[LabelSet, Any]] = {}
            for (name, labels), instrument in instruments.items():
                out.setdefault(name, {})[labels] = value_of(instrument)
            return out

        return MetricsSnapshot(
            counters=group(self._counters, lambda c: c.value),
            gauges=group(self._gauges, lambda g: g.value),
            histograms=group(self._histograms, lambda h: h.freeze()),
        )


# ----------------------------------------------------------------------
# Cross-registry merging (sharded execution)
# ----------------------------------------------------------------------


def merge_histogram_snapshots(
    snapshots: Iterable[HistogramSnapshot],
) -> HistogramSnapshot:
    """Fold several histogram snapshots into one distribution.

    The result is exactly the snapshot of a single histogram that had
    observed every shard's stream: cumulative bucket counts, ``count``
    and ``sum`` add (in snapshot order), ``min``/``max`` keep the
    envelope.  Identical bucket bounds required.
    """
    merged: HistogramSnapshot | None = None
    for snapshot in snapshots:
        if merged is None:
            merged = snapshot
            continue
        if snapshot.bucket_bounds != merged.bucket_bounds:
            raise ValueError("cannot merge histograms: bucket bounds differ")
        low, high = merged.min, merged.max
        if snapshot.min is not None and (low is None or snapshot.min < low):
            low = snapshot.min
        if snapshot.max is not None and (high is None or snapshot.max > high):
            high = snapshot.max
        merged = HistogramSnapshot(
            count=merged.count + snapshot.count,
            sum=merged.sum + snapshot.sum,
            min=low,
            max=high,
            bucket_bounds=merged.bucket_bounds,
            bucket_counts=tuple(
                a + b
                for a, b in zip(merged.bucket_counts, snapshot.bucket_counts)
            ),
        )
    if merged is None:
        raise ValueError("cannot merge zero histogram snapshots")
    return merged


def merge_snapshots(snapshots: Iterable[MetricsSnapshot]) -> MetricsSnapshot:
    """Combine per-shard registry snapshots into one system-wide view.

    Counters and gauges sum per ``(name, labels)`` series — shard-local
    series (e.g. ``sim.events_fired{shard=i}``) carry a shard label, so
    nothing that should stay distinct collides.  Histograms with the
    same series key merge via :func:`merge_histogram_snapshots`.
    """
    counters: dict[str, dict[LabelSet, float]] = {}
    gauges: dict[str, dict[LabelSet, float]] = {}
    parts: dict[str, dict[LabelSet, list[HistogramSnapshot]]] = {}
    for snapshot in snapshots:
        for target, section in (
            (counters, snapshot.counters),
            (gauges, snapshot.gauges),
        ):
            for name, series in section.items():
                bucket = target.setdefault(name, {})
                for labels, value in series.items():
                    bucket[labels] = bucket.get(labels, 0) + value
        for name, series in snapshot.histograms.items():
            bucket = parts.setdefault(name, {})
            for labels, hist in series.items():
                bucket.setdefault(labels, []).append(hist)
    histograms = {
        name: {
            labels: merge_histogram_snapshots(group)
            for labels, group in series.items()
        }
        for name, series in parts.items()
    }
    return MetricsSnapshot(
        counters=counters, gauges=gauges, histograms=histograms
    )
