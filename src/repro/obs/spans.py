"""Migration spans: a view of the kernels' migration cost records.

A *span* is one 8-step migration (paper Figure 3-1) seen end to end,
from the freeze (step 1) to the restart acknowledgement or a refusal.
Its protocol events are the sim times the source kernel stamped on its
:class:`~repro.stats.migration_cost.MigrationCostRecord`, so spans exist
on every engine, traced or not.  Forwarding hops and link updates that
involve the migrated process attach to its most recent span as child
events — the attribution the paper's §6 cost analysis relies on; those
come from the tracer, when it kept them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.sim.trace import TraceRecord
from repro.stats.migration_cost import PROTOCOL_EVENTS, MigrationCostRecord

#: tracer (category, event) -> (child event name, field naming the pid)
_CHILD_EVENTS = {
    ("forward", "hit"): ("FORWARD_HOP", "pid"),
    ("linkupd", "sent"): ("LINK_UPDATE_SENT", "target"),
    ("linkupd", "applied"): ("LINK_UPDATE_APPLIED", "target"),
}


@dataclass(frozen=True)
class SpanEvent:
    """One timestamped event inside a span."""

    time: int
    name: str
    fields: dict[str, Any] = field(default_factory=dict)

    @property
    def step(self) -> int | None:
        """The protocol step number, if this event is one of the eight."""
        return self.fields.get("step")


@dataclass
class Span:
    """One migration from freeze to restart-ack."""

    pid: str
    start: int
    source: int | None = None
    dest: int | None = None
    end: int | None = None
    status: str = "in-flight"  #: in-flight | ok | refused
    events: list[SpanEvent] = field(default_factory=list)

    @property
    def name(self) -> str:
        src = "?" if self.source is None else self.source
        dst = "?" if self.dest is None else self.dest
        return f"migrate {self.pid} {src}->{dst}"

    @property
    def duration(self) -> int | None:
        """Microseconds from freeze until the span closed."""
        return None if self.end is None else self.end - self.start

    def add(self, time: int, name: str, **fields: Any) -> None:
        self.events.append(SpanEvent(time, name, fields))

    def steps(self) -> list[int]:
        """Protocol step numbers present, in event (i.e. time) order."""
        return [e.step for e in self.events if e.step is not None]

    def event_times(self) -> list[int]:
        return [e.time for e in self.events]

    def child_events(self) -> list[SpanEvent]:
        """Forwarding hops / link updates attached after the protocol."""
        names = {name for name, _key in _CHILD_EVENTS.values()}
        return [e for e in self.events if e.name in names]


def migration_spans(
    records: Iterable[MigrationCostRecord],
    traces: Iterable[TraceRecord] = (),
) -> list[Span]:
    """One span per cost record, by start time, holding its stamped
    protocol events; the forwarding hops and link updates in *traces*
    attach to the latest span of their pid that had started by then."""
    spans = []
    for record in records:
        span = Span(
            pid=str(record.pid), start=record.started_at,
            source=record.source, dest=record.dest,
        )
        if record.completed_at is not None:
            span.end = record.completed_at
            span.status = "ok" if record.success else "refused"
        for time, event, fields in record.protocol_events():
            name, step, _label = PROTOCOL_EVENTS[event]
            if step is not None:
                fields["step"] = step
            span.add(time, name, **fields)
        spans.append(span)
    spans.sort(key=lambda s: (s.start, s.pid))
    by_pid: dict[str, list[Span]] = {}
    for span in spans:
        by_pid.setdefault(span.pid, []).append(span)
    for trace in traces:
        child = _CHILD_EVENTS.get((trace.category, trace.event))
        if child is None:
            continue
        name, key = child
        started = [
            s for s in by_pid.get(trace.fields.get(key), ())
            if s.start <= trace.time
        ]
        if started:
            fields = {k: v for k, v in trace.fields.items() if k != "pid"}
            started[-1].add(trace.time, name, **fields)
    for span in spans:
        span.events.sort(key=lambda e: e.time)  # stable: protocol first
    return spans
