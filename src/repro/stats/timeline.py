"""Render migration spans as text timelines.

Turns the protocol steps of migration spans (a view of the kernels' cost
records, :mod:`repro.obs.spans`) into the kind of annotated timeline the
paper draws in Figure 3-1 — useful in examples and when debugging
protocol changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.obs.spans import Span
from repro.stats.migration_cost import PROTOCOL_EVENTS


@dataclass(frozen=True)
class TimelineEntry:
    """One rendered event."""

    time: int
    label: str
    detail: str


def migration_timeline(
    spans: Iterable[Span], pid: str | None = None
) -> list[TimelineEntry]:
    """The eight protocol steps of *spans* (optionally for one pid), in
    time order."""
    label_of = {
        step: label for _name, step, label in PROTOCOL_EVENTS.values() if step
    }
    entries = [
        TimelineEntry(event.time, label_of[event.step], " ".join(
            f"{key}={value}"
            for key, value in event.fields.items() if key != "step"
        ))
        for span in spans
        if pid is None or span.pid == pid
        for event in span.events
        if event.step is not None
    ]
    return sorted(entries, key=lambda entry: entry.time)


def render_timeline(
    entries: list[TimelineEntry],
    width: int = 40,
) -> str:
    """An ASCII timeline with proportional spacing.

    >>> print(render_timeline([TimelineEntry(0, "1 freeze (source)", "")]))
    t=         0us |> 1 freeze (source)
    """
    if not entries:
        return "(no migration events)"
    start = entries[0].time
    span = max(entries[-1].time - start, 1)
    lines = []
    for entry in entries:
        offset = (entry.time - start) * width // span
        bar = " " * offset + "|>"
        detail = f"  [{entry.detail}]" if entry.detail else ""
        lines.append(
            f"t={entry.time:>10}us {bar} {entry.label}{detail}"
        )
    return "\n".join(lines)


#: child event -> its line in the forwarding story
_STORY = {
    "FORWARD_HOP": "message #{serial} redirected to machine {to} (hop {hop})",
    "LINK_UPDATE_APPLIED": (
        "{sender}'s links retargeted to machine {new_machine} "
        "({changed} changed)"
    ),
}


def forwarding_story(spans: Iterable[Span], pid: str) -> list[str]:
    """Narrate every forwarding hit and link update attached to *pid*'s
    spans."""
    return [
        f"t={event.time}us: " + _STORY[event.name].format_map(event.fields)
        for span in spans
        if span.pid == pid
        for event in span.child_events()
        if event.name in _STORY
    ]
