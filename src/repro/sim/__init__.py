"""Deterministic discrete-event simulation substrate.

This package is the "hardware" of the reproduction: an integer-microsecond
clock, an event loop with FIFO tie-breaking, named random streams, and a
structured tracer.  Everything above it (network, kernels, servers) is
driven purely by events scheduled here.
"""

from repro.sim.clock import (
    MSEC,
    SEC,
    USEC,
    SimClock,
    format_time,
    msec,
    sec,
    usec,
)
from repro.sim.events import Event, EventQueue
from repro.sim.loop import EventLoop
from repro.sim.rng import RandomStreams
from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "MSEC",
    "SEC",
    "USEC",
    "Event",
    "EventLoop",
    "EventQueue",
    "RandomStreams",
    "SimClock",
    "TraceRecord",
    "Tracer",
    "format_time",
    "msec",
    "sec",
    "usec",
]
