"""Deterministic discrete-event simulation substrate.

This package is the "hardware" of the reproduction: an integer-microsecond
clock and an event heap with FIFO tie-breaking (both the state of one
:class:`EventLoop`), named random streams, and a structured tracer.
Everything above it (network, kernels, servers) is driven purely by
events scheduled here.
"""

from repro.sim.clock import (
    MSEC,
    SEC,
    USEC,
    format_time,
    msec,
    sec,
    usec,
)
from repro.sim.loop import Event, EventLoop
from repro.sim.rng import RandomStreams
from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "MSEC",
    "SEC",
    "USEC",
    "Event",
    "EventLoop",
    "RandomStreams",
    "TraceRecord",
    "Tracer",
    "format_time",
    "msec",
    "sec",
    "usec",
]
