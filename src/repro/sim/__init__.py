"""Deterministic discrete-event simulation substrate.

This package is the "hardware" of the reproduction: an integer-microsecond
clock and an event heap with FIFO tie-breaking (both the state of one
:class:`~repro.sim.loop.EventLoop`), named random streams, and a
structured tracer.  Everything above it (network, kernels, servers) is
driven purely by events scheduled here.
"""
