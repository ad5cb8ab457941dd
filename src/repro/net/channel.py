"""Lossy point-to-point channels.

A channel moves packets along one wire of the topology with the wire's
latency + serialisation delay, optionally injecting the classic faults —
drop, duplicate, jitter — from a named random stream.  The reliable layer
above (:mod:`repro.net.reliable`) recovers from all of them, which is the
delivery guarantee the paper assumes of *published communications*.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.net.packet import Packet
from repro.net.topology import Wire
from repro.sim.loop import EventLoop


@dataclass
class FaultPlan:
    """Fault-injection knobs for a channel.  All default to 'perfect'."""

    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    max_jitter: int = 0  #: extra delivery delay, uniform in [0, max_jitter]

    @property
    def is_perfect(self) -> bool:
        """True when no faults will ever be injected."""
        return (
            self.drop_probability == 0.0
            and self.duplicate_probability == 0.0
            and self.max_jitter == 0
        )


class Channel:
    """One directed wire with delay and optional fault injection.

    :meth:`transmit` is the wire model: fault draws, the duplicate
    copy, serialisation behind whatever the wire is already carrying,
    jitter.  What becomes of each copy that survives is the owning
    network's business: by default an arrival event on *loop* that
    hands the packet to *deliver*; a network that passes *land* gets
    ``land(delay, packet)`` at transmit time instead and owns the
    arrival from there (the sharded network mints a hop record).
    """

    def __init__(
        self,
        loop: EventLoop,
        wire: Wire,
        deliver: Callable[[Packet], None],
        faults: FaultPlan | None = None,
        rng: random.Random | None = None,
        on_drop: Callable[[Packet], None] | None = None,
        on_duplicate: Callable[[Packet], None] | None = None,
        land: Callable[[int, Packet], None] | None = None,
    ) -> None:
        self._loop = loop
        self._wire = wire
        self._deliver = deliver
        self.faults = faults or FaultPlan()
        self._rng = rng or random.Random(0)
        self._on_drop = on_drop
        self._on_duplicate = on_duplicate
        self._land = land or self._schedule_arrival
        self.in_flight = 0
        #: the wire is serial: a packet cannot start serialising before
        #: the previous one has finished (this is what makes bulk state
        #: transfer cost scale with process size, paper §6)
        self._busy_until = 0

    @property
    def wire(self) -> Wire:
        """The underlying topology wire."""
        return self._wire

    def transmit(self, packet: Packet) -> None:
        """Put *packet* on the wire; it arrives (or not) later."""
        plan = self.faults
        if (
            plan.drop_probability
            and self._rng.random() < plan.drop_probability
        ):
            if self._on_drop is not None:
                self._on_drop(packet)
            return
        copies = 1
        if (
            plan.duplicate_probability
            and self._rng.random() < plan.duplicate_probability
        ):
            copies = 2
            if self._on_duplicate is not None:
                self._on_duplicate(packet)
        now = self._loop.now
        serialization = (
            packet.size_bytes * 1_000 // max(self._wire.bandwidth, 1)
        )
        for _ in range(copies):
            departs = max(now, self._busy_until) + serialization
            self._busy_until = departs
            delay = departs - now + self._wire.latency
            if plan.max_jitter:
                delay += self._rng.randint(0, plan.max_jitter)
            self._land(delay, packet)

    def _schedule_arrival(self, delay: int, packet: Packet) -> None:
        self.in_flight += 1
        self._loop.call_after(delay, self._arrive, packet)

    def _arrive(self, packet: Packet) -> None:
        self.in_flight -= 1
        self._deliver(packet)
