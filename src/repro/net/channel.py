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

from repro.net.packet import PACKET_HEADER_BYTES, Packet
from repro.net.topology import Wire
from repro.sim.loop import EventLoop


@dataclass
class FaultPlan:
    """Fault-injection knobs for a channel.  All default to 'perfect'."""

    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    max_jitter: int = 0  #: extra delivery delay, uniform in [0, max_jitter]


class Channel:
    """One directed wire with delay and optional fault injection.

    :meth:`transmit` is the wire model: fault draws, the duplicate
    copy, serialisation behind whatever the wire is already carrying,
    jitter.  What becomes of each copy that survives is the owning
    network's business: the channel calls ``land(delay, packet)`` at
    transmit time and the network owns the arrival from there (it files
    a hop on its loop, or mints a hop record for another shard).

    *make_rng* supplies the fault stream and is called at the first
    draw, so a wire that never draws never builds one.
    """

    def __init__(
        self,
        loop: EventLoop,
        wire: Wire,
        land: Callable[[int, Packet], None],
        faults: FaultPlan | None = None,
        make_rng: Callable[[], random.Random] | None = None,
        on_drop: Callable[[Packet], None] | None = None,
        on_duplicate: Callable[[Packet], None] | None = None,
    ) -> None:
        self._loop = loop
        self._wire = wire
        # A Wire is frozen, so its two numbers can be read once.
        self._latency = wire.latency
        self._bandwidth = max(wire.bandwidth, 1)
        self.faults = faults or FaultPlan()
        self._make_rng = make_rng or (lambda: random.Random(0))
        self._rng: random.Random | None = None
        self._on_drop = on_drop
        self._on_duplicate = on_duplicate
        self._land = land
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
        drop = plan.drop_probability
        duplicate = plan.duplicate_probability
        jitter = plan.max_jitter
        copies = 1
        if drop or duplicate or jitter:
            rng = self._rng
            if rng is None:
                rng = self._rng = self._make_rng()
            if drop and rng.random() < drop:
                if self._on_drop is not None:
                    self._on_drop(packet)
                return
            if duplicate and rng.random() < duplicate:
                copies = 2
                if self._on_duplicate is not None:
                    self._on_duplicate(packet)
        now = self._loop._now
        size = PACKET_HEADER_BYTES + packet.payload_bytes
        serialization = size * 1_000 // self._bandwidth
        while True:
            busy = self._busy_until
            departs = (now if now > busy else busy) + serialization
            self._busy_until = departs
            delay = departs - now + self._latency
            if jitter:
                delay += rng.randint(0, jitter)
            self._land(delay, packet)
            if copies == 1:
                return
            copies = 1  # the duplicate serialises behind the first copy
