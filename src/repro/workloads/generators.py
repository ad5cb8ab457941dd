"""Workload arrival plans.

Benchmarks that study load balancing need processes arriving over time,
unevenly across machines — "a balanced execution mix can be disturbed ...
by the creation of a new process with unexpected resource requirements"
(§1).  A plan is a list of :class:`Arrival` entries, built
deterministically or drawn from a Poisson process on a named random
stream; ``Cluster.schedule_spawn`` lands each one on its own machine's
loop, on any engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.cluster import Cluster


@dataclass(frozen=True)
class Arrival:
    """One planned process creation."""

    at: int  #: simulated time of the spawn
    machine: int
    program: Callable  #: program factory, called with the context
    name: str = ""


def poisson_plan(
    system: "Cluster",
    program: Callable,
    rate_per_ms: float,
    duration: int,
    machine_weights: dict[int, float],
) -> list[Arrival]:
    """A Poisson arrival plan with weighted machine placement.

    *machine_weights* skews arrivals: ``{0: 0.8, 1: 0.2}`` floods machine
    0, the canonical imbalance scenario for E9.
    """
    rng = system.rngs.stream("arrivals")
    machines = sorted(machine_weights)
    weights = [machine_weights[m] for m in machines]
    plan: list[Arrival] = []
    t = 0.0
    index = 0
    while True:
        t += rng.expovariate(rate_per_ms) * 1_000  # rate is per ms
        if t >= duration:
            break
        machine = rng.choices(machines, weights=weights)[0]
        plan.append(Arrival(
            at=int(t), machine=machine, program=program,
            name=f"job-{index}",
        ))
        index += 1
    return plan


def burst_plan(
    program: Callable,
    machine: int,
    count: int,
    start: int = 0,
    spacing: int = 100,
) -> list[Arrival]:
    """*count* arrivals on one machine, *spacing* microseconds apart."""
    return [
        Arrival(
            at=start + i * spacing, machine=machine, program=program,
            name=f"burst-{i}",
        )
        for i in range(count)
    ]
