"""Workload arrival generators.

Benchmarks that study load balancing need processes arriving over time,
unevenly across machines — "a balanced execution mix can be disturbed ...
by the creation of a new process with unexpected resource requirements"
(§1).  An :class:`ArrivalGenerator` schedules each spawn on its own
machine's loop according to a plan, on any engine; plans can be built
deterministically or drawn from a Poisson process on a named random
stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.kernel.ids import ProcessId

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.cluster import Cluster


@dataclass(frozen=True)
class Arrival:
    """One planned process creation."""

    at: int  #: simulated time of the spawn
    machine: int
    program: Callable  #: program factory, called with the context
    name: str = ""


class ArrivalGenerator:
    """Spawns processes according to a plan of :class:`Arrival` entries."""

    def __init__(self, system: "Cluster", plan: list[Arrival]) -> None:
        self.system = system
        self.plan = sorted(plan, key=lambda a: a.at)
        self.spawned: list[ProcessId] = []

    def install(self) -> None:
        """Schedule every planned arrival on its machine's loop."""
        for arrival in self.plan:
            self.system.call_at(
                arrival.at, arrival.machine, self._spawn, arrival
            )

    def _spawn(self, arrival: Arrival) -> None:
        pid = self.system.spawn(
            arrival.program, machine=arrival.machine, name=arrival.name,
        )
        self.spawned.append(pid)


def poisson_plan(
    system: "Cluster",
    program: Callable,
    rate_per_ms: float,
    duration: int,
    machine_weights: dict[int, float],
    stream_name: str = "arrivals",
    name_prefix: str = "job",
) -> list[Arrival]:
    """A Poisson arrival plan with weighted machine placement.

    *machine_weights* skews arrivals: ``{0: 0.8, 1: 0.2}`` floods machine
    0, the canonical imbalance scenario for E9.
    """
    rng = system.rngs.stream(stream_name)
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
            name=f"{name_prefix}-{index}",
        ))
        index += 1
    return plan


def burst_plan(
    program: Callable,
    machine: int,
    count: int,
    start: int = 0,
    spacing: int = 100,
    name_prefix: str = "burst",
) -> list[Arrival]:
    """*count* arrivals on one machine, *spacing* microseconds apart."""
    return [
        Arrival(
            at=start + i * spacing, machine=machine, program=program,
            name=f"{name_prefix}-{i}",
        )
        for i in range(count)
    ]
