"""Compute-bound workloads: the raw material for load balancing (E9)."""

from __future__ import annotations

from typing import Any, Generator

from repro.core.registry import register_program
from repro.kernel.context import ProcessContext
from repro.workloads.results import ResultsBoard


@register_program("compute")
def compute_bound(
    ctx: ProcessContext,
    total: int = 50_000,
    slice_size: int = 5_000,
    board: ResultsBoard | None = None,
    key: str = "compute",
) -> Generator[Any, Any, None]:
    """Burn *total* microseconds of CPU in *slice_size* pieces, then exit.

    Posts ``{pid, started, finished, elapsed, machines}`` on *board*
    (nothing without one) so benchmarks can compute makespans and see
    where the work actually ran.
    """
    started = ctx.now
    machines = [ctx.machine]
    remaining = total
    while remaining > 0:
        burst = min(slice_size, remaining)
        yield ctx.compute(burst)
        remaining -= burst
        if ctx.machine != machines[-1]:
            machines.append(ctx.machine)
    if board is not None:
        board.post(key, {
            "pid": ctx.pid,
            "started": started,
            "finished": ctx.now,
            "elapsed": ctx.now - started,
            "machines": machines,
        })
    yield ctx.exit()


@register_program("migratory-compute")
def migratory_compute(
    ctx: ProcessContext,
    total: int = 50_000,
    slice_size: int = 5_000,
    hop_to: int | None = None,
    hop_after: int = 10_000,
    board: ResultsBoard | None = None,
    key: str = "migratory-compute",
) -> Generator[Any, Any, None]:
    """A compute job that requests its own migration part-way (§3.1:
    "It is of course possible for a process to request its own
    migration")."""
    started = ctx.now
    done = 0
    hopped = False
    while done < total:
        burst = min(slice_size, total - done)
        yield ctx.compute(burst)
        done += burst
        if not hopped and hop_to is not None and done >= hop_after:
            hopped = True
            yield ctx.request_migration(hop_to)
    if board is not None:
        board.post(key, {
            "pid": ctx.pid,
            "elapsed": ctx.now - started,
            "finished_on": ctx.machine,
            "hopped": hopped,
        })
    yield ctx.exit()
