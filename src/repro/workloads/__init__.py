"""Synthetic workloads for examples, tests, and benchmarks."""

from repro.workloads.closed_loop import (
    REQUEST_LATENCY_METRIC,
    ClientPool,
    ClosedLoopConfig,
)
from repro.workloads.compute import compute_bound, migratory_compute
from repro.workloads.file_clients import file_io_client, file_reader
from repro.workloads.generators import Arrival, burst_plan, poisson_plan
from repro.workloads.pingpong import echo_server, make_pair_programs, pinger
from repro.workloads.results import DEFAULT_BOARD, ResultsBoard

__all__ = [
    "Arrival",
    "ClientPool",
    "ClosedLoopConfig",
    "DEFAULT_BOARD",
    "REQUEST_LATENCY_METRIC",
    "ResultsBoard",
    "burst_plan",
    "compute_bound",
    "echo_server",
    "file_io_client",
    "file_reader",
    "make_pair_programs",
    "migratory_compute",
    "pinger",
    "poisson_plan",
]
