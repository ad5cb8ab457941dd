"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import gc
import sys
from heapq import heappush

import pytest

from repro.core.config import SystemConfig
from repro.core.system import System
from repro.workloads.results import ResultsBoard


def make_system(machines: int = 4, **overrides) -> System:
    """A System with test-friendly defaults (servers on by default)."""
    return System(SystemConfig(machines=machines, **overrides))


def make_bare_system(machines: int = 3, **overrides) -> System:
    """A System without any system processes (pure kernel testing)."""
    overrides.setdefault("boot_servers", False)
    return System(SystemConfig(machines=machines, **overrides))


@pytest.fixture
def board() -> ResultsBoard:
    """A fresh results blackboard."""
    return ResultsBoard()


@pytest.fixture
def system() -> System:
    """A booted 4-machine system."""
    return make_system()


@pytest.fixture
def bare_system() -> System:
    """A 3-machine system with no servers."""
    return make_bare_system()


def drain(system: System, max_events: int = 2_000_000) -> int:
    """Run the system until its event queue is empty."""
    fired = system.run(max_events=max_events)
    assert fired < max_events, "simulation did not quiesce"
    return fired


def spawn_and_drain(system: System, program, machine: int = 0, name: str = ""):
    """Spawn one program and run to quiescence; returns its pid."""
    pid = system.spawn(program, machine=machine, name=name)
    drain(system)
    return pid


def count_calls(run) -> int:
    """Function calls the interpreter enters while ``run()`` executes."""
    return count_work(run)[0]


def count_work(run) -> tuple[int, int]:
    """Function calls the interpreter enters, and of those the
    ``heappush`` calls (heap entries filed), while ``run()`` executes.

    ``sys.setprofile`` sees every Python frame and every C builtin, so
    both counts are work ratios that read the same on any host — the
    per-layer budgets gate on them.  The cyclic collector is off
    meanwhile: collecting an earlier test's abandoned generator runs
    its frame, which would be counted here.
    """
    calls = pushes = 0

    def count(frame, event, arg):
        nonlocal calls, pushes
        if event == "call":
            calls += 1
        elif event == "c_call":
            calls += 1
            if arg is heappush:
                pushes += 1

    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
        if was_enabled:
            gc.enable()
    return calls, pushes
