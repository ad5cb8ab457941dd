"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import gc
import os
import sys
from heapq import heappush

import pytest
from hypothesis import settings

from repro.chaos.invariants import (
    check_chain_collapse,
    check_memory_accounting,
    check_no_stranded_forwarding,
    check_quiescence,
)
from repro.core.config import SystemConfig
from repro.core.system import System
from repro.sim.shard import ShardedSystem
from repro.workloads.results import ResultsBoard

# CI's test and coverage jobs set HYPOTHESIS_PROFILE=ci, so every push
# draws the same examples; the weekly workflow runs tier 1 once more on
# the default profile, which draws fresh ones.
settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

#: what every quiescent cluster a test built must satisfy at teardown
TEARDOWN_CHECKS = (
    check_quiescence,
    check_chain_collapse,
    check_no_stranded_forwarding,
    check_memory_accounting,
)


def make_system(machines: int = 4, **overrides) -> System:
    """A System with test-friendly defaults (servers on by default)."""
    return System(SystemConfig(machines=machines, **overrides))


def make_bare_system(machines: int = 3, **overrides) -> System:
    """A System without any system processes (pure kernel testing)."""
    overrides.setdefault("boot_servers", False)
    return System(SystemConfig(machines=machines, **overrides))


def pytest_configure(config) -> None:
    config.addinivalue_line(
        "markers",
        "survivor_violation: the test leaves a cluster breaking a survivor"
        " invariant on purpose; its teardown check is skipped",
    )


@pytest.fixture(autouse=True)
def survivor_invariants_at_teardown(request, monkeypatch):
    """Record every cluster the test finishes building and, at teardown,
    hold each one that ended quiescent to :data:`TEARDOWN_CHECKS`.

    The hook runs once per build and the checks after the test, so no
    ``count_work`` window (each times a run of an already-built
    cluster) counts a frame of either.
    """
    built = []
    for engine in (System, ShardedSystem):

        def recording(self, *args, _init=engine.__init__, **kwargs):
            _init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(engine, "__init__", recording)
    yield
    if request.node.get_closest_marker("survivor_violation"):
        return
    problems = [
        problem
        for cluster in built
        if cluster.quiescent()
        for check in TEARDOWN_CHECKS
        for problem in check(cluster)
    ]
    assert not problems, "\n".join(problems)


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
