"""Tests for the discrete-event loop."""

import sys

import pytest

from repro.core.config import SystemConfig
from repro.errors import ClockError, ConfigError, SimulationError
from repro.net.topology import Topology
from repro.sim.loop import EventLoop, KeyedEventLoop, MACHINE_ID_BITS
from repro.sim.shard import ShardPlan
from tests.conftest import count_calls


class TestScheduling:
    def test_call_after_advances_clock(self):
        loop = EventLoop()
        seen = []
        loop.call_after(100, lambda: seen.append(loop.now))
        loop.run()
        assert seen == [100]
        assert loop.now == 100

    def test_call_at_absolute(self):
        loop = EventLoop()
        seen = []
        loop.call_at(50, seen.append, "x")
        loop.run()
        assert seen == ["x"]

    def test_call_soon_fires_at_current_instant(self):
        loop = EventLoop()
        seen = []
        loop.call_after(
            10, lambda: loop.call_soon(lambda: seen.append(loop.now)),
        )
        loop.run()
        assert seen == [10]

    def test_past_scheduling_rejected(self):
        loop = EventLoop()
        loop.call_after(10, lambda: None)
        loop.run()
        with pytest.raises(ClockError):
            loop.call_at(5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ClockError):
            EventLoop().call_after(-1, lambda: None)

    def test_step_executes_one_event(self):
        loop = EventLoop()
        seen = []
        loop.call_after(10, seen.append, "a")
        loop.call_after(20, seen.append, "b")
        assert loop.step() is True
        assert seen == ["a"]
        assert loop.now == 10
        assert loop.step() is True
        assert loop.step() is False
        assert seen == ["a", "b"]

    def test_repr_mentions_progress(self):
        loop = EventLoop()
        loop.call_after(5, lambda: None)
        loop.run()
        text = repr(loop)
        assert "now=5" in text
        assert "fired=1" in text

    def test_cascading_events(self):
        loop = EventLoop()
        seen = []

        def chain(n):
            seen.append(n)
            if n < 5:
                loop.call_after(10, chain, n + 1)

        loop.call_soon(chain, 0)
        loop.run()
        assert seen == [0, 1, 2, 3, 4, 5]
        assert loop.now == 50


class TestRun:
    def test_run_returns_events_fired(self):
        loop = EventLoop()
        for i in range(7):
            loop.call_after(i, lambda: None)
        assert loop.run() == 7

    def test_max_events_bound(self):
        loop = EventLoop()
        for i in range(10):
            loop.call_after(i, lambda: None)
        assert loop.run(max_events=3) == 3
        assert loop.pending_events == 7

    def test_run_until_stops_at_deadline(self):
        loop = EventLoop()
        seen = []
        loop.call_after(10, seen.append, "early")
        loop.call_after(100, seen.append, "late")
        loop.run_until(50)
        assert seen == ["early"]
        assert loop.now == 50
        loop.run()
        assert seen == ["early", "late"]

    def test_run_until_includes_deadline_events(self):
        loop = EventLoop()
        seen = []
        loop.call_after(50, seen.append, "at")
        loop.run_until(50)
        assert seen == ["at"]

    def test_run_until_past_deadline_rejected(self):
        loop = EventLoop()
        loop.run_until(100)
        with pytest.raises(ClockError):
            loop.run_until(50)

    def test_run_until_honors_max_events(self):
        loop = EventLoop()
        for i in range(5):
            loop.call_after(10 * i, lambda: None)
        assert loop.run_until(100, max_events=2) == 2
        assert loop.pending_events == 3
        assert loop.run_until(100) == 3
        assert loop.now == 100

    def test_budget_cut_run_until_leaves_the_clock_at_the_last_event(self):
        loop = EventLoop()
        seen = []
        for t in (10, 20, 30):
            loop.call_at(t, lambda: seen.append(loop.now))
        assert loop.run_until(100, max_events=1) == 1
        # t = 20 is still due, so the clock must not pass it.
        assert loop.now == 10
        loop.call_at(50, lambda: seen.append(loop.now))
        loop.run()
        assert seen == [10, 20, 30, 50]

    def test_budget_spent_exactly_at_the_deadline_still_advances(self):
        loop = EventLoop()
        loop.call_at(10, lambda: None)
        loop.call_at(200, lambda: None)
        assert loop.run_until(100, max_events=1) == 1
        assert loop.now == 100

    def test_run_until_max_events_still_respects_deadline(self):
        loop = EventLoop()
        for t in (10, 20, 30):
            loop.call_after(t, lambda: None)
        assert loop.run_until(15, max_events=5) == 1
        assert loop.now == 15
        assert loop.pending_events == 2

    def test_reentrant_run_until_rejected(self):
        loop = EventLoop()
        failures = []

        def reenter():
            try:
                loop.run_until(50)
            except SimulationError:
                failures.append(True)

        loop.call_after(10, reenter)
        loop.run_until(20)
        assert failures == [True]

    def test_reentrant_run_rejected(self):
        loop = EventLoop()
        failures = []

        def reenter():
            try:
                loop.run()
            except SimulationError:
                failures.append(True)

        loop.call_soon(reenter)
        loop.run()
        assert failures == [True]

    def test_cancel_via_loop(self):
        loop = EventLoop()
        seen = []
        event = loop.call_after(10, seen.append, "x")
        loop.cancel(event)
        loop.cancel(event)  # idempotent
        loop.run()
        assert seen == []
        assert loop.pending_events == 0

    def test_events_fired_counter(self):
        loop = EventLoop()
        loop.call_after(1, lambda: None)
        loop.call_after(2, lambda: None)
        loop.run()
        assert loop.events_fired == 2


class TestKeyedEventLoop:
    def test_grid_property_and_scheduling(self):
        loop = KeyedEventLoop(grid=1_000)
        assert loop.grid == 1_000
        seen = []
        loop.call_at(500, seen.append, "at")
        loop.call_after(700, seen.append, "after")
        loop.run()
        assert seen == ["at", "after"]

    def test_past_call_at_rejected(self):
        loop = KeyedEventLoop(grid=1_000)
        loop.call_at(10, lambda: None)
        loop.run()
        with pytest.raises(ClockError):
            loop.call_at(5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ClockError):
            KeyedEventLoop(grid=1_000).call_after(-1, lambda: None)

    def test_machine_ids_beyond_the_hop_key_field_are_refused_at_build(self):
        too_big = 1 << MACHINE_ID_BITS
        topology = Topology()
        topology.connect(0, too_big)
        with pytest.raises(ConfigError, match="hop-key field"):
            ShardPlan.build(SystemConfig(machines=2), topology)
        fits = Topology()
        fits.connect(0, too_big - 1)
        ShardPlan.build(SystemConfig(machines=2), fits)


class TestDeterminism:
    def test_identical_runs_fire_in_identical_order(self):
        def trace_run():
            loop = EventLoop()
            seen = []
            for i in range(20):
                loop.call_after(i % 3, seen.append, i)
            loop.run()
            return seen

        assert trace_run() == trace_run()


def _noop():
    pass


def calls_per_event(make_loop, few=100, many=300):
    """Calls that *many* no-op events add over *few*, per event: each
    scheduled by ``call_after`` and fired by ``run``."""

    def calls(events):
        loop = make_loop()

        def run():
            call_after = loop.call_after
            for i in range(events):
                call_after(i % 7, _noop)
            loop.run()

        return count_calls(run)

    return (calls(many) - calls(few)) / (many - few)


@pytest.mark.skipif(
    sys.getprofile() is not None, reason="another profiler is installed"
)
class TestEventBudget:
    """One event is one heap entry: ``call_after``, its ``heappush``,
    the ``heappop`` in ``run`` and the callback — nothing else."""

    @pytest.mark.parametrize(
        "make_loop",
        [EventLoop, lambda: KeyedEventLoop(1_000)],
        ids=["classic", "keyed"],
    )
    def test_an_event_costs_at_most_four_calls(self, make_loop):
        assert calls_per_event(make_loop) <= 4

    @pytest.mark.parametrize(
        "make_loop",
        [EventLoop, lambda: KeyedEventLoop(1_000)],
        ids=["classic", "keyed"],
    )
    def test_entry_points_call_no_helper_of_their_own(self, make_loop):
        # The clock and the heap are the loop's own state: past the
        # heapq builtins and the callback, no entry point enters a
        # second Python frame (step's advance_to is its clock check).
        loop = make_loop()
        base = count_calls(lambda: None)

        def cost(run):
            return count_calls(run) - base

        assert cost(lambda: loop.call_at(5, _noop)) == 2  # + heappush
        assert cost(lambda: loop.next_event_time()) == 1
        assert cost(lambda: loop.pending_events) == 1
        # + heappop, advance_to and the callback
        assert cost(lambda: loop.step()) == 4
        loop.call_at(10, _noop)
        assert cost(lambda: loop.run_until(20)) == 3  # + heappop, callback
