"""Property-based tests for the chaos fuzzer.

Three load-bearing claims get adversarial inputs instead of examples:
every drawn schedule is statically valid (the generator never needs the
runner to reject its output), the whole pipeline is a pure function of
``(seed, index)`` — byte-identical schedule *and* byte-identical run —
and the shrinker only ever returns schedules that still satisfy the
caller's failure predicate.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import (
    Scenario,
    generate_schedule,
    run_scenario,
    shrink,
    validate_schedule,
)

BOUNDED = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

seeds = st.integers(min_value=0, max_value=10**6)
indices = st.integers(min_value=0, max_value=500)


class TestGenerationProperties:
    @BOUNDED
    @given(seed=seeds, index=indices)
    def test_every_draw_validates(self, seed, index):
        """The generator only emits schedules the runner would accept."""
        validate_schedule(generate_schedule(seed, index))

    @BOUNDED
    @given(seed=seeds, index=indices)
    def test_draws_are_pure_functions_of_seed_and_index(self, seed, index):
        """Same (seed, index) — byte-identical schedule, forever."""
        assert generate_schedule(seed, index) == \
            generate_schedule(seed, index)

    @BOUNDED
    @given(seed=seeds, index=indices)
    def test_draws_round_trip_through_json(self, seed, index):
        """A draw is a record: its JSON form rebuilds it exactly."""
        schedule = generate_schedule(seed, index)
        data = json.loads(json.dumps(schedule.to_json()))
        assert Scenario.from_json(data) == schedule

    @BOUNDED
    @given(seed=seeds, index=indices)
    def test_action_times_respect_the_slot_scheme(self, seed, index):
        """Barrier actions sit on the window grid, loop actions off it,
        and no two actions share a time — the static guarantee that
        makes every sharded draw schedulable."""
        schedule = generate_schedule(seed, index)
        times = [spec.at for spec in schedule.actions]
        assert len(times) == len(set(times))
        if not schedule.sharded:
            return
        for spec in schedule.actions:
            if spec.kind == "crash":
                assert spec.at % 1_000 == 0
            elif spec.kind == "evacuate":
                assert spec.until % 1_000 == 0
                assert spec.at % 1_000 != 0
            elif spec.kind == "storm":
                assert spec.at % 1_000 != 0


class TestRunProperties:
    @BOUNDED
    @given(
        seed=st.integers(min_value=0, max_value=10**4),
        index=st.integers(min_value=0, max_value=40),
    )
    def test_same_schedule_runs_byte_identical(self, seed, index):
        """The run is deterministic: counters, ledger and verdict are
        functions of the schedule alone."""
        schedule = generate_schedule(seed, index)
        first = run_scenario(schedule)
        second = run_scenario(schedule)
        assert first.counters == second.counters
        assert first.ledger == second.ledger
        assert first.problems == second.problems


class TestShrinkProperties:
    @BOUNDED
    @given(seed=seeds, index=indices, pick=st.data())
    def test_shrunk_schedule_still_fails_and_validates(
        self, seed, index, pick
    ):
        """Whatever the failure predicate keys on, the shrinker's
        output satisfies it and remains statically valid."""
        schedule = generate_schedule(seed, index)
        if not schedule.actions:
            return
        needed = pick.draw(
            st.sampled_from(schedule.actions), label="needed action",
        )

        def still_fails(candidate):
            return needed in candidate.actions

        smallest = shrink(schedule, still_fails)
        assert still_fails(smallest)
        validate_schedule(smallest)
        assert len(smallest.actions) <= len(schedule.actions)
        assert len(smallest.pingers) <= len(schedule.pingers)
