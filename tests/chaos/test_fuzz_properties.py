"""Property-based tests for the chaos fuzzer.

Four load-bearing claims get adversarial inputs instead of examples:
every drawn schedule is statically valid (the generator never needs the
runner to reject its output), the whole pipeline is a pure function of
``(seed, index)`` — byte-identical schedule *and* byte-identical run —
the shrinker only ever returns schedules that still satisfy the
caller's failure predicate, and a repro file with one field broken is
either refused up front or builds its systems.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos.engine import ChaosEngine
from repro.chaos.fuzz import (
    generate_schedule,
    load_repro,
    shrink,
    validate_schedule,
)
from repro.chaos.runner import build_cluster, run_scenario
from repro.chaos.scenario import Scenario
from repro.errors import ConfigError
from repro.kernel.ids import ProcessId

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


#: what a mutation writes over one field: wrong types, negatives and a
#: huge number (never over ``machines``: a huge machine count is a
#: valid record for a huge, slow system, not bad input)
BAD_VALUES = ("x", None, [], {}, [[]], 1.5, -1, -(10**9), 10**12)
#: fields naming machines, and how an out-of-range machine *m* fills each
MACHINE_FIELDS = {
    "servers": lambda m: [m], "files": lambda m: [m],
    "pingers": lambda m: [[0, m]], "moves": lambda m: [[0, m]],
    "machine": lambda m: m, "executor": lambda m: m,
    "dests": lambda m: [m], "group_a": lambda m: [m],
}


class TestReproFileProperties:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=seeds, index=indices, pick=st.data())
    def test_a_broken_field_is_refused_or_the_record_builds(
        self, seed, index, pick
    ):
        """``load_repro`` raises :class:`ConfigError`, or every engine
        the record names builds its system and its chaos engine."""
        data = json.loads(json.dumps(generate_schedule(seed, index).to_json()))
        target = data
        if data["actions"] and pick.draw(st.booleans(), label="in action"):
            target = pick.draw(st.sampled_from(data["actions"]))
        how = pick.draw(st.sampled_from(
            ("value", "machine", "kind", "extra", "missing")
        ))
        key = pick.draw(st.sampled_from(sorted(
            set(MACHINE_FIELDS) & set(target) if how == "machine"
            else target
        )))
        if how == "value" and key != "machines":
            target[key] = pick.draw(st.sampled_from(BAD_VALUES))
        elif how == "machine":
            extra = pick.draw(st.integers(0, 3))
            target[key] = MACHINE_FIELDS[key](data["machines"] + extra)
        elif how == "kind":
            (data["actions"] or [data])[0]["kind"] = "meteor"
        elif how == "extra":
            target["bogus"] = 1
        elif how == "missing":
            del target[key]
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "repro.json"
            path.write_text(json.dumps({"version": 2, "schedule": data}))
            try:
                record = load_repro(path)
            except ConfigError:
                return
        pids = [ProcessId(0, i + 1) for i in range(len(record.servers))]
        for shards in record.engines:
            ChaosEngine(build_cluster(record, shards), record, pids)
