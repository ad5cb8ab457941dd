"""Scenario validation and the static fault schedule."""

import pytest

from repro.chaos.scenario import ActionSpec, Scenario
from repro.errors import ConfigError
from repro.kernel.ids import ProcessId

PID = ProcessId(creating_machine=2, local_id=1)


def scenario(*actions, servers=(2,), name="test"):
    """A record whose one server (index 0, ``PID``) starts on machine 2."""
    return Scenario(
        name=name, machines=4, seed=0, servers=servers,
        actions=tuple(actions),
    )


def crash(at, machine, executor):
    return ActionSpec(kind="crash", at=at, machine=machine, executor=executor)


def storm(at, *moves):
    return ActionSpec(kind="storm", at=at, moves=moves)


def partition(at, until, group_a, group_b):
    return ActionSpec(
        kind="partition", at=at, until=until, group_a=group_a,
        group_b=group_b,
    )


def flaky(at, until):
    return ActionSpec(kind="flaky", at=at, until=until)


def evacuate(at, machine, until, executor, dests):
    return ActionSpec(
        kind="evacuate", at=at, machine=machine, until=until,
        executor=executor, dests=dests,
    )


class TestValidation:
    def test_valid_schedule_passes(self):
        scenario(
            storm(10, (0, 3)),
            crash(50, 3, 4),
            partition(20, 60, (0, 1), (2, 3)),
            flaky(70, 90),
            evacuate(100, 5, 200, 6, (6, 7)),
        ).check_schedule(machines=8)

    def test_crash_machine_out_of_range(self):
        with pytest.raises(ConfigError, match="out of range"):
            scenario(crash(1, 9, 0)).check_schedule(machines=4)

    def test_machine_cannot_execute_its_own_crash(self):
        with pytest.raises(ConfigError, match="own crash executor"):
            scenario(crash(1, 2, 2)).check_schedule(machines=4)

    def test_double_crash_rejected(self):
        with pytest.raises(ConfigError, match="crashed twice"):
            scenario(
                crash(1, 2, 0), crash(9, 2, 3),
            ).check_schedule(machines=4)

    def test_evacuated_machine_cannot_also_crash(self):
        with pytest.raises(ConfigError, match="crashed twice"):
            scenario(
                crash(1, 2, 0), evacuate(5, 2, 9, 3, (3,)),
            ).check_schedule(machines=4)

    def test_dead_executor_rejected(self):
        with pytest.raises(ConfigError, match="already dead"):
            scenario(
                crash(1, 2, 0), crash(9, 3, 2),
            ).check_schedule(machines=4)

    def test_executor_dying_later_is_fine(self):
        scenario(crash(1, 2, 3), crash(9, 3, 0)).check_schedule(machines=4)

    def test_partition_needs_disjoint_groups(self):
        with pytest.raises(ConfigError, match="overlap"):
            scenario(
                partition(1, 9, (0, 1), (1, 2))
            ).check_schedule(machines=4)

    def test_partition_window_must_be_positive(self):
        with pytest.raises(ConfigError, match="empty or negative"):
            scenario(partition(9, 9, (0,), (1,))).check_schedule(machines=4)

    def test_storm_needs_moves(self):
        with pytest.raises(ConfigError, match="at least one move"):
            scenario(storm(1)).check_schedule(machines=4)

    def test_move_to_self_rejected(self):
        with pytest.raises(ConfigError, match="goes nowhere"):
            scenario(storm(1, (0, 2))).check_schedule(machines=4)

    def test_scenario_needs_a_name(self):
        with pytest.raises(ConfigError, match="needs a name"):
            scenario(name="").check_schedule(machines=4)

    def test_crash_executor_out_of_range(self):
        with pytest.raises(ConfigError, match="executor 9 out of range"):
            scenario(crash(1, 2, 9)).check_schedule(machines=4)

    def test_crash_time_must_be_non_negative(self):
        with pytest.raises(ConfigError, match="non-negative"):
            scenario(crash(-1, 2, 3)).check_schedule(machines=4)

    def test_partition_needs_non_empty_groups(self):
        with pytest.raises(ConfigError, match="non-empty"):
            scenario(partition(1, 9, (), (1,))).check_schedule(machines=4)

    def test_partition_machine_out_of_range(self):
        with pytest.raises(ConfigError, match="out of range"):
            scenario(partition(1, 9, (0,), (7,))).check_schedule(machines=4)

    def test_flaky_window_must_be_positive(self):
        with pytest.raises(ConfigError, match="empty or negative"):
            scenario(flaky(9, 9)).check_schedule(machines=4)

    def test_storm_move_machines_range_checked(self):
        # A move's home is where the one home rule put its server.
        with pytest.raises(ConfigError, match="home 9 out of range"):
            scenario(
                storm(1, (0, 3)), servers=(9,)
            ).check_schedule(machines=4)
        with pytest.raises(ConfigError, match="dest 9 out of range"):
            scenario(storm(1, (0, 9))).check_schedule(machines=4)
        with pytest.raises(ConfigError, match="server index 1 out of range"):
            scenario(storm(1, (1, 3))).check_schedule(machines=4)

    def test_storm_time_must_be_non_negative(self):
        with pytest.raises(ConfigError, match="non-negative"):
            scenario(storm(-1, (0, 3))).check_schedule(machines=4)

    def test_evacuation_window_must_be_positive(self):
        with pytest.raises(ConfigError, match="empty or negative"):
            scenario(
                evacuate(9, 2, 9, 3, (3,))
            ).check_schedule(machines=4)

    def test_evacuation_machine_and_executor_range_checked(self):
        with pytest.raises(ConfigError, match="evacuated machine 9"):
            scenario(
                evacuate(1, 9, 9, 3, (3,))
            ).check_schedule(machines=4)
        with pytest.raises(ConfigError, match="executor 9 out of range"):
            scenario(
                evacuate(1, 2, 9, 9, (3,))
            ).check_schedule(machines=4)

    def test_evacuation_cannot_execute_its_own_kill(self):
        with pytest.raises(ConfigError, match="its own kill"):
            scenario(
                evacuate(1, 2, 9, 2, (3,))
            ).check_schedule(machines=4)

    def test_evacuation_needs_destinations(self):
        with pytest.raises(ConfigError, match="at least one destination"):
            scenario(evacuate(1, 2, 9, 3, ())).check_schedule(machines=4)

    def test_evacuation_dest_out_of_range(self):
        with pytest.raises(ConfigError, match="dest 9 out of range"):
            scenario(evacuate(1, 2, 9, 3, (9,))).check_schedule(machines=4)

    def test_evacuation_dest_cannot_be_the_drained_machine(self):
        with pytest.raises(ConfigError, match="being drained"):
            scenario(evacuate(1, 2, 9, 3, (2,))).check_schedule(machines=4)


class TestShardSafety:
    """Every action runs sharded; a grid only constrains barrier times."""

    def test_storm_only_scenario_is_shard_safe(self):
        # Storm moves are loop events: any tick will do.
        scenario(storm(1, (0, 3))).check_schedule(machines=4, grid=1_000)

    def test_crash_and_evacuation_are_shard_safe(self):
        scenario(
            storm(1, (0, 3)),
            crash(5_000, 3, 0),
            evacuate(7, 1, 9_000, 0, (0,)),
        ).check_schedule(machines=4, grid=1_000)

    def test_wire_surgery_is_not_shard_safe(self):
        # ...off the grid: every partition and flaky edge is a barrier
        # action, so on the grid both run sharded.
        for surgery in (partition(1, 5, (0, 1), (2, 3)), flaky(1, 5)):
            with pytest.raises(ConfigError, match="off the 1000us grid"):
                scenario(surgery).check_schedule(machines=4, grid=1_000)
        scenario(
            partition(1_000, 5_000, (0, 1), (2, 3)),
            flaky(6_000, 9_000),
        ).check_schedule(machines=4, grid=1_000)

    def test_wire_surgery_edges_must_not_collide(self):
        with pytest.raises(ConfigError, match="heal .* collides"):
            scenario(
                partition(1_000, 5_000, (0, 1), (2, 3)),
                storm(5_000, (0, 3)),
            ).check_schedule(machines=4, grid=1_000)


class TestWireWindows:
    """Two wire-surgery windows may not overlap: each window's end
    restores the plan in force when it opened, so an overlap would
    leave wires lossy for good or heal a cut early."""

    def test_nested_flaky_windows_rejected(self):
        with pytest.raises(
            ConfigError,
            match=r"flaky window \[10, 50\) and flaky window \[20, 30\) "
                  r"overlap",
        ):
            scenario(flaky(10, 50), flaky(20, 30)).check_schedule(machines=4)

    def test_flaky_window_inside_a_partition_rejected(self):
        with pytest.raises(
            ConfigError,
            match=r"partition \[10, 50\) and flaky window \[20, 60\) "
                  r"overlap",
        ):
            scenario(
                flaky(20, 60), partition(10, 50, (0,), (1,)),
            ).check_schedule(machines=4)

    def test_touching_windows_rejected_disjoint_windows_pass(self):
        # Sharing an edge tick would leave the outcome to same-tick
        # order.
        with pytest.raises(ConfigError, match="overlap"):
            scenario(flaky(10, 20), flaky(20, 30)).check_schedule(machines=4)
        scenario(
            flaky(10, 20), partition(21, 30, (0,), (1,)), flaky(31, 40),
        ).check_schedule(machines=4)


class TestFaultSchedule:
    def test_schedule_is_static_and_sorted(self):
        s = scenario(
            crash(50, 3, 0),
            partition(20, 60, (1, 0), (2, 3)),
            storm(10, (0, 3)),
        )
        schedule = s.fault_schedule([PID])
        assert schedule == sorted(schedule)
        assert schedule == [
            (10, "storm-move", f"{PID} 2 -> 3"),
            (20, "partition", "[0, 1] | [2, 3]"),
            (50, "crash", "machine 3 -> executor 0"),
            (60, "heal", "[0, 1] | [2, 3]"),
        ]
        # Pure function of the scenario: identical every call.
        assert s.fault_schedule([PID]) == schedule

    def test_evacuation_contributes_drain_and_kill(self):
        s = scenario(evacuate(5, 2, 9, 3, (3, 0)))
        assert [entry[1] for entry in s.fault_schedule([PID])] == [
            "drain", "maintenance-kill",
        ]

    def test_flaky_contributes_window_edges(self):
        s = scenario(flaky(5, 9), flaky(20, 30))
        assert [entry[:2] for entry in s.fault_schedule([PID])] == [
            (5, "flaky"), (9, "flaky-end"),
            (20, "flaky"), (30, "flaky-end"),
        ]
        details = {entry[2] for entry in s.fault_schedule([PID])}
        assert details == {"all wires"}
