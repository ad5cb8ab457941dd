"""Scenario validation and the static fault schedule."""

import pytest

from repro.chaos import (
    ChaosScenario,
    CrashMachine,
    Evacuation,
    FlakyLinks,
    MigrationStorm,
    Move,
    Partition,
)
from repro.errors import ConfigError
from repro.kernel.ids import ProcessId

PID = ProcessId(creating_machine=2, local_id=1)


def scenario(*actions, name="test"):
    return ChaosScenario(name, tuple(actions))


class TestValidation:
    def test_valid_schedule_passes(self):
        scenario(
            MigrationStorm(at=10, moves=(Move(PID, 2, 3),)),
            CrashMachine(at=50, machine=3, executor=4),
            Partition(at=20, heal_at=60, group_a=(0, 1), group_b=(2, 3)),
            FlakyLinks(at=70, until=90),
            Evacuation(
                drain_at=100, machine=5, kill_at=200, executor=6,
                dests=(6, 7),
            ),
        ).validate(machines=8)

    def test_crash_machine_out_of_range(self):
        with pytest.raises(ConfigError, match="out of range"):
            scenario(
                CrashMachine(at=1, machine=9, executor=0)
            ).validate(machines=4)

    def test_machine_cannot_execute_its_own_crash(self):
        with pytest.raises(ConfigError, match="own crash executor"):
            scenario(
                CrashMachine(at=1, machine=2, executor=2)
            ).validate(machines=4)

    def test_double_crash_rejected(self):
        with pytest.raises(ConfigError, match="crashed twice"):
            scenario(
                CrashMachine(at=1, machine=2, executor=0),
                CrashMachine(at=9, machine=2, executor=3),
            ).validate(machines=4)

    def test_evacuated_machine_cannot_also_crash(self):
        with pytest.raises(ConfigError, match="crashed twice"):
            scenario(
                CrashMachine(at=1, machine=2, executor=0),
                Evacuation(
                    drain_at=5, machine=2, kill_at=9, executor=3,
                    dests=(3,),
                ),
            ).validate(machines=4)

    def test_dead_executor_rejected(self):
        with pytest.raises(ConfigError, match="already dead"):
            scenario(
                CrashMachine(at=1, machine=2, executor=0),
                CrashMachine(at=9, machine=3, executor=2),
            ).validate(machines=4)

    def test_executor_dying_later_is_fine(self):
        scenario(
            CrashMachine(at=1, machine=2, executor=3),
            CrashMachine(at=9, machine=3, executor=0),
        ).validate(machines=4)

    def test_partition_needs_disjoint_groups(self):
        with pytest.raises(ConfigError, match="overlap"):
            scenario(
                Partition(at=1, heal_at=9, group_a=(0, 1), group_b=(1, 2))
            ).validate(machines=4)

    def test_partition_window_must_be_positive(self):
        with pytest.raises(ConfigError, match="empty or negative"):
            scenario(
                Partition(at=9, heal_at=9, group_a=(0,), group_b=(1,))
            ).validate(machines=4)

    def test_flaky_pair_range_checked(self):
        with pytest.raises(ConfigError, match="out of range"):
            scenario(
                FlakyLinks(at=1, until=9, pairs=((0, 7),))
            ).validate(machines=4)

    def test_storm_needs_moves(self):
        with pytest.raises(ConfigError, match="at least one move"):
            scenario(MigrationStorm(at=1, moves=())).validate(machines=4)

    def test_move_to_self_rejected(self):
        with pytest.raises(ConfigError, match="goes nowhere"):
            scenario(
                MigrationStorm(at=1, moves=(Move(PID, 2, 2),))
            ).validate(machines=4)

    def test_scenario_needs_a_name(self):
        with pytest.raises(ConfigError, match="needs a name"):
            ChaosScenario("", ()).validate(machines=4)

    def test_crash_executor_out_of_range(self):
        with pytest.raises(ConfigError, match="executor 9 out of range"):
            scenario(
                CrashMachine(at=1, machine=2, executor=9)
            ).validate(machines=4)

    def test_crash_time_must_be_non_negative(self):
        with pytest.raises(ConfigError, match="non-negative"):
            scenario(
                CrashMachine(at=-1, machine=2, executor=3)
            ).validate(machines=4)

    def test_partition_needs_non_empty_groups(self):
        with pytest.raises(ConfigError, match="non-empty"):
            scenario(
                Partition(at=1, heal_at=9, group_a=(), group_b=(1,))
            ).validate(machines=4)

    def test_partition_machine_out_of_range(self):
        with pytest.raises(ConfigError, match="out of range"):
            scenario(
                Partition(at=1, heal_at=9, group_a=(0,), group_b=(7,))
            ).validate(machines=4)

    def test_flaky_window_must_be_positive(self):
        with pytest.raises(ConfigError, match="empty or negative"):
            scenario(FlakyLinks(at=9, until=9)).validate(machines=4)

    def test_flaky_self_pair_rejected(self):
        with pytest.raises(ConfigError, match="no wire to itself"):
            scenario(
                FlakyLinks(at=1, until=9, pairs=((2, 2),))
            ).validate(machines=4)

    def test_storm_move_machines_range_checked(self):
        with pytest.raises(ConfigError, match="home 9 out of range"):
            scenario(
                MigrationStorm(at=1, moves=(Move(PID, 9, 3),))
            ).validate(machines=4)
        with pytest.raises(ConfigError, match="dest 9 out of range"):
            scenario(
                MigrationStorm(at=1, moves=(Move(PID, 2, 9),))
            ).validate(machines=4)

    def test_storm_time_must_be_non_negative(self):
        with pytest.raises(ConfigError, match="non-negative"):
            scenario(
                MigrationStorm(at=-1, moves=(Move(PID, 2, 3),))
            ).validate(machines=4)

    def test_evacuation_window_must_be_positive(self):
        with pytest.raises(ConfigError, match="empty or negative"):
            scenario(
                Evacuation(
                    drain_at=9, machine=2, kill_at=9, executor=3,
                    dests=(3,),
                )
            ).validate(machines=4)

    def test_evacuation_machine_and_executor_range_checked(self):
        with pytest.raises(ConfigError, match="evacuated machine 9"):
            scenario(
                Evacuation(
                    drain_at=1, machine=9, kill_at=9, executor=3,
                    dests=(3,),
                )
            ).validate(machines=4)
        with pytest.raises(ConfigError, match="executor 9 out of range"):
            scenario(
                Evacuation(
                    drain_at=1, machine=2, kill_at=9, executor=9,
                    dests=(3,),
                )
            ).validate(machines=4)

    def test_evacuation_cannot_execute_its_own_kill(self):
        with pytest.raises(ConfigError, match="its own kill"):
            scenario(
                Evacuation(
                    drain_at=1, machine=2, kill_at=9, executor=2,
                    dests=(3,),
                )
            ).validate(machines=4)

    def test_evacuation_needs_destinations(self):
        with pytest.raises(ConfigError, match="at least one destination"):
            scenario(
                Evacuation(
                    drain_at=1, machine=2, kill_at=9, executor=3,
                    dests=(),
                )
            ).validate(machines=4)

    def test_evacuation_dest_out_of_range(self):
        with pytest.raises(ConfigError, match="dest 9 out of range"):
            scenario(
                Evacuation(
                    drain_at=1, machine=2, kill_at=9, executor=3,
                    dests=(9,),
                )
            ).validate(machines=4)

    def test_evacuation_dest_cannot_be_the_drained_machine(self):
        with pytest.raises(ConfigError, match="being drained"):
            scenario(
                Evacuation(
                    drain_at=1, machine=2, kill_at=9, executor=3,
                    dests=(2,),
                )
            ).validate(machines=4)


class TestShardSafety:
    """Every action runs sharded; a grid only constrains barrier times."""

    def test_storm_only_scenario_is_shard_safe(self):
        # Storm moves are loop events: any tick will do.
        scenario(
            MigrationStorm(at=1, moves=(Move(PID, 2, 3),))
        ).validate(machines=4, grid=1_000)

    def test_crash_and_evacuation_are_shard_safe(self):
        scenario(
            MigrationStorm(at=1, moves=(Move(PID, 2, 3),)),
            CrashMachine(at=5_000, machine=3, executor=0),
            Evacuation(
                drain_at=7, machine=1, kill_at=9_000, executor=0,
                dests=(0,),
            ),
        ).validate(machines=4, grid=1_000)

    def test_wire_surgery_is_not_shard_safe(self):
        # ...off the grid: every partition and flaky edge is a barrier
        # action, so on the grid both run sharded.
        for surgery in (
            Partition(at=1, heal_at=5, group_a=(0, 1), group_b=(2, 3)),
            FlakyLinks(at=1, until=5),
        ):
            with pytest.raises(ConfigError, match="off the 1000us grid"):
                scenario(surgery).validate(machines=4, grid=1_000)
        scenario(
            Partition(
                at=1_000, heal_at=5_000, group_a=(0, 1), group_b=(2, 3),
            ),
            FlakyLinks(at=6_000, until=9_000),
        ).validate(machines=4, grid=1_000)

    def test_wire_surgery_edges_must_not_collide(self):
        with pytest.raises(ConfigError, match="heal .* collides"):
            scenario(
                Partition(
                    at=1_000, heal_at=5_000, group_a=(0, 1), group_b=(2, 3),
                ),
                MigrationStorm(at=5_000, moves=(Move(PID, 2, 3),)),
            ).validate(machines=4, grid=1_000)


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
            scenario(
                FlakyLinks(at=10, until=50), FlakyLinks(at=20, until=30),
            ).validate(machines=4)

    def test_flaky_window_inside_a_partition_rejected(self):
        with pytest.raises(
            ConfigError,
            match=r"partition \[10, 50\) and flaky window \[20, 60\) "
                  r"overlap",
        ):
            scenario(
                FlakyLinks(at=20, until=60),
                Partition(at=10, heal_at=50, group_a=(0,), group_b=(1,)),
            ).validate(machines=4)

    def test_touching_windows_rejected_disjoint_windows_pass(self):
        # Sharing an edge tick would leave the outcome to same-tick
        # order.
        with pytest.raises(ConfigError, match="overlap"):
            scenario(
                FlakyLinks(at=10, until=20), FlakyLinks(at=20, until=30),
            ).validate(machines=4)
        scenario(
            FlakyLinks(at=10, until=20),
            Partition(at=21, heal_at=30, group_a=(0,), group_b=(1,)),
            FlakyLinks(at=31, until=40, pairs=((0, 1),)),
        ).validate(machines=4)


class TestFaultSchedule:
    def test_schedule_is_static_and_sorted(self):
        s = scenario(
            CrashMachine(at=50, machine=3, executor=4),
            Partition(at=20, heal_at=60, group_a=(1, 0), group_b=(2, 3)),
            MigrationStorm(at=10, moves=(Move(PID, 2, 3),)),
        )
        schedule = s.fault_schedule()
        assert schedule == sorted(schedule)
        assert [entry[:2] for entry in schedule] == [
            (10, "storm-move"),
            (20, "partition"),
            (50, "crash"),
            (60, "heal"),
        ]
        # Pure function of the scenario: identical every call.
        assert s.fault_schedule() == schedule

    def test_evacuation_contributes_drain_and_kill(self):
        s = scenario(
            Evacuation(
                drain_at=5, machine=2, kill_at=9, executor=3,
                dests=(3, 0),
            ),
        )
        assert [entry[1] for entry in s.fault_schedule()] == [
            "drain", "maintenance-kill",
        ]

    def test_flaky_contributes_window_edges(self):
        s = scenario(
            FlakyLinks(at=5, until=9),
            FlakyLinks(at=20, until=30, pairs=((0, 1),)),
        )
        assert [entry[:2] for entry in s.fault_schedule()] == [
            (5, "flaky"), (9, "flaky-end"),
            (20, "flaky"), (30, "flaky-end"),
        ]
        details = [entry[2] for entry in s.fault_schedule()]
        assert details[0] == "all wires"
        assert details[2] == "1 wire pair(s)"

    def test_unprotected_crash_marked(self):
        s = scenario(
            CrashMachine(at=1, machine=2, executor=3, protect=False)
        )
        assert "(unprotected)" in s.fault_schedule()[0][2]
