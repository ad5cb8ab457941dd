"""The chaos fuzzer: generation, running, shrinking, repro files.

The committed regressions under ``tests/chaos/regressions/`` are
schedules the fuzzer once minimized from real violations (e.g. the
mid-migration source crash that lost a forwarding address); the loader
test replays every file and asserts the bug stays fixed.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.chaos.campaign import SCENARIOS
from repro.chaos.fuzz import (
    generate_schedule,
    load_repro,
    replay,
    run_fuzz,
    shrink,
    validate_schedule,
    write_repro,
)
from repro.chaos.runner import run_scenario
from repro.chaos.scenario import ActionSpec, Scenario
from repro.errors import ConfigError
from repro.__main__ import main

REGRESSIONS = sorted(
    (Path(__file__).parent / "regressions").glob("*.json")
)


class TestGeneration:
    def test_same_seed_and_index_reproduce_the_schedule(self):
        assert generate_schedule(7, 3) == generate_schedule(7, 3)

    def test_draws_are_independent_of_each_other(self):
        # Schedule 5 is the same whether or not draws 0..4 happened.
        assert generate_schedule(7, 5) == generate_schedule(7, 5)
        assert generate_schedule(7, 5) != generate_schedule(8, 5)

    def test_generated_schedules_always_validate(self):
        for index in range(50):
            validate_schedule(generate_schedule(2026, index))

    def test_evacuation_dest_draw_clamps_to_a_thin_pool(self):
        # Hypothesis-found: with prior deaths on a small system, the
        # evacuation-destination pool can hold a single machine while
        # the generator wanted to draw two (ValueError from
        # rng.sample); the draw is clamped to the pool.
        validate_schedule(generate_schedule(217, 280))

    def test_victims_never_host_pinger_clients(self):
        # Fail-stop abandons a dead machine's unacked sends, so a
        # recovered mid-RPC client may hang legally; the generator keeps
        # client machines out of the victim pool to keep the completion
        # gate meaningful.
        for index in range(80):
            schedule = generate_schedule(11, index)
            clients = {client for _, client in schedule.pingers}
            victims = {
                spec.machine for spec in schedule.actions
                if spec.kind in ("crash", "evacuate")
            }
            assert not victims & clients
            assert not victims & {0, 1}

    def test_sharded_draws_carry_only_shard_safe_actions(self):
        saw_sharded = False
        for index in range(40):
            schedule = generate_schedule(3, index)
            if not schedule.sharded:
                continue
            saw_sharded = True
            assert schedule.machines % 2 == 0
            assert schedule.topology == "torus"
            kinds = {spec.kind for spec in schedule.actions}
            assert not kinds & {"partition", "flaky"}
        assert saw_sharded


class TestValidation:
    """Hand-built invalid schedules hit every static check."""

    def base(self, **overrides):
        fields = dict(
            name="t", seed=1, machines=4, topology="mesh",
            engines=(0,), servers=(1,), pingers=((0, 2),), rounds=2,
            actions=(
                ActionSpec(
                    kind="crash", at=20_000, machine=2, executor=3,
                ),
            ),
        )
        fields.update(overrides)
        return Scenario(**fields)

    def test_base_schedule_is_valid(self):
        validate_schedule(self.base())

    def test_unknown_action_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown action kind"):
            validate_schedule(self.base(
                actions=(ActionSpec(kind="meteor", at=20_000),),
            ))

    def test_server_home_out_of_range(self):
        with pytest.raises(ConfigError, match="server home 9"):
            validate_schedule(self.base(servers=(9,)))

    def test_pinger_server_index_out_of_range(self):
        with pytest.raises(ConfigError, match="pinger server index 5"):
            validate_schedule(self.base(pingers=((5, 2),)))

    def test_pinger_machine_out_of_range(self):
        with pytest.raises(ConfigError, match="pinger machine 9"):
            validate_schedule(self.base(pingers=((0, 9),)))

    def test_rounds_floor(self):
        with pytest.raises(ConfigError, match="at least one pinger"):
            validate_schedule(self.base(rounds=0))

    def test_sharded_needs_even_machines(self):
        with pytest.raises(ConfigError, match="do not split into 2 shards"):
            validate_schedule(self.base(
                engines=(0, 1, 2), topology="torus", machines=5,
                servers=(1,), pingers=((0, 2),),
            ))

    def test_every_engine_must_build_its_system(self):
        # 6 torus machines are two rows of 3; rows stay whole, so three
        # shards do not fit, though 6 divides by 3.
        with pytest.raises(ConfigError, match="cannot split 2 aligned"):
            validate_schedule(self.base(
                engines=(0, 3), topology="torus", machines=6,
            ))

    def test_sharded_rejects_wire_surgery(self):
        # ...off the grid; the same window on it validates.
        offgrid = ActionSpec(
            kind="flaky", at=20_037, until=29_000,
            drop_permille=100, jitter=10,
        )
        with pytest.raises(ConfigError, match="off the 1000us grid"):
            validate_schedule(self.base(
                engines=(0, 1, 2), topology="torus", actions=(offgrid,),
            ))
        validate_schedule(self.base(
            engines=(0, 1, 2), topology="torus",
            actions=(replace(offgrid, at=20_000),),
        ))

    def test_sharded_crash_must_sit_on_the_grid(self):
        with pytest.raises(ConfigError, match="off the 1000us grid"):
            validate_schedule(self.base(
                engines=(0, 1, 2), topology="torus",
                actions=(
                    ActionSpec(
                        kind="crash", at=20_037, machine=2, executor=3,
                    ),
                ),
            ))

    def test_sharded_barrier_times_must_not_collide(self):
        with pytest.raises(ConfigError, match="collides"):
            validate_schedule(self.base(
                engines=(0, 1, 2), topology="torus",
                actions=(
                    ActionSpec(
                        kind="crash", at=20_000, machine=2, executor=0,
                    ),
                    ActionSpec(
                        kind="crash", at=20_000, machine=3, executor=0,
                    ),
                ),
            ))


class TestRunning:
    def test_classic_schedule_runs_clean(self):
        schedule = generate_schedule(77, 0)
        assert not schedule.sharded
        outcome = run_scenario(schedule)
        assert outcome.ok, outcome.problems
        assert outcome.counters["pingers_done"] == len(schedule.pingers)

    def test_sharded_schedule_passes_the_parity_oracle(self):
        schedule = generate_schedule(77, 1)
        assert schedule.sharded
        outcome = run_scenario(schedule)
        assert outcome.ok, outcome.problems

    def test_same_schedule_twice_is_byte_identical(self):
        schedule = generate_schedule(77, 2)
        first = run_scenario(schedule)
        second = run_scenario(schedule)
        assert first.counters == second.counters
        assert first.ledger == second.ledger

    def test_a_spent_budget_is_a_problem_on_every_engine(self):
        # One hang guard: the runner's event budget stops the sharded
        # engines exactly as the single loop's stops the classic one,
        # and a spent budget is a verdict, not an exception.
        schedule = generate_schedule(77, 1)
        assert schedule.engines == (0, 1, 2)
        outcome = run_scenario(schedule, budget=10)
        for label in ("classic", "shards=1", "shards=2"):
            assert (
                f"({label}) simulation did not quiesce within 10 events"
                in outcome.problems
            )

    def test_fuzz_report_digests_are_deterministic(self):
        first = run_fuzz(seed=42, runs=4)
        second = run_fuzz(seed=42, runs=4)
        assert first.ok and second.ok
        assert first.digests == second.digests
        assert len(first.digests) == 4


class TestShrinking:
    def test_shrinker_drops_irrelevant_components(self):
        schedule = generate_schedule(77, 10)
        assert len(schedule.actions) >= 2

        # Synthetic predicate: the violation only needs the first
        # action; everything else is noise the shrinker should remove.
        needed = schedule.actions[0]

        def still_fails(candidate):
            return needed in candidate.actions

        smallest = shrink(schedule, still_fails)
        assert smallest.actions == (needed,)
        assert len(smallest.pingers) <= 1
        assert smallest.rounds <= schedule.rounds
        validate_schedule(smallest)

    def test_invalid_candidates_are_skipped_for_free(self):
        # Dropping the crash would re-home the server onto machine 1,
        # turning the storm move into a no-op ("goes nowhere") — an
        # invalid candidate the shrinker must skip, not crash on.
        schedule = Scenario(
            name="t", seed=1, machines=4, topology="mesh",
            servers=(1,), pingers=((0, 3),), rounds=2,
            actions=(
                ActionSpec(
                    kind="crash", at=20_000, machine=1, executor=2,
                ),
                ActionSpec(kind="storm", at=35_037, moves=((0, 1),)),
            ),
        )
        validate_schedule(schedule)

        def still_fails(candidate):
            return any(a.kind == "storm" for a in candidate.actions)

        smallest = shrink(schedule, still_fails)
        # The crash survives (removing it is invalid), the storm
        # survives (the predicate needs it), the pinger is shed.
        assert len(smallest.actions) == 2
        assert not smallest.pingers

    def test_shrinker_never_returns_a_passing_schedule(self):
        schedule = generate_schedule(77, 10)

        def still_fails(candidate):
            return len(candidate.actions) >= 1

        smallest = shrink(schedule, still_fails)
        assert still_fails(smallest)


class TestReproFiles:
    def test_json_round_trip_is_exact(self):
        schedule = generate_schedule(9, 4)
        data = json.loads(json.dumps(schedule.to_json()))
        assert Scenario.from_json(data) == schedule

    def test_write_and_load_repro(self, tmp_path):
        schedule = generate_schedule(9, 4)
        path = write_repro(
            tmp_path / "r.json", schedule, ["problem"], note="why",
        )
        assert load_repro(path) == schedule
        payload = json.loads(path.read_text())
        assert payload["violations"] == ["problem"]
        assert payload["note"] == "why"

    @pytest.mark.parametrize("scale", ["smoke", "full"])
    def test_every_campaign_record_round_trips(self, scale):
        for name, table in SCENARIOS.items():
            record = table[scale]
            data = json.loads(json.dumps(record.to_json()))
            assert Scenario.from_json(data) == record, name

    def test_version_1_file_reads_as_the_record(self, tmp_path):
        (path,) = [p for p in REGRESSIONS if p.stem == "mid_migration_crash"]
        assert json.loads(path.read_text())["version"] == 1
        record = load_repro(path)
        assert record.name == "fuzz-1983-5"
        assert record.seed == 3946362892
        assert record.engines == (0,)
        assert record.prefix == "fuzz-echo"
        assert [spec.kind for spec in record.actions] == [
            "storm", "evacuate",
        ]
        rewritten = write_repro(tmp_path / "v2.json", record, [])
        assert json.loads(rewritten.read_text())["version"] == 2
        assert load_repro(rewritten) == record

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"version": 99, "schedule": {}}))
        with pytest.raises(ConfigError, match="version"):
            load_repro(path)

    @pytest.mark.parametrize("edit, complaint", [
        ({"topology": "bogus"}, "unknown topology 'bogus'"),
        # a shape older records could name, since removed
        ({"topology": "hypercube", "machines": 8},
         "unknown topology 'hypercube'"),
        ({"latency": -5}, "latency must be >= 0"),
        ({"pinger_start": -1e9}, "pinger_start -1000000000.0 is negative"),
        ({"jitter": -1}, "background jitter -1 is negative"),
        ({"drop_permille": 2000},
         "background drop_permille 2000 is not in 0..1000"),
        ({"actions": [{"kind": "flaky", "at": 50_037, "until": 59_000,
                       "drop_permille": -3}]},
         "flaky window drop_permille -3 is not in 0..1000"),
    ], ids=[
        "unknown-topology", "hypercube-no-longer-built", "negative-latency",
        "negative-pinger-start", "negative-jitter", "drop-over-1000",
        "flaky-drop-negative",
    ])
    def test_record_that_cannot_build_its_system_is_a_usage_error(
        self, capsys, tmp_path, edit, complaint,
    ):
        (regression,) = [
            p for p in REGRESSIONS if p.stem == "mid_migration_crash"
        ]
        payload = json.loads(regression.read_text())
        payload["schedule"].update(edit)
        path = tmp_path / "r.json"
        path.write_text(json.dumps(payload))
        assert main(["fuzz", "--replay", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"repro: error: repro file {path} cannot run: {complaint}"
        )
        assert captured.err.count("\n") == 1

    def test_violations_are_shrunk_and_written(self, tmp_path):
        # Force a violation with an impossible event budget: every
        # schedule "fails", so the session must shrink and write repros.
        report = run_fuzz(seed=5, runs=1, budget=10, out_dir=tmp_path)
        assert not report.ok
        assert report.repro_paths
        written = load_repro(report.repro_paths[0])
        validate_schedule(written)


class TestCommittedRegressions:
    """Replay every promoted repro file; the bug must stay fixed."""

    def test_regressions_exist(self):
        assert REGRESSIONS, "no committed fuzz regressions found"

    @pytest.mark.parametrize(
        "path", REGRESSIONS, ids=lambda p: p.stem,
    )
    def test_regression_replays_clean(self, path):
        outcome = replay(path)
        assert outcome.ok, (
            f"{path.name} regressed:\n" + "\n".join(outcome.problems)
        )


class TestCli:
    def test_fuzz_command_exits_zero_on_clean_sweep(self, capsys):
        assert main(["fuzz", "--seed", "42", "--runs", "2"]) == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_fuzz_command_json_mode(self, capsys):
        assert main(
            ["fuzz", "--seed", "42", "--runs", "2", "--json"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is True
        assert len(document["digests"]) == 2

    def test_fuzz_command_exits_nonzero_on_violation(self, tmp_path, capsys):
        code = main([
            "fuzz", "--seed", "5", "--runs", "1", "--budget", "10",
            "--out", str(tmp_path),
        ])
        assert code == 1
        assert "repro written" in capsys.readouterr().out

    def test_replay_command(self, capsys):
        path = str(REGRESSIONS[0])
        assert main(["fuzz", "--replay", path]) == 0
        assert "ok" in capsys.readouterr().out

    def test_replay_command_json_mode(self, capsys):
        path = str(REGRESSIONS[0])
        assert main(["fuzz", "--replay", path, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is True
        assert document["replay"] == path
        assert document["problems"] == []

    def test_replay_command_reports_violations(self, capsys):
        # A starvation budget turns the replay into a violation, so the
        # text mode prints the verdict and every problem line.
        path = str(REGRESSIONS[0])
        assert main(["fuzz", "--replay", path, "--budget", "10"]) == 1
        out = capsys.readouterr().out
        assert "VIOLATION" in out
        assert "did not quiesce" in out

    def test_fuzz_command_json_mode_carries_violations(
        self, tmp_path, capsys,
    ):
        code = main([
            "fuzz", "--seed", "5", "--runs", "1", "--budget", "10",
            "--out", str(tmp_path), "--json",
        ])
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is False
        (violation,) = document["violations"]
        assert violation["scenario"] == "fuzz-5-0"
        assert violation["problems"]
        assert document["repro_paths"]
