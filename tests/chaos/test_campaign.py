"""Campaign runners, result shaping, and the ``repro chaos`` CLI."""

import json
from dataclasses import replace

import pytest

from repro.__main__ import main
from repro.chaos.campaign import SCENARIOS, CampaignResult, run_campaign
from repro.chaos.runner import ScenarioOutcome, ledger_digest, run_scenario
from repro.chaos.engine import FaultEvent
from repro.errors import ConfigError


class TestResultShaping:
    def test_counters_flatten_by_scenario(self):
        result = CampaignResult(
            scale="smoke",
            outcomes=[
                ScenarioOutcome("a", counters={"x": 1, "y": 2}),
                ScenarioOutcome("b", counters={"x": 7}),
            ],
        )
        assert result.counters == {"a.x": 1, "a.y": 2, "b.x": 7}
        assert result.ok

    def test_problems_carry_scenario_prefix(self):
        result = CampaignResult(
            scale="smoke",
            outcomes=[
                ScenarioOutcome("a"),
                ScenarioOutcome("b", problems=["it broke"]),
            ],
        )
        assert result.problems == ["[b] it broke"]
        assert not result.ok

    def test_ledger_digest_is_stable(self):
        ledger = [
            FaultEvent(10, "crash", "machine 2 -> executor 3"),
            FaultEvent(20, "heal", "[0, 1] | [2, 3]"),
        ]
        assert ledger_digest(ledger) == ledger_digest(list(ledger))
        assert ledger_digest(ledger) != ledger_digest(ledger[:1])
        assert ledger_digest([]) == ledger_digest([])


class TestCampaignRunner:
    def test_unknown_scale_rejected(self):
        with pytest.raises(ConfigError, match="unknown campaign scale"):
            run_campaign("gigantic")

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            run_campaign("smoke", scenarios=["meteor"])

    def test_smoke_evacuate_scenario_holds_invariants(self):
        result = run_campaign("smoke", scenarios=["evacuate"])
        assert result.ok, "\n".join(result.problems)
        outcome = result.outcomes[0]
        assert outcome.counters["draining_refusals"] >= 1
        assert outcome.counters["casualties"] == 0
        assert outcome.counters["recovered"] == 0
        kinds = [event.kind for event in outcome.ledger]
        assert "drain" in kinds and "maintenance-kill" in kinds

    def test_smoke_storm_parity_matches_across_shard_counts(self):
        result = run_campaign("smoke", scenarios=["storm_parity"])
        assert result.ok, "\n".join(result.problems)
        outcome = result.outcomes[0]
        assert outcome.counters["shards"] == 2
        assert outcome.counters["faults.storm-move"] >= 1
        assert outcome.counters["messages_forwarded"] >= 1
        assert outcome.counters["pingers_done"] == 8

    def test_smoke_fileserver_crash_serves_through_the_crash(self):
        result = run_campaign("smoke", scenarios=["fileserver_crash"])
        assert result.ok, "\n".join(result.problems)
        outcome = result.outcomes[0]
        assert outcome.counters["file_errors"] == 0
        assert outcome.counters["file_streams_done"] >= 1
        assert outcome.counters["recovered"] >= 1
        assert outcome.counters["reply_mismatches"] == 0

    def test_smoke_crash_parity_matches_the_classic_engine(self):
        result = run_campaign("smoke", scenarios=["crash_parity"])
        assert result.ok, "\n".join(result.problems)
        outcome = result.outcomes[0]
        assert outcome.counters["variants"] == 3
        assert outcome.counters["recovered"] >= 1
        assert outcome.counters["pingers_done"] >= 2
        assert outcome.counters["faults.crash"] >= 1

    def test_smoke_crash_scenario_recovers_survivors(self):
        result = run_campaign("smoke", scenarios=["crash"])
        assert result.ok, "\n".join(result.problems)
        outcome = result.outcomes[0]
        assert outcome.counters["recovered"] >= 1
        assert outcome.counters["reply_mismatches"] == 0
        assert outcome.counters["probe_round2_forwards"] <= len(
            [e for e in outcome.ledger if e.kind == "storm-move"]
        )


class TestEngineParity:
    """The pool scenarios — closed-loop pool, sweep-and-probe epilogue,
    partitions, flaky windows, crashes, evacuations, file streams —
    run unchanged on every engine, and every variant's counters and
    fault ledger match the first's."""

    @pytest.mark.parametrize(
        "engines", [(1, 2), (0, 1, 2)], ids=["sharded", "every-engine"],
    )
    @pytest.mark.parametrize(
        "name", ["partition", "crash", "evacuate", "fileserver_crash"],
    )
    def test_pool_scenario_runs_on_every_engine(self, name, engines):
        outcome = run_scenario(
            replace(SCENARIOS[name]["smoke"], engines=engines)
        )
        assert outcome.ok, "\n".join(outcome.problems)
        assert outcome.counters["variants"] == len(engines)
        assert outcome.counters["requests_completed"] > 0


class TestChaosCli:
    def test_json_output_round_trips(self, capsys):
        code = main(["chaos", "--scenario", "evacuate", "--json"])
        document = json.loads(capsys.readouterr().out)
        assert code == 0
        assert document["ok"] is True
        assert document["scale"] == "smoke"
        assert document["scenarios"] == ["evacuate"]
        assert document["problems"] == []
        assert document["counters"]["evacuate.draining_refusals"] >= 1

    def test_text_output_prints_ledger_and_verdict(self, capsys):
        code = main(["chaos", "--scenario", "partition"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[partition] ok" in out
        assert "partition:" in out and "heal:" in out
        assert "all survivor invariants hold" in out

    def test_default_runs_every_scenario(self):
        assert tuple(SCENARIOS) == (
            "crash", "partition", "evacuate", "fileserver_crash",
            "storm_parity", "crash_parity",
        )
