"""Tests for the ``python -m repro`` command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.__main__ import EXIT_BROKEN_PIPE, main
from repro.obs.exporters import METRICS_SCHEMA, TRACE_SCHEMA


class TestCli:
    def test_migrate_prints_cost_summary(self, capsys):
        assert main(["migrate", "--dest", "1"]) == 0
        out = capsys.readouterr().out
        assert "admin_messages: 9" in out.replace(" ", "").replace(
            "admin_messages:9", "admin_messages: 9"
        ) or "admin_messages" in out
        assert "success: True" in out

    def test_migrate_custom_machines(self, capsys):
        assert main(["migrate", "--machines", "6", "--source", "2",
                     "--dest", "5"]) == 0
        out = capsys.readouterr().out
        assert "dest: 5" in out

    def test_shell_runs_lines(self, capsys):
        assert main(["shell", "help", "ps"]) == 0
        out = capsys.readouterr().out
        assert "demos$ help" in out
        assert "commands:" in out

    def test_report_prints_headlines(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "migrations: 2 completed" in out
        assert "machines" in out

    def test_report_prints_latency_percentiles(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "request latency: p50" in out
        assert "(40 requests)" in out

    def test_report_pool_size_is_configurable(self, capsys):
        assert main(["report", "--clients", "2", "--requests", "3"]) == 0
        out = capsys.readouterr().out
        assert "(6 requests)" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize("argv, complaint", [
        (["report", "--shards", "3", "--machines", "8"],
         "cannot split 2 aligned unit(s) of 4 machine(s) into 3 shards"),
        (["report", "--shards", "2", "--machines", "8",
          "--backbone-latency", "50"],
         "backbone_latency must be >= latency"),
        (["migrate", "--dest", "9"],
         "--dest 9 is not one of the 4 machines (0..3)"),
    ])
    def test_bad_input_gets_one_line_not_a_traceback(
        self, capsys, argv, complaint,
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"repro: error: {complaint}")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("content, complaint", [
        (None, "cannot read repro file"),
        (..., "cannot read repro file"),
        (b"\xff\xfe not text", "cannot read repro file"),
        (b"{not json", "cannot read repro file"),
        (b"[1, 2, 3]", "is not a JSON object"),
        (b'{"version": 1, "schedule": {"seed": 0}}',
         "does not hold a schedule: KeyError('index')"),
        (b'{"version": 1, "schedule": 7}',
         "does not hold a schedule: TypeError("),
    ], ids=[
        "missing", "unreadable", "not-text", "malformed-json", "not-an-object",
        "missing-field", "wrong-shape",
    ])
    def test_bad_repro_file_gets_one_line_not_a_traceback(
        self, capsys, tmp_path, content, complaint,
    ):
        path = tmp_path / "repro.json"
        if content is ...:
            path.mkdir()  # reading a directory fails even for root
        elif content is not None:
            path.write_bytes(content)
        assert main(["fuzz", "--replay", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro: error: ")
        assert str(path) in captured.err and complaint in captured.err
        assert captured.err.count("\n") == 1


    @pytest.mark.parametrize("edit, complaint", [
        (lambda schedule: schedule.update(servers=[99]),
         "server home 99 out of range"),
        (lambda schedule: schedule["actions"][0].update(kind="meteor"),
         "unknown action kind 'meteor'"),
    ], ids=["server-out-of-range", "unknown-action"])
    def test_unrunnable_repro_file_is_bad_input_not_a_violation(
        self, capsys, tmp_path, edit, complaint,
    ):
        regression = (
            Path(__file__).parents[1] / "chaos" / "regressions"
            / "mid_migration_crash.json"
        )
        payload = json.loads(regression.read_text())
        edit(payload["schedule"])
        path = tmp_path / "repro.json"
        path.write_text(json.dumps(payload))
        assert main(["fuzz", "--replay", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"repro: error: repro file {path} cannot run: {complaint}\n"
        )


    def test_closed_pipe_exits_quietly_with_the_sigpipe_status(
        self, monkeypatch, capsys, tmp_path,
    ):
        with open(tmp_path / "stdout", "w") as backing:
            monkeypatch.setattr(sys, "stdout", _ClosedPipe(backing.fileno()))
            assert main(["shell", "help"]) == EXIT_BROKEN_PIPE == 141
        assert capsys.readouterr().err == ""

    def test_closed_pipe_in_a_real_process(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {
            **os.environ,
            "PYTHONPATH": src if not path else f"{src}{os.pathsep}{path}",
        }
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", "shell", "help", "ps"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        child.stdout.close()  # the reader is gone before the first write
        _, err = child.communicate(timeout=120)
        assert (child.returncode, err) == (EXIT_BROKEN_PIPE, b"")


class _ClosedPipe:
    """A stdout whose reader has gone away: every write and flush
    fails the way a closed pipe does."""

    def __init__(self, fd):
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self._fd


class TestReportSharded:
    def test_text_mode_names_the_shard_count(self, capsys):
        assert main(
            ["report", "--shards", "2", "--requests", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "sharded execution: 2 shards" in out
        assert "lookahead" in out
        # One process shipped no bytes, so the sync line names none.
        assert "records exchanged, " in out
        assert "bytes" not in out.split("shard sync:")[1].splitlines()[0]

    def test_json_mode_carries_shard_count(self, capsys):
        assert main(
            ["report", "--shards", "2", "--requests", "3", "--json"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == METRICS_SCHEMA
        assert document["shards"] == 2
        assert document["report"]["machines"] == 4


class TestReportJson:
    def test_emits_valid_metrics_document(self, capsys):
        assert main(["report", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == METRICS_SCHEMA
        assert document["now_us"] > 0
        assert set(document) >= {
            "counters", "gauges", "histograms", "report",
        }

    def test_report_section_carries_headline_numbers(self, capsys):
        main(["report", "--json"])
        document = json.loads(capsys.readouterr().out)
        report = document["report"]
        assert report["migrations_completed"] == 2
        assert report["admin_messages"] == 18
        assert report["machines"] == 4

    def test_report_json_carries_latency_percentiles(self, capsys):
        main(["report", "--json"])
        document = json.loads(capsys.readouterr().out)
        digest = document["report"]["request_latency"]
        assert digest["count"] == 40
        assert 0 < digest["p50_us"] <= digest["p95_us"] <= digest["p99_us"]
        assert digest["p99_us"] <= digest["max_us"]
        histogram = document["histograms"]["workload.request_latency_us"]
        assert histogram["count"] == 40
        assert histogram["p50"] == digest["p50_us"]

    def test_counters_are_labeled_series(self, capsys):
        main(["report", "--json"])
        document = json.loads(capsys.readouterr().out)
        assert document["counters"]["migration.completed{machine=0}"] == 1
        assert any(
            key.startswith("kernel.messages_delivered{")
            for key in document["counters"]
        )

    def test_migration_histograms_present(self, capsys):
        main(["report", "--json"])
        document = json.loads(capsys.readouterr().out)
        downtime = document["histograms"]["migration.downtime_us"]
        assert downtime["count"] == 2
        assert downtime["min"] > 0


class TestSloCommand:
    def test_prints_one_line_per_policy(self, capsys):
        assert main(["slo", "--clients", "8"]) == 0
        out = capsys.readouterr().out
        assert "p99 SLO 10000us" in out
        assert "queue-depth" in out
        assert "latency-aware" in out

    def test_json_shows_latency_aware_winning_the_burst(self, capsys):
        assert main(["slo", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["slo_us"] == 10_000
        queue, latency = document["policies"]
        assert queue["policy"] == "queue-depth"
        assert latency["policy"] == "latency-aware"
        # The mailbox backlog is invisible to run-queue spread: the
        # queue-depth arm never moves and its tail rots, while the
        # latency-aware arm migrates and lands a lower p99.
        assert queue["migrations"] == 0
        assert queue["first_move_at_us"] is None
        assert latency["migrations"] >= 1
        assert latency["p99_us"] < queue["p99_us"]
        assert latency["replies_in_slo"] > queue["replies_in_slo"]
        assert latency["slo_breach_samples"] >= 2

    def test_text_mode_prints_first_move_time(self, capsys):
        # Default client count: the latency-aware arm migrates, so the
        # text report names the first move's timestamp.
        assert main(["slo"]) == 0
        out = capsys.readouterr().out
        assert "first move t=" in out
        assert "never moved" in out

    def test_slo_threshold_is_configurable(self, capsys):
        assert main(["slo", "--clients", "8", "--slo-us", "25000"]) == 0
        out = capsys.readouterr().out
        assert "p99 SLO 25000us" in out


class TestTraceCommand:
    def test_writes_perfetto_loadable_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", "--out", str(out)]) == 0
        document = json.loads(out.read_text())
        assert document["otherData"]["schema"] == TRACE_SCHEMA
        assert document["displayTimeUnit"] == "ms"

    def test_trace_embeds_metrics_snapshot(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        main(["trace", "--out", str(out)])
        document = json.loads(out.read_text())
        metrics = document["otherData"]["metrics"]
        assert metrics["counters"]["migration.completed{machine=0}"] == 1
        assert "histograms" in metrics

    def test_trace_contains_all_eight_steps_in_order(self, tmp_path,
                                                     capsys):
        out = tmp_path / "trace.json"
        main(["trace", "--out", str(out)])
        document = json.loads(out.read_text())
        (complete,) = [
            e for e in document["traceEvents"] if e["ph"] == "X"
        ]
        steps = complete["args"]["steps"]
        assert sorted(set(steps)) == [1, 2, 3, 4, 5, 6, 7, 8]
        instants = [
            e for e in document["traceEvents"]
            if e["ph"] == "i" and e["args"].get("step")
        ]
        times = [e["ts"] for e in instants]
        assert times == sorted(times)

    def test_trace_includes_forwarding_child_event(self, tmp_path,
                                                   capsys):
        out = tmp_path / "trace.json"
        main(["trace", "--out", str(out)])
        document = json.loads(out.read_text())
        names = {e["name"] for e in document["traceEvents"]}
        assert "FORWARD_HOP" in names

    def test_trace_prints_span_summary(self, tmp_path, capsys):
        main(["trace", "--out", str(tmp_path / "t.json")])
        printed = capsys.readouterr().out
        assert "migrate p0.1 0->2: ok" in printed
        assert "wrote Chrome trace" in printed
