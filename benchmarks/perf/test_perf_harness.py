"""Self-test of the perf harness: every workload at smoke scale.

    PYTHONPATH=src python -m pytest benchmarks/perf -q

It measures nothing; it checks that the harness still drives the
program (a workload that stops finishing, a counter that stops
repeating, a source file no layer claims) in a few seconds.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import layers
import run
import scenarios

REPO_ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def smoke_results() -> dict[str, dict]:
    """Two fresh-process smoke repeats of every workload."""
    return {
        workload: harness.measure_timed(workload, 0, "smoke", repeats=2)
        for workload in scenarios.WORKLOADS
    }


def test_every_workload_reports_every_end_to_end_metric(smoke_results):
    assert list(smoke_results) == list(scenarios.BUILDERS)
    for workload, result in smoke_results.items():
        assert not result["failures"], (workload, result["failures"])
        assert result["failed"] == 0 and result["fail_ratio"] == 0
        assert set(result["end_to_end"]) == set(harness.END_TO_END)
        for name, entry in result["end_to_end"].items():
            assert entry["value"] > 0, (workload, name)
            assert entry["n"] == 2


def test_digests_repeat_and_the_sharded_arms_agree(smoke_results):
    for workload, result in smoke_results.items():
        # measure_timed turns differing digests into a failed check
        assert not any("digest" in f for f in result["failures"]), workload
    trio, failures = harness.trio_metrics(
        {name: smoke_results[name] for name in scenarios.TORUS_ARMS},
        {
            name: smoke_results[name]["end_to_end"]["wall_s"]["value"]
            for name in harness.TORUS_TRIO
        },
    )
    assert not failures
    assert set(trio) == set(harness.TRIO)
    assert trio["sim.barrier.classic_counter_diffs"] == 0
    shard1 = smoke_results["torus_shard1"]
    for name in ("torus_shard2", "torus_fork2"):
        assert smoke_results[name]["digest"] == shard1["digest"]
        assert smoke_results[name]["extras"]["sync"]["rounds"] > 0
    assert shard1["sim"] == smoke_results["torus_classic"]["sim"]


def test_only_the_lossy_workload_retransmits(smoke_results):
    for workload, result in smoke_results.items():
        ratios = harness.work_ratios(result)
        assert set(ratios) == set(harness.WORK_RATIOS)
        assert ratios["kernel.migration.admin_msgs_per_migration"] == 9
        if workload == "migrate_storm":
            assert ratios["net.transport.drop_share"] > 0
            assert ratios["net.transport.retx_share"] > 0
        else:
            assert ratios["net.transport.retx_share"] == 0, workload
            assert ratios["net.transport.drop_share"] == 0, workload


def test_another_seed_has_its_own_digest(smoke_results):
    other = harness.run_child("migrate_storm", 1, "smoke")
    assert not other["failures"]
    assert other["digest"] != smoke_results["migrate_storm"]["digest"]


def test_call_counts_of_the_traced_run_repeat_exactly():
    first, second = (
        harness.run_child("mesh_churn", 0, "smoke", profile=True)
        for _ in range(2)
    )
    assert first["profile"]["calls"] == second["profile"]["calls"]
    assert first["profile"]["heap_pushes"] == second["profile"]["heap_pushes"]
    assert first["profile"]["calls"]["kernel.ipc"] > 0
    assert set(first["profile"]["self_s"]) == set(layers.LAYERS)


def test_the_layer_map_covers_every_source_file():
    root = REPO_ROOT / "src" / "repro"
    files = sorted(root.rglob("*.py"))
    assert files
    unclaimed = [
        str(path.relative_to(root))
        for path in files
        if layers.repo_layer(path.relative_to(root).as_posix()) is None
    ]
    assert not unclaimed
    assert layers.layer_of(str(root / "net" / "reliable.py")) == (
        "net.transport"
    )
    assert layers.layer_of(str(root / "kernel" / "kernel.py")) == "kernel.ipc"
    assert layers.layer_of(scenarios.__file__) == "workloads"
    assert layers.layer_of("<built-in method _heapq.heappush>") == "python"


def test_metric_names_are_well_formed_and_match_the_manifest():
    manifest = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert manifest["command"] == ["python3", "benchmarks/perf/run.py"]
    assert manifest["paths"] == ["benchmarks/perf"]
    assert {w["name"]: w["why"] for w in manifest["workloads"]} == {
        name: scenarios.WORKLOADS[name] for name in harness.DRIVER_WORKLOADS
    }
    assert set(scenarios.WORKLOADS) - set(harness.DRIVER_WORKLOADS) == {
        "torus_fork2"
    }
    end_to_end = {
        m["name"]: (m["unit"], m["better"], m["bound"])
        for m in manifest["end_to_end"]
    }
    assert end_to_end == {
        name: spec[:3] for name, spec in harness.END_TO_END.items()
    }
    per_layer = {
        m["name"]: (m["unit"], m["better"]) for m in manifest["per_layer"]
    }
    assert per_layer == run.PER_LAYER
    for name in [*end_to_end, *per_layer, *scenarios.WORKLOADS]:
        assert NAME.fullmatch(name), name


def test_the_driver_entry_prints_one_result_line():
    done = subprocess.run(
        [
            sys.executable, str(harness.RUN_PY), "--smoke", "--workload",
            "migrate_storm", "--seed", "3", "--seconds", "1", "--trace", "0",
        ],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(harness.END_TO_END)
