"""Tests for scripts/check_bench_regression.py (the CI bench gate)."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = (
    Path(__file__).resolve().parents[2]
    / "scripts" / "check_bench_regression.py"
)

spec = importlib.util.spec_from_file_location("check_bench", SCRIPT)
check_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_bench)


def write_artifact(
    directory: Path, name: str, metrics: dict, meta: dict | None = None,
) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    payload = {
        "schema": check_bench.SCHEMA, "name": name, "metrics": metrics,
    }
    if meta is not None:
        payload["meta"] = meta
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture
def dirs(tmp_path):
    return tmp_path / "results", tmp_path / "baselines"


def run(results, baselines, *extra):
    return check_bench.main([
        "--results", str(results), "--baselines", str(baselines), *extra,
    ])


class TestComparison:
    def test_identical_artifacts_pass(self, dirs, capsys):
        results, baselines = dirs
        write_artifact(results, "e1", {"admin_messages": 9})
        write_artifact(baselines, "e1", {"admin_messages": 9})
        assert run(results, baselines) == 0
        assert "OK" in capsys.readouterr().out

    def test_drift_within_tolerance_passes(self, dirs):
        results, baselines = dirs
        write_artifact(baselines, "e1", {"downtime_us": 1000})
        write_artifact(results, "e1", {"downtime_us": 1100})
        assert run(results, baselines, "--tolerance", "0.2") == 0

    def test_drift_beyond_tolerance_fails(self, dirs, capsys):
        results, baselines = dirs
        write_artifact(baselines, "e1", {"downtime_us": 1000})
        write_artifact(results, "e1", {"downtime_us": 1300})
        assert run(results, baselines, "--tolerance", "0.2") == 1
        assert "downtime_us" in capsys.readouterr().out

    def test_drift_is_relative_and_two_sided(self, dirs):
        results, baselines = dirs
        write_artifact(baselines, "e1", {"v": 1000})
        write_artifact(results, "e1", {"v": 750})
        assert run(results, baselines, "--tolerance", "0.2") == 1
        write_artifact(results, "e1", {"v": 850})
        assert run(results, baselines, "--tolerance", "0.2") == 0

    def test_zero_baseline_requires_exact_match(self, dirs):
        results, baselines = dirs
        write_artifact(baselines, "e1", {"errors": 0})
        write_artifact(results, "e1", {"errors": 1})
        assert run(results, baselines) == 1
        write_artifact(results, "e1", {"errors": 0})
        assert run(results, baselines) == 0

    def test_missing_metric_fails(self, dirs, capsys):
        results, baselines = dirs
        write_artifact(baselines, "e1", {"a": 1, "b": 2})
        write_artifact(results, "e1", {"a": 1})
        assert run(results, baselines) == 1
        assert "disappeared" in capsys.readouterr().out

    def test_new_metric_without_baseline_fails(self, dirs, capsys):
        results, baselines = dirs
        write_artifact(baselines, "e1", {"a": 1})
        write_artifact(results, "e1", {"a": 1, "brand_new": 5})
        assert run(results, baselines) == 1
        assert "'brand_new' has no baseline" in capsys.readouterr().out

    def test_missing_result_artifact_fails(self, dirs, capsys):
        results, baselines = dirs
        results.mkdir()
        write_artifact(baselines, "e1", {"a": 1})
        assert run(results, baselines) == 1
        assert "missing" in capsys.readouterr().out

    def test_result_without_baseline_fails(self, dirs, capsys):
        results, baselines = dirs
        write_artifact(baselines, "e1", {"a": 1})
        write_artifact(results, "e1", {"a": 1})
        write_artifact(results, "e_new", {"fresh": 7})
        assert run(results, baselines) == 1
        out = capsys.readouterr().out
        assert "BENCH_e_new.json" in out
        assert "no committed baseline" in out

    def test_only_glob_scopes_unbaselined_check(self, dirs):
        results, baselines = dirs
        write_artifact(baselines, "e1", {"a": 1})
        write_artifact(results, "e1", {"a": 1})
        write_artifact(results, "e_new", {"fresh": 7})
        # The new artifact is outside the subset this job gates.
        assert run(results, baselines, "--only", "BENCH_e1.json") == 0


class TestMetaIdentity:
    """A result from a differently parameterised run must fail as such,
    not as a pile of metric drifts."""

    def test_matching_meta_passes(self, dirs):
        results, baselines = dirs
        meta = {"machines": 64, "seed": 0}
        write_artifact(baselines, "e11", {"a": 5}, meta=meta)
        write_artifact(results, "e11", {"a": 5}, meta=meta)
        assert run(results, baselines) == 0

    def test_machine_count_mismatch_fails_loudly(self, dirs, capsys):
        results, baselines = dirs
        write_artifact(baselines, "e11", {"a": 5},
                       meta={"machines": 64, "seed": 0})
        write_artifact(results, "e11", {"a": 5},
                       meta={"machines": 8, "seed": 0})
        assert run(results, baselines) == 1
        out = capsys.readouterr().out
        assert "meta.machines mismatch" in out

    def test_seed_mismatch_fails_loudly(self, dirs, capsys):
        results, baselines = dirs
        write_artifact(baselines, "e11", {"a": 5},
                       meta={"machines": 64, "seed": 0})
        write_artifact(results, "e11", {"a": 5},
                       meta={"machines": 64, "seed": 7})
        assert run(results, baselines) == 1
        assert "meta.seed mismatch" in capsys.readouterr().out

    def test_meta_mismatch_suppresses_metric_diff(self, dirs, capsys):
        results, baselines = dirs
        write_artifact(baselines, "e11", {"a": 5},
                       meta={"machines": 64, "seed": 0})
        # Metric wildly off — but the real problem is the wrong machine
        # count, and that is the only problem that should be reported.
        write_artifact(results, "e11", {"a": 50_000},
                       meta={"machines": 8, "seed": 0})
        assert run(results, baselines) == 1
        out = capsys.readouterr().out
        assert "meta.machines mismatch" in out
        assert "drifted" not in out

    def test_result_missing_pinned_key_fails(self, dirs, capsys):
        results, baselines = dirs
        write_artifact(baselines, "e11", {"a": 5},
                       meta={"machines": 64, "seed": 0})
        write_artifact(results, "e11", {"a": 5}, meta={"seed": 0})
        assert run(results, baselines) == 1
        assert "lacks 'machines'" in capsys.readouterr().out

    def test_pre_meta_baseline_notes_but_passes(self, dirs, capsys):
        results, baselines = dirs
        write_artifact(baselines, "e11", {"a": 5})
        write_artifact(results, "e11", {"a": 5},
                       meta={"machines": 64, "seed": 0})
        assert run(results, baselines) == 0
        assert "regenerate the baseline" in capsys.readouterr().out


class TestValidation:
    def test_wrong_schema_rejected(self, dirs, capsys):
        results, baselines = dirs
        write_artifact(baselines, "e1", {"a": 1})
        bad = results / "BENCH_e1.json"
        results.mkdir()
        bad.write_text(json.dumps({
            "schema": "other/v9", "name": "e1", "metrics": {"a": 1},
        }))
        assert run(results, baselines) == 1
        assert "schema" in capsys.readouterr().out

    def test_non_numeric_metric_rejected(self, dirs):
        results, baselines = dirs
        write_artifact(baselines, "e1", {"a": 1})
        results.mkdir()
        (results / "BENCH_e1.json").write_text(json.dumps({
            "schema": check_bench.SCHEMA, "name": "e1",
            "metrics": {"a": "fast"},
        }))
        assert run(results, baselines) == 1

    def test_no_baselines_is_usage_error(self, dirs):
        results, baselines = dirs
        results.mkdir()
        baselines.mkdir()
        assert run(results, baselines) == 2

    def test_negative_tolerance_rejected(self, dirs):
        results, baselines = dirs
        write_artifact(baselines, "e1", {"a": 1})
        write_artifact(results, "e1", {"a": 1})
        with pytest.raises(SystemExit):
            run(results, baselines, "--tolerance", "-0.1")


class TestWallClockDiscipline:
    """Timing is host-dependent: it may ride along in meta but must
    never be a gated metric, and a committed speedup claim must name
    hardware that could actually have produced it."""

    def test_wall_clock_metric_rejected(self, dirs, capsys):
        results, baselines = dirs
        write_artifact(baselines, "e1", {"wall_seconds": 1.5})
        write_artifact(results, "e1", {"wall_seconds": 1.5})
        assert run(results, baselines) == 1
        assert "belongs in 'meta'" in capsys.readouterr().out

    def test_speedup_metric_rejected(self, dirs, capsys):
        results, baselines = dirs
        write_artifact(baselines, "e1", {"speedup_4x": 2.1})
        write_artifact(results, "e1", {"speedup_4x": 2.1})
        assert run(results, baselines) == 1
        assert "wall-clock" in capsys.readouterr().out

    def test_wall_clock_in_meta_is_fine(self, dirs):
        results, baselines = dirs
        meta = {"machines": 8, "seed": 0, "wall_seconds": 1.5}
        write_artifact(baselines, "e1", {"a": 1}, meta=meta)
        write_artifact(results, "e1", {"a": 1}, meta=meta)
        assert run(results, baselines) == 0

    def test_single_core_speedup_claim_fails(self, dirs, capsys):
        results, baselines = dirs
        meta = {"machines": 8, "seed": 0, "cpu_count": 1, "speedup": 2.5}
        write_artifact(baselines, "e1", {"a": 1}, meta=meta)
        write_artifact(results, "e1", {"a": 1}, meta=meta)
        assert run(results, baselines) == 1
        out = capsys.readouterr().out
        assert "single-core host cannot show parallel speedup" in out

    def test_speedup_claim_without_cpu_count_fails(self, dirs, capsys):
        results, baselines = dirs
        meta = {"machines": 8, "seed": 0, "speedup": 2.5}
        write_artifact(baselines, "e1", {"a": 1}, meta=meta)
        write_artifact(results, "e1", {"a": 1}, meta=meta)
        assert run(results, baselines) == 1
        assert "no meta.cpu_count" in capsys.readouterr().out

    def test_honest_claims_pass(self, dirs):
        results, baselines = dirs
        # Sub-1x on one core is honest; above-1x needs the cores.
        for meta in (
            {"machines": 8, "seed": 0, "cpu_count": 1, "speedup": 0.9},
            {"machines": 8, "seed": 0, "cpu_count": 4, "speedup": 2.5},
        ):
            write_artifact(baselines, "e1", {"a": 1}, meta=meta)
            write_artifact(results, "e1", {"a": 1}, meta=meta)
            assert run(results, baselines) == 0


class TestRepoBaselines:
    def test_committed_baselines_are_wellformed(self):
        baselines = SCRIPT.parent.parent / "benchmarks" / "baselines"
        paths = sorted(baselines.glob("BENCH_*.json"))
        assert len(paths) >= 12
        for path in paths:
            document = check_bench.load_artifact(path)
            assert document["metrics"]
            assert check_bench.check_speedup_honesty(
                document["name"], document.get("meta", {}),
            ) == []

    def test_every_baseline_pins_its_run_identity(self):
        baselines = SCRIPT.parent.parent / "benchmarks" / "baselines"
        for path in sorted(baselines.glob("BENCH_*.json")):
            meta = check_bench.load_artifact(path).get("meta", {})
            for key in check_bench.IDENTITY_META_KEYS:
                assert key in meta, f"{path.name} lacks meta.{key}"

    def test_paper_headline_numbers_in_baselines(self):
        baselines = SCRIPT.parent.parent / "benchmarks" / "baselines"
        e1 = check_bench.load_artifact(
            baselines / "BENCH_e1_migration_cost.json"
        )["metrics"]
        # The §6 administrative cost: 9 messages of 6-12 bytes.
        assert e1["admin_messages"] == 9
        assert e1["admin_message_min_bytes"] >= 6
        assert e1["admin_message_max_bytes"] <= 12
        assert e1["resident_bytes"] == 250
        assert e1["swappable_bytes"] == 600
