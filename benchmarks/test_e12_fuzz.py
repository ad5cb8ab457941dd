"""E12b — Chaos fuzzing: seeded random schedules, gated per draw.

The scripted campaign (E12) gates hand-picked failure scenarios; the
fuzzer samples the scenario space — random crash/partition/flaky/storm/
evacuation schedules under live pinger traffic, every sharded draw run
three ways (classic engine, ``shards=1``, ``shards=2``) with merged
counters and fault ledgers compared byte-for-byte.

Two gates:

- **invariants** — every drawn schedule runs clean: survivor
  invariants, exactly-once transcripts, engine parity, quiescence;
- **determinism** — the whole sweep runs *twice* and the per-schedule
  ledger digests must be byte-identical; the digest vector is then
  diffed against the committed baseline, so a behavior change in any
  fuzzed subsystem (recovery, forwarding, transport, barrier engine)
  shows up as a digest diff even when every invariant still holds.

``test_e12_fuzz_smoke`` is the CI tier (`fuzz-smoke` job);
``test_e12_fuzz`` is the bigger sweep the weekly workflow runs.
"""

from __future__ import annotations

from conftest import print_table, write_bench_artifact

from repro.chaos.fuzz import generate_schedule, run_fuzz

#: the pinned sweep identities (root seed, number of schedules)
SMOKE = {"seed": 1983, "runs": 12}
FULL = {"seed": 1983, "runs": 60}


def _fuzz_and_report(scale: str, name: str) -> None:
    params = FULL if scale == "full" else SMOKE
    first = run_fuzz(**params, shrink_violations=False)
    assert first.ok, (
        "fuzz violations:\n" + "\n".join(
            f"{o.name}: {o.problems}"
            for o in first.violations
        )
    )
    second = run_fuzz(**params, shrink_violations=False)
    assert second.ok

    # THE determinism gate: the same sweep twice — every schedule's
    # fault-ledger digest byte-identical.
    assert first.digests == second.digests, "fuzz sweep is not deterministic"

    sharded = sum(
        1 for i in range(params["runs"])
        if generate_schedule(params["seed"], i).sharded
    )
    metrics: dict[str, int] = {
        "schedules": params["runs"],
        "violations": len(first.violations),
        "sharded_draws": sharded,
        "classic_draws": params["runs"] - sharded,
    }
    for index, digest in enumerate(first.digests):
        metrics[f"digest.{index:03d}"] = digest

    print_table(
        f"E12b: chaos fuzzing ({scale})",
        ["metric", "value"],
        [[key, value] for key, value in sorted(metrics.items())
         if not key.startswith("digest.")],
        notes="every schedule held the survivor invariants; sharded "
              "draws engine-parity checked; two sweeps byte-identical",
    )
    write_bench_artifact(
        name,
        metrics,
        meta={
            "scale": scale,
            "seed": params["seed"],
            "machines": "4-8 (drawn per schedule)",
            "paper": "random failure schedules against the migration "
                     "mechanism: forwarding, recovery and parity gated "
                     "on every draw",
        },
    )


def test_e12_fuzz(bench_once):
    bench_once(_fuzz_and_report, "full", "e12_fuzz")


def test_e12_fuzz_smoke(bench_once):
    bench_once(_fuzz_and_report, "smoke", "e12_fuzz_smoke")
