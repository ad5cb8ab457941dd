"""E12 — Chaos campaign: survivor invariants under scripted failure.

The paper's migration mechanism claims to be transparent to its
clients: messages reach a process wherever it is (forwarding
addresses, §4), kernels recover published state after fail-stop
crashes (§1/§4), and reliable delivery rides out network faults (§2).
This experiment stresses all three at once — scripted crashes, a
healing partition, a lossy window, machine evacuation and forced
migration storms, each with a live closed-loop workload — and gates
the campaign's survivor invariants instead of merely logging them.

Two gates:

- **invariants** — every scenario ends with zero violations
  (exactly-once replies, collapsed forwarding chains, no stranded
  addresses, clean recovery bookkeeping, conservation at quiescence);
- **determinism** — the whole campaign runs *twice* and the gated
  counter sets (including the fault-ledger digests) must be
  byte-identical; the artifact is then diffed against the committed
  baseline by ``scripts/check_bench_regression.py``.

``test_e12_chaos_smoke`` is the CI tier (`chaos-smoke` job);
``test_e12_chaos`` is the full campaign the weekly workflow runs.
"""

from __future__ import annotations

from conftest import print_table, write_bench_artifact

from repro.chaos.campaign import SCENARIOS, run_campaign

#: per-scenario system sizes, pinned as run identity in the artifact
MACHINES = {
    "crash": 8, "partition": 8, "evacuate": 8, "fileserver_crash": 8,
    "storm_parity": 8, "crash_parity": 8,
}
MACHINES_FULL = {
    "crash": 12, "partition": 8, "evacuate": 8, "fileserver_crash": 8,
    "storm_parity": 16, "crash_parity": 16,
}

#: per-scenario RNG seeds (see ``repro.chaos.campaign``)
SEEDS = {
    "crash": 1983, "partition": 1984, "evacuate": 1985,
    "storm_parity": 1986, "fileserver_crash": 1987, "crash_parity": 1988,
}


def _campaign_and_report(scale: str, name: str) -> None:
    first = run_campaign(scale)
    assert first.ok, (
        "survivor invariant violations:\n" + "\n".join(first.problems)
    )
    second = run_campaign(scale)
    assert second.ok, (
        "survivor invariant violations (second run):\n"
        + "\n".join(second.problems)
    )

    # THE determinism gate: same seeds, same scenarios — the two runs'
    # gated counters (fault-ledger digests included) must be
    # byte-identical.
    assert second.counters == first.counters, (
        "campaign is not deterministic: "
        + str({
            key: (first.counters.get(key), second.counters.get(key))
            for key in set(first.counters) | set(second.counters)
            if first.counters.get(key) != second.counters.get(key)
        })
    )

    print_table(
        f"E12: chaos campaign ({scale})",
        ["gated counter", "value"],
        [[key, value] for key, value in sorted(first.counters.items())],
        notes="all survivor invariants hold; two consecutive runs "
              "byte-identical",
    )
    write_bench_artifact(
        name,
        first.counters,
        meta={
            "scale": scale,
            "scenarios": list(SCENARIOS),
            "machines": MACHINES_FULL if scale == "full" else MACHINES,
            "seed": SEEDS,
            "paper": "migration transparency under fire: forwarding, "
                     "recovery and reliable delivery gated together",
        },
    )

    # Sanity floors: each scenario actually exercised its fault.
    counters = first.counters
    assert counters["crash.recovered"] >= 1
    assert counters["crash.replies_forwarded"] >= 1
    assert counters["partition.faults.partition"] == 1
    assert counters["partition.casualties"] == 0
    assert counters["evacuate.draining_refusals"] >= 1
    assert counters["evacuate.casualties"] == 0
    assert counters["fileserver_crash.file_errors"] == 0
    assert counters["fileserver_crash.recovered"] >= 1
    assert counters["storm_parity.faults.storm-move"] >= 1
    assert counters["storm_parity.messages_forwarded"] >= 1
    assert counters["crash_parity.recovered"] >= 1
    assert counters["crash_parity.pingers_done"] >= 2
    for scenario in SCENARIOS:
        assert counters.get(f"{scenario}.reply_mismatches", 0) == 0


def test_e12_chaos(bench_once):
    bench_once(_campaign_and_report, "full", "e12_chaos")


def test_e12_chaos_smoke(bench_once):
    bench_once(_campaign_and_report, "smoke", "e12_chaos_smoke")
