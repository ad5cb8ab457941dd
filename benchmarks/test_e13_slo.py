"""E13 — SLO-driven migration vs queue-depth under an open-loop burst.

The paper leaves the migration *policy* open: §3.1 suggests the process
manager reuse the load information kernels already report, which is what
the e9/e10 queue-depth balancer does.  This experiment measures where
that signal fails, on the scenario :mod:`repro.workloads.slo` defines
once for it and for ``python -m repro slo``.  Two hot echo services
share machine 3; an open-loop arrival burst pushes their combined demand
past one machine's capacity while every client lives elsewhere — so the
backlog piles up in the services' *mailboxes* and machine 3's run queue
never holds more than the two servers.  Run-queue spread stays below the
queue-depth threshold for the whole burst: the queue-depth balancer
never fires and the tail rots.  The latency-aware balancer watches the
windowed p99 of the same domain's request-latency histogram instead,
fires when the SLO is breached for ``sustain`` consecutive windows, and
spreads the pair — latency says *when* to act, load says *where*.

Three gates:

- **headline** — the latency-aware arm's burst-window p99 lands below
  the queue-depth arm's, with more in-SLO replies, while the
  queue-depth arm records *zero* migrations (the blindness itself is
  gated, not assumed);
- **determinism** — both arms run twice and every gated number must be
  identical; the artifact is then diffed against the committed baseline
  by ``scripts/check_bench_regression.py``;
- **conservation** — both arms answer every request they sent (the
  open-loop pool's sent/in-SLO/late/unanswered ledger reconciles).

``test_e13_slo_smoke`` is the CI tier (`slo-smoke` job);
``test_e13_slo`` is the full burst the weekly workflow runs.
"""

from __future__ import annotations

from dataclasses import replace

from conftest import print_table, write_bench_artifact

from repro.workloads import slo
from repro.workloads.slo import SloParams, run_arm

FULL = SloParams()
#: reduced burst for the CI `slo-smoke` job: same shape, shorter window
SMOKE = replace(
    FULL,
    duration=250_000,
    burst_start=80_000,
    burst_end=200_000,
    stop_at=280_000,
    drain_grace_us=120_000,
)
#: the artifact's names for the arm's reply counts
RENAMED = {
    "requests": "replies",
    "replies_in_slo": "in_slo",
    "replies_late": "late",
}


def run_head_to_head(p: SloParams) -> dict:
    """Both arms, each run twice — the determinism gate lives here."""
    metrics: dict = {}
    for latency_aware in (False, True):
        first = run_arm(p, latency_aware)
        second = run_arm(p, latency_aware)
        assert second == first, (
            "arm is not deterministic: "
            + str({
                key: (first[key], second[key])
                for key in first
                if first[key] != second[key]
            })
        )
        if first["first_move_at_us"] is None:
            first["first_move_at_us"] = -1
        prefix = "latency_aware" if latency_aware else "queue_depth"
        for key, value in first.items():
            metrics[f"{prefix}_{RENAMED.get(key, key)}"] = value
    return metrics


def _report(name: str, p: SloParams, metrics: dict) -> None:
    rows = []
    for field in (
        "requests_sent", "in_slo", "late", "p50_us", "p99_us",
        "burst_p99_us", "migrations", "first_move_at_us",
    ):
        rows.append([
            field,
            metrics[f"queue_depth_{field}"],
            metrics[f"latency_aware_{field}"],
        ])
    print_table(
        f"E13: queue-depth vs latency-aware under a x{slo.BURST_FACTOR:g} "
        f"burst ({name})",
        ["metric", "queue-depth", "latency-aware"],
        rows,
        notes="mailbox backlog is invisible to run-queue spread: the "
              "queue-depth arm never migrates; the SLO arm spreads the "
              "hot pair and wins the burst-window p99",
    )
    write_bench_artifact(
        name,
        metrics,
        meta={
            "machines": slo.MACHINES,
            "clients": p.clients,
            "mean_interarrival_us": slo.MEAN_INTERARRIVAL_US,
            "duration_us": p.duration,
            "burst": [p.burst_start, p.burst_end, slo.BURST_FACTOR],
            "p99_slo_us": p.slo_us,
            "balancer": {
                "interval": slo.INTERVAL,
                "threshold": slo.THRESHOLD,
                "sustain": slo.SUSTAIN,
                "cooldown": slo.COOLDOWN,
            },
            "paper": "§3.1 policy question made concrete: queue depth "
                     "misses mailbox overload; windowed p99 does not",
        },
    )


def _check(p: SloParams, metrics: dict) -> None:
    # Same arrival schedule in both arms: open-loop load is identical.
    sent = metrics["queue_depth_requests_sent"]
    assert metrics["latency_aware_requests_sent"] == sent
    for prefix in ("queue_depth", "latency_aware"):
        # Conservation: every request was answered and judged once.
        assert metrics[f"{prefix}_replies"] == sent
        assert metrics[f"{prefix}_unanswered"] == 0
        assert metrics[f"{prefix}_mismatches"] == 0
        assert (
            metrics[f"{prefix}_in_slo"] + metrics[f"{prefix}_late"] == sent
        )
    # The blindness is real: spread never crossed the e11 threshold.
    assert metrics["queue_depth_migrations"] == 0
    assert metrics["queue_depth_first_move_at_us"] == -1
    # ...and it cost the users: the tail sat far beyond the SLO.
    assert metrics["queue_depth_burst_p99_us"] > 2 * p.slo_us
    # The SLO arm saw the breach, moved, and won the burst window.
    assert metrics["latency_aware_slo_breach_samples"] >= slo.SUSTAIN
    assert metrics["latency_aware_migrations"] >= 1
    assert (
        metrics["latency_aware_burst_p99_us"]
        < metrics["queue_depth_burst_p99_us"]
    )
    assert metrics["latency_aware_in_slo"] > metrics["queue_depth_in_slo"]


def test_e13_slo(bench_once):
    metrics = bench_once(run_head_to_head, FULL)
    _report("e13_slo", FULL, metrics)
    _check(FULL, metrics)


def test_e13_slo_smoke(bench_once):
    metrics = bench_once(run_head_to_head, SMOKE)
    _report("e13_slo_smoke", SMOKE, metrics)
    _check(SMOKE, metrics)
