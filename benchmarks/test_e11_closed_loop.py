"""E11b — Closed-loop latency under migration churn (ROADMAP north star).

The cluster-scale arms gate protocol *counters*; these gate what a
*user* sees.  The clients of the e11 scenario (``e11.py``) are a
closed-loop pool of simulated users (request -> reply -> think), so
the request count is exactly ``clients * requests_per_client`` (the
per-client vector is pinned), and the end-to-end latencies land in the
registry's log-spaced histogram, whose count, sum and p50/p95/p99/max
are gated: a change to migration cost, forwarding or the delivery path
shows up as a percentile shift.  Migration cost lives in the *tail*
(p99 >> p50), the paper's §6 cost analysis as users experience it.
"""

from __future__ import annotations

import e11

PAPER = (
    "§6 cost analysis as request-latency percentiles: migration cost "
    "concentrates in the tail"
)


def check(p: e11.Arm) -> None:
    result = e11.run(p)
    metrics = result.counters
    clients = p.machines * p.clients
    e11.publish(p, {p.shards: result}, metrics, PAPER)
    # Closed loop: the offered load is exactly the configured quota.
    assert result.pool.done
    assert result.pool.request_counts == [p.rounds] * clients
    assert metrics["requests_total"] == clients * p.rounds
    assert metrics["clients_finished"] == clients
    # Every request latency was observed exactly once.
    assert metrics["latency_count"] == metrics["requests_total"]
    # Churn really happened, and some replies chased migrated servers.
    assert metrics["migrations_ok"] >= p.moves
    assert metrics["forwards"] >= 1
    assert metrics["replies_forwarded"] >= 1
    # Migration cost concentrates in the tail.
    assert metrics["latency_p50_us"] <= metrics["latency_p95_us"]
    assert metrics["latency_p95_us"] <= metrics["latency_p99_us"]
    assert metrics["latency_p99_us"] <= metrics["latency_max_us"]


def test_e11_closed_loop(bench_once):
    bench_once(check, e11.CLOSED_LOOP)


def test_e11_closed_loop_smoke(bench_once):
    bench_once(check, e11.CLOSED_LOOP_SMOKE)
