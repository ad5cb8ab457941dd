"""E11 — Cluster-scale protocol throughput (ROADMAP north star).

The e11 scenario (``e11.py``) on ``System``, one balancer domain over
the cluster: a 64-machine mesh with ~1,000 processes, 256- and
1,024-machine tori, and two CI smokes.  The protocol counters (the mix
of migrations, forwards, link updates and admin bytes) are exactly
reproducible and gated, so any change in simulated behaviour shows up
as a baseline diff; events/sec, the number every hot-path PR has to
move, is reported, not gated.
"""

from __future__ import annotations

import e11

PAPER = (
    "§6: migration stays 3 data moves + 9 control messages even at "
    "cluster scale"
)


def check(p: e11.Arm) -> None:
    result = e11.run(p)
    metrics = result.counters
    e11.publish(p, {p.shards: result}, metrics, PAPER)
    # Every client and every compute job finished despite the churn.
    assert metrics["pingers_done"] == p.machines * p.clients
    assert metrics["compute_done"] == metrics["compute_jobs"]
    # Real churn happened: forced server moves plus balancer traffic.
    assert metrics["migrations_ok"] >= p.moves
    assert metrics["balancer_migrations"] >= 1
    # Stale links actually chased processes and were patched.
    assert metrics["forwards"] >= 1
    assert metrics["link_updates_applied"] >= 1
    assert metrics["links_retargeted"] >= 1


def test_e11_cluster_scale(bench_once):
    bench_once(check, e11.CLUSTER_SCALE)


def test_e11_cluster_smoke(bench_once):
    bench_once(check, e11.CLUSTER_SMOKE)


def test_e11_cluster_sparse(bench_once):
    bench_once(check, e11.CLUSTER_SPARSE)


def test_e11_cluster_xsparse(bench_once):
    bench_once(check, e11.CLUSTER_XSPARSE)


def test_e11_sparse_smoke(bench_once):
    bench_once(check, e11.SPARSE_SMOKE)
