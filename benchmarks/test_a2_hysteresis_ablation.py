"""A2 (ablation) — the value of hysteresis in the decision rule (§3.1).

"[the features not usually available include] a hysteresis mechanism to
keep from incurring the cost of migration more often than justified by
the gains."

Same imbalanced workload, three balancer temperaments: none, a trigger-
happy balancer with no hysteresis, and the tuned balancer (sustained-
imbalance requirement + per-process cooldown).  The trigger-happy variant
must migrate far more often without commensurate benefit.
"""

from conftest import (
    drain,
    make_bare_system,
    print_table,
    write_bench_artifact,
)

from repro.policy.load_balancer import ThresholdLoadBalancer
from repro.workloads.compute import compute_bound
from repro.workloads.results import ResultsBoard

JOBS = 10
WORK = 60_000
#: the machines every run of this benchmark builds (``meta.machines``)
MACHINES = 4


def run(mode: str):
    board = ResultsBoard()
    system = make_bare_system(machines=MACHINES)
    for i in range(JOBS):
        system.loop.call_at(
            100 * i,
            lambda: system.spawn(
                lambda ctx: compute_bound(ctx, total=WORK, board=board),
                machine=0,
            ),
        )
    balancer = None
    if mode == "eager":
        balancer = ThresholdLoadBalancer(
            system, interval=2_000, threshold=1, sustain=1, cooldown=0,
        )
    elif mode == "hysteresis":
        balancer = ThresholdLoadBalancer(
            system, interval=10_000, threshold=2, sustain=2,
            cooldown=50_000,
        )
    if balancer is not None:
        balancer.install()
    system.run(until=JOBS * WORK + 400_000)
    if balancer is not None:
        balancer.stop()
    drain(system, max_events=50_000_000)
    records = board.get("compute")
    assert len(records) == JOBS
    return {
        "mode": mode,
        "makespan": max(r["finished"] for r in records),
        "migrations": len(system.migration_records()),
        "admin_bytes": sum(
            r.admin_bytes for r in system.migration_records()
        ),
        "state_bytes": sum(
            r.state_transfer_bytes for r in system.migration_records()
            if r.success
        ),
    }


def run_all():
    return [run("static"), run("eager"), run("hysteresis")]


def test_a2_hysteresis_ablation(bench_once):
    static, eager, tuned = bench_once(run_all)

    print_table(
        "A2 (ablation): hysteresis in the migration decision rule (§3.1)",
        ["balancer", "makespan us", "migrations", "admin bytes",
         "state bytes moved"],
        [
            [r["mode"], r["makespan"], r["migrations"], r["admin_bytes"],
             r["state_bytes"]]
            for r in (static, eager, tuned)
        ],
        notes="eager = threshold 1, no sustain, no cooldown; hysteresis "
              "= the paper's requested damping",
    )

    metrics = {}
    for r in (static, eager, tuned):
        metrics[f"makespan_us_{r['mode']}"] = r["makespan"]
        metrics[f"migrations_{r['mode']}"] = r["migrations"]
        metrics[f"state_bytes_{r['mode']}"] = r["state_bytes"]
    write_bench_artifact(
        "a2_hysteresis_ablation", metrics,
        meta={"machines": MACHINES,
              "paper": "§3.1: hysteresis keeps migration costs from "
                       "exceeding the gains"},
    )

    # The tuned balancer beats static placement.
    assert tuned["makespan"] < static["makespan"]
    # The eager balancer thrashes: an order of magnitude more
    # migrations, far more state moved, and — exactly the failure mode
    # hysteresis exists to prevent — it "incur[s] the cost of migration
    # more often than justified by the gains", ending up *slower than
    # doing nothing at all*.
    assert eager["migrations"] >= 5 * tuned["migrations"]
    assert eager["state_bytes"] > 3 * tuned["state_bytes"]
    assert eager["makespan"] > static["makespan"]
    assert tuned["makespan"] < eager["makespan"] / 2
