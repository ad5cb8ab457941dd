"""E9 — Load balancing via migration (paper §1 motivation, §7 future work).

"If it is possible to assess the system load dynamically and to
redistribute processes during their lifetimes, a system has the
opportunity to achieve better overall throughput, in spite of the
communication and computation involved in moving a process."

A burst of compute jobs lands on one machine of four.  Static placement
versus the threshold balancer (the paper's missing "strategy routine",
implemented per its own checklist: information collection, improvement
strategy, hysteresis).  The balanced run must win on makespan and mean
completion time by enough to cover migration costs.
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

JOBS = 12
WORK = 80_000  # us of CPU each
MACHINES = 4


def run_load(balanced: bool):
    board = ResultsBoard()
    system = make_bare_system(machines=MACHINES)
    for i in range(JOBS):
        system.loop.call_at(
            100 * i,
            lambda i=i: system.spawn(
                lambda ctx: compute_bound(ctx, total=WORK, board=board),
                machine=0, name=f"job-{i}",
            ),
        )
    balancer = None
    if balanced:
        balancer = ThresholdLoadBalancer(
            system, interval=10_000, threshold=2, sustain=1,
            cooldown=50_000,
        )
        balancer.install()
    system.run(until=JOBS * WORK + 500_000)
    if balancer:
        balancer.stop()
    drain(system, max_events=50_000_000)
    records = board.get("compute")
    assert len(records) == JOBS
    makespan = max(r["finished"] for r in records)
    mean_completion = sum(r["finished"] for r in records) / JOBS
    moved = sum(1 for r in records if len(r["machines"]) > 1)
    migrations = len(system.migration_records())
    return {
        "makespan": makespan,
        "mean_completion": mean_completion,
        "jobs_moved": moved,
        "migrations": migrations,
    }


def run_both():
    return run_load(balanced=False), run_load(balanced=True)


def test_e9_load_balancing_beats_static(bench_once):
    static, balanced = bench_once(run_both)

    print_table(
        "E9: dynamic load balancing vs static placement (paper §1)",
        ["placement", "makespan us", "mean completion us",
         "jobs migrated", "migrations"],
        [
            ["static", static["makespan"],
             round(static["mean_completion"]), 0, static["migrations"]],
            ["balanced", balanced["makespan"],
             round(balanced["mean_completion"]),
             balanced["jobs_moved"], balanced["migrations"]],
        ],
        notes=f"{JOBS} x {WORK}us CPU jobs all arriving on machine 0 "
              f"of {MACHINES}",
    )

    write_bench_artifact(
        "e9_load_balancing",
        {
            "static_makespan_us": static["makespan"],
            "static_mean_completion_us": round(static["mean_completion"]),
            "balanced_makespan_us": balanced["makespan"],
            "balanced_mean_completion_us": round(
                balanced["mean_completion"]
            ),
            "balanced_jobs_moved": balanced["jobs_moved"],
            "balanced_migrations": balanced["migrations"],
        },
        meta={"machines": MACHINES,
              "paper": "§1: better overall throughput in spite of the "
                       "communication and computation of moving"},
    )

    # Static: everything serialises on machine 0.
    assert static["migrations"] == 0
    assert static["makespan"] >= JOBS * WORK

    # Balanced: real migrations happened and throughput improved
    # "in spite of the communication and computation involved".
    assert balanced["migrations"] >= 2
    assert balanced["jobs_moved"] >= 2
    assert balanced["makespan"] < 0.75 * static["makespan"]
    assert balanced["mean_completion"] < static["mean_completion"]
