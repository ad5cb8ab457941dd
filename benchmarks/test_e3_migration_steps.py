"""E3 — The eight-step migration protocol (paper Figure 3-1).

Regenerates the figure as a timeline: each step, the machine that drives
it, and its simulated timestamp; asserts the ordering and the division of
control the paper describes (steps 3-5 "will be controlled by the
destination processor kernel", step 6-7 by the source, step 8 by the
destination).
"""

from conftest import (
    drain,
    make_bare_system,
    print_table,
    write_bench_artifact,
)

#: step trace event -> (paper step number, controlling side)
STEP_CONTROL = {
    "step1-freeze": (1, "source"),
    "step2-request": (2, "source"),
    "step3-allocate": (3, "destination"),
    "step4-state": (4, "destination"),
    "step5-program": (5, "destination"),
    "step6-forward-pending": (6, "source"),
    "step7-cleanup": (7, "source"),
    "step8-restart": (8, "destination"),
}

#: the machines every run of this benchmark builds (``meta.machines``)
MACHINES = 4


def run_migration():
    system = make_bare_system(machines=MACHINES)

    def parked(ctx):
        while True:
            yield ctx.receive()

    pid = system.spawn(parked, machine=0)
    ticket = system.migrate(pid, 1)
    drain(system)
    assert ticket.success
    steps = [
        (r.time, r.event)
        for r in system.tracer.records("migrate")
        if r.event.startswith("step")
    ]
    return steps, ticket.record


def test_e3_step_timeline(bench_once):
    steps, record = bench_once(run_migration)

    rows = []
    for time, event in steps:
        number, side = STEP_CONTROL[event]
        rows.append([number, event, side, time])
    print_table(
        "E3: the 8-step migration protocol (Figure 3-1)",
        ["step", "event", "controlled by", "t (us)"],
        rows,
        notes=f"downtime={record.downtime}us "
              f"(freeze to restart), total={record.duration}us",
    )

    first_seen: dict[int, int] = {}
    for time, event in steps:
        first_seen.setdefault(STEP_CONTROL[event][0], time)
    metrics = {
        f"t_step{number}_us": time
        for number, time in sorted(first_seen.items())
    }
    metrics["downtime_us"] = record.downtime
    metrics["duration_us"] = record.duration
    write_bench_artifact(
        "e3_migration_steps", metrics,
        meta={"machines": MACHINES,
              "paper": "Figure 3-1: 8-step protocol, downtime spans "
                       "freeze to restart"},
    )

    # Step numbers never decrease (step 4 fires twice: resident +
    # swappable state are both part of "transfer the process state").
    numbers = [STEP_CONTROL[event][0] for _, event in steps]
    assert numbers == sorted(numbers)
    assert numbers[0] == 1 and numbers[-1] == 8

    # Timestamps are monotone.
    times = [time for time, _ in steps]
    assert times == sorted(times)

    # Control: 2 -> destination handoff -> back to source at 6 -> dest at 8.
    sides = [STEP_CONTROL[event][1] for _, event in steps]
    assert sides == [
        "source", "source",
        "destination", "destination", "destination", "destination",
        "source", "source",
        "destination",
    ][:len(sides)]

    # The process is unrunnable exactly from step 1 until step 8.
    assert record.downtime == times[-1] - times[0]
