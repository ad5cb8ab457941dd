"""E10 — Migration cost versus pending message queue depth (paper §6).

"In addition, each message that is pending in the queue for the migrating
process must be forwarded to the destination machine.  The cost for each
of these messages is the same as for any other inter-machine message."

The series freezes a process with 0..128 queued messages, migrates it,
and shows the pending-forward count and the extra cost scaling linearly —
while the administrative message count stays pinned at nine.
"""

from conftest import (
    drain,
    make_bare_system,
    print_table,
    write_bench_artifact,
)

from repro.kernel.ids import ProcessAddress
from repro.kernel.messages import MessageKind

QUEUE_DEPTHS = [0, 4, 16, 64, 128]
#: the machines every run of this benchmark builds (``meta.machines``)
MACHINES = 4


def migrate_with_queue(depth: int):
    system = make_bare_system(machines=MACHINES)

    def receiver(ctx):
        received = 0
        while received < depth:
            yield ctx.receive()
            received += 1
        while True:
            yield ctx.receive()

    pid = system.spawn(receiver, machine=0)
    # Freeze first, then stuff the queue: messages arriving while the
    # process is IN_MIGRATION are exactly the "pending" messages of §6.
    ticket = system.migrate(pid, 1)
    kernel = system.kernel(0)
    for i in range(depth):
        kernel.send_to_process(
            ProcessAddress(pid, 0), "pending", i, kind=MessageKind.USER,
        )
    drain(system)
    assert ticket.success
    state = system.process_state(pid)
    # Every pending message was delivered on the destination.
    assert state.accounting.messages_received == depth
    return ticket.record


def run_series():
    return [migrate_with_queue(depth) for depth in QUEUE_DEPTHS]


def test_e10_pending_queue_cost(bench_once):
    records = bench_once(run_series)

    rows = []
    for depth, record in zip(QUEUE_DEPTHS, records):
        rows.append([
            depth, record.pending_forwarded, record.admin_message_count,
            record.duration,
        ])
    print_table(
        "E10: migration cost vs pending queue depth (paper §6)",
        ["queued msgs", "forwarded in step 6", "admin msgs",
         "total duration us"],
        rows,
        notes="pending messages ride the normal inter-machine path; "
              "the 9-message administrative cost is flat",
    )

    metrics = {"admin_messages": records[0].admin_message_count}
    for depth, record in zip(QUEUE_DEPTHS, records):
        metrics[f"duration_us_depth{depth}"] = record.duration
        metrics[f"pending_forwarded_depth{depth}"] = (
            record.pending_forwarded
        )
    write_bench_artifact(
        "e10_queue_depth", metrics,
        meta={"machines": MACHINES,
              "paper": "§6: pending messages ride the normal "
                       "inter-machine path; admin cost stays 9 messages"},
    )

    for depth, record in zip(QUEUE_DEPTHS, records):
        assert record.pending_forwarded == depth
        assert record.admin_message_count == 9

    # Cost grows with queue depth, roughly linearly.
    durations = [r.duration for r in records]
    assert durations[-1] > durations[0]
    shallow_slope = (durations[1] - durations[0]) / 4
    deep_slope = (durations[-1] - durations[-2]) / 64
    assert deep_slope < shallow_slope * 5  # no superlinear blow-up
