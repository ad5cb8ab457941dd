"""E1 — Migration cost breakdown (paper §6).

Paper claims reproduced here:

- administrative cost: **9 control messages**, each in the **6-12 byte**
  range;
- state transfer: exactly **three data moves** — resident state
  (~250 bytes), swappable state (~600 bytes, link-table dependent), and
  the program;
- "For non-trivial processes, the size of the program and data overshadow
  the size of the system information."
"""

from conftest import (
    drain,
    make_bare_system,
    print_table,
    write_bench_artifact,
)

from repro.kernel.ids import ProcessAddress, ProcessId
from repro.kernel.memory import MemoryImage

PROGRAM_SIZES = [1 << 10, 8 << 10, 64 << 10, 256 << 10]
#: the machines every run of this benchmark builds (``meta.machines``)
MACHINES = 4


def typical_links(n: int = 10) -> dict[str, ProcessAddress]:
    """Extra bootstrap links so the link table has the paper's 'typical'
    size (10 entries -> swappable state = 600 bytes)."""
    return {
        f"svc{i}": ProcessAddress(ProcessId(3, 100 + i), 3) for i in range(n)
    }


def migrate_once(program_bytes: int):
    system = make_bare_system(machines=MACHINES, memory_capacity=1 << 30)
    code = program_bytes // 2
    data = program_bytes - code

    def parked(ctx):
        while True:
            yield ctx.receive()

    pid = system.kernel(0).spawn(
        parked, name="subject",
        memory=MemoryImage.sized(code=code, data=data, stack=0),
        extra_links=typical_links(),
    )
    ticket = system.migrate(pid, 1)
    drain(system)
    assert ticket.success
    return ticket.record


def run_sweep():
    return [migrate_once(size) for size in PROGRAM_SIZES]


def test_e1_migration_cost_breakdown(bench_once):
    records = bench_once(run_sweep)

    rows = []
    for size, record in zip(PROGRAM_SIZES, records):
        rows.append([
            f"{size >> 10}KB",
            record.admin_message_count,
            record.admin_bytes,
            record.segment_bytes["resident"],
            record.segment_bytes["swappable"],
            record.segment_bytes["program"],
            record.datamove_chunks,
            record.downtime,
        ])
    print_table(
        "E1: migration cost vs process size (paper §6)",
        ["program", "admin msgs", "admin B", "resident B",
         "swappable B", "program B", "chunks", "downtime us"],
        rows,
        notes="paper: 9 admin msgs of 6-12B; resident ~250B; "
              "swappable ~600B; program dominates",
    )

    metrics = {
        "admin_messages": records[0].admin_message_count,
        "admin_bytes": records[0].admin_bytes,
        "admin_message_min_bytes": min(
            size for _, size in records[0].admin_messages
        ),
        "admin_message_max_bytes": max(
            size for _, size in records[0].admin_messages
        ),
        "resident_bytes": records[0].segment_bytes["resident"],
        "swappable_bytes": records[0].segment_bytes["swappable"],
    }
    for size, record in zip(PROGRAM_SIZES, records):
        metrics[f"downtime_us_{size >> 10}kb"] = record.downtime
        metrics[f"chunks_{size >> 10}kb"] = record.datamove_chunks
    write_bench_artifact(
        "e1_migration_cost", metrics,
        meta={"machines": MACHINES,
              "paper": "9 admin msgs of 6-12B; resident ~250B; "
                       "swappable ~600B"},
    )

    for record in records:
        # "The current DEMOS/MP implementation uses 9 such messages,
        # each message being in the 6-12 byte range."
        assert record.admin_message_count == 9
        assert all(6 <= size <= 12 for _, size in record.admin_messages)
        # Three data moves with the paper's state sizes.
        assert record.segment_bytes["resident"] == 250
        assert record.segment_bytes["swappable"] == 600
        assert set(record.segment_bytes) == {
            "resident", "swappable", "program",
        }

    # Program bytes overshadow system information for non-trivial sizes.
    big = records[-1]
    assert big.segment_bytes["program"] > 100 * (
        big.segment_bytes["resident"] + big.segment_bytes["swappable"]
    )
    # Cost grows with process size (downtime monotone, within noise).
    assert records[-1].downtime > records[0].downtime
