"""The host work one complete migration costs, counted in function calls.

A parked subject bounces between the two machines of the ipc budget's
quiet system: each move's ``on_done`` starts the next, so every move
runs inside one ``run()`` and is the whole paper Figure 3-1 protocol —
the nine control messages, the three data moves and, on the wire, one
data packet and one ack per message.  ``sys.setprofile`` counts every
function entered while the moves run dry (``tests.conftest.
count_calls``); the difference between two move counts is the cost of
one move, start-up and the last stop cancelling out.  The kernel's
migration twin of ``tests/kernel/test_ipc_budget.py``.
"""

import dataclasses
import sys

import pytest

from repro.core.system import System
from repro.kernel.memory import MemoryImage
from repro.sim.shard import ShardedSystem
from tests.conftest import count_calls
from tests.kernel.test_ipc_budget import CONFIG

KB = 1 << 10
#: exact ceilings, calls per move, on both engines
BUDGET = {KB: 750.5, 8 * KB: 1_002.5}
#: the paper's §6 count: request, accept, three segment requests,
#: transfer-complete, pending-forwarded, cleanup-complete, restart-ack
ADMIN_MESSAGES_PER_MOVE = 9
#: a data packet and an ack per message: nine control messages plus
#: three data chunks (1 KB) or ten (8 KB: the program is eight)
EVENTS_PER_MOVE = {KB: 24, 8 * KB: 38}


def parked(ctx):
    while True:
        yield ctx.receive()


def work_for(cluster_class, size, moves):
    """Calls and events of *moves* back-to-back migrations of a
    *size*-byte subject, run dry; checks the records on the way."""
    if cluster_class is System:
        system = System(CONFIG)
    else:
        system = cluster_class(dataclasses.replace(CONFIG, shards=1))
    pid = system.kernel(0).spawn(
        parked,
        name="subject",
        memory=MemoryImage.sized(
            code=size // 2, data=size - size // 2, stack=0
        ),
    )
    records = []

    def bounce(ok, record):
        assert ok, record
        records.append(record)
        if len(records) < moves:
            system.migrate(pid, 1 - record.dest, on_done=bounce)

    system.migrate(pid, 1, on_done=bounce)
    calls = count_calls(system.run)
    assert len(records) == moves
    assert all(
        r.admin_message_count == ADMIN_MESSAGES_PER_MOVE for r in records
    )
    networks = [shard.network for shard in system.shards]
    assert sum(n.stats.retransmissions for n in networks) == 0
    assert system.quiescent()
    return calls, system.events_fired()


def per_move(cluster_class, size, few=10, many=30):
    """What *many* moves add over *few*, per move."""
    low = work_for(cluster_class, size, few)
    high = work_for(cluster_class, size, many)
    return [(h - lo) / (many - few) for h, lo in zip(high, low)]


@pytest.mark.skipif(
    sys.getprofile() is not None, reason="another profiler is installed"
)
@pytest.mark.parametrize("size", [KB, 8 * KB], ids=["1k", "8k"])
class TestMigrationBudget:
    def test_a_move_stays_within_its_call_budget(self, size):
        calls, events = per_move(System, size)
        assert events == EVENTS_PER_MOVE[size]
        assert calls <= BUDGET[size], calls

    def test_one_shard_costs_what_the_single_loop_does(self, size):
        # One run() on each engine: the sharded one pays its per-run
        # set-up once, so the moves themselves cost not one call more.
        assert per_move(ShardedSystem, size) == per_move(System, size)
