"""The host work one kernel round trip costs, counted in function calls.

A caller runs the ``rpc`` helper against a replier: create a reply
link, send on it, receive, destroy it, while the replier receives,
sends the answer and destroys the reply link: seven syscalls per round
trip.  The caller lives on the replier's machine (local) or on the
other one of two (remote, one wire each way).  ``sys.setprofile``
counts every function entered while the system runs dry, so calls per
round trip is a work ratio that reads the same on any host, the
kernel's twin of ``tests/net/test_hop_budget.py``.  Tracing and
metrics are off and the retransmission timeout sits above the round
trip, so nothing but the round trips runs.
"""

import dataclasses
import sys

import pytest

from repro.core.config import SystemConfig
from repro.core.system import System
from repro.kernel.ids import ProcessAddress
from repro.servers.common import rpc
from repro.sim.shard import ShardedSystem
from tests.conftest import count_calls

QUIET_RTO = 1_000_000
CONFIG = SystemConfig(
    machines=2,
    boot_servers=False,
    trace_categories=(),
    metrics_enabled=False,
    rto=QUIET_RTO,
)
LOCAL, REMOTE = 0, 1
#: exact ceilings, calls per round trip, on both engines
BUDGET = {LOCAL: 194, REMOTE: 226}
#: what one round trip is made of, on both engines
SYSCALLS_PER_ROUND_TRIP = 7
EVENTS_PER_ROUND_TRIP = {LOCAL: 7, REMOTE: 13}


def replier(ctx):
    while True:
        message = yield ctx.receive()
        reply_link = message.delivered_link_ids[0]
        yield ctx.send(reply_link, op="pong")
        yield ctx.destroy_link(reply_link)


def work_for(cluster_class, caller_machine, rounds):
    """Calls, syscalls and events of *rounds* round trips, run dry."""
    if cluster_class is System:
        system = System(CONFIG)
    else:
        system = cluster_class(dataclasses.replace(CONFIG, shards=1))
    server = system.spawn(replier, machine=0, name="replier")

    def caller(ctx):
        for _ in range(rounds):
            yield from rpc(ctx, ctx.bootstrap["peer"], "ping")
        yield ctx.exit()

    system.kernel(caller_machine).spawn(
        caller, name="caller",
        extra_links={"peer": ProcessAddress(server, 0)},
    )
    calls = count_calls(system.run)
    stats = [kernel.stats for kernel in system.kernels]
    assert sum(s.processes_exited for s in stats) == 1
    assert sum(n.stats.retransmissions for n in _networks(system)) == 0
    assert system.quiescent()
    return calls, sum(s.syscalls for s in stats), system.events_fired()


def _networks(system):
    return [shard.network for shard in system.shards]


def per_round_trip(cluster_class, caller_machine, few=100, many=300):
    """What *many* round trips add over *few*, per round trip: spawn,
    the first timer and the exit cancel out."""
    low = work_for(cluster_class, caller_machine, few)
    high = work_for(cluster_class, caller_machine, many)
    return [(h - lo) / (many - few) for h, lo in zip(high, low)]


@pytest.mark.skipif(
    sys.getprofile() is not None, reason="another profiler is installed"
)
@pytest.mark.parametrize(
    "caller_machine", [LOCAL, REMOTE], ids=["local", "remote"]
)
class TestIpcBudget:
    def test_a_round_trip_stays_within_its_call_budget(
        self, caller_machine
    ):
        calls, syscalls, events = per_round_trip(System, caller_machine)
        assert syscalls == SYSCALLS_PER_ROUND_TRIP
        assert events == EVENTS_PER_ROUND_TRIP[caller_machine]
        assert calls <= BUDGET[caller_machine], calls

    def test_one_shard_costs_what_the_single_loop_does(
        self, caller_machine
    ):
        # The same kernel code, one drain run on one loop, and no hop
        # records inside the shard: not one call apart.
        classic = per_round_trip(System, caller_machine)
        sharded = per_round_trip(ShardedSystem, caller_machine)
        assert sharded == classic
