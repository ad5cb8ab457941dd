"""Regression: crash the *middle* hop of a live forwarding chain.

A server that migrated 1 -> 2 -> 3 leaves a two-link chain behind:
machine 1 forwards to 2, machine 2 forwards to 3.  Fail-stop the middle
hop (machine 2) onto executor 1 — the machine whose own forwarding
entry points *at* the dead machine — while a request is chasing the
chain.  Recovery must overwrite the executor's stale entry with the
dead machine's strictly fresher pointer: the network redirect (2 -> 1)
otherwise turns the stale entry into a routing cycle 1 -> 2 -> 1 that
forwards the request forever and the simulation never quiesces.
"""

from repro.chaos.invariants import survivor_invariants
from repro.policy.recovery import CrashRecoveryManager
from repro.servers.common import lookup_service, rpc
from repro.workloads.pingpong import echo_server
from tests.conftest import drain, make_system

CRASH_DELAY = 5_000


def test_crash_middle_hop_with_traffic_in_flight():
    system = make_system(machines=5)

    def hop_server(ctx):
        yield from echo_server(ctx, service_name="hop")

    pid = system.spawn(hop_server, machine=1, name="hop")
    drain(system)

    # Build the chain: 1 -> 2, then 2 -> 3.  Machine 1's entry stays
    # stale (nothing updates it until traffic provokes a link update).
    assert system.kernel(1).migration.start(pid, 2)
    drain(system)
    assert system.kernel(2).migration.start(pid, 3)
    drain(system)
    assert system.kernel(1).forwarding.lookup(pid).machine == 2
    assert system.kernel(2).forwarding.lookup(pid).machine == 3

    # The client looked the service up before any migration-era traffic,
    # so its request enters the chain at machine 1 and is in flight when
    # the middle hop dies.
    replies = []

    def client(ctx):
        service = yield from lookup_service(ctx, "hop")
        yield ctx.sleep(CRASH_DELAY - 200)
        reply = yield from rpc(ctx, service, "echo", {"n": 1})
        replies.append(reply.payload)
        yield ctx.exit()

    system.spawn(client, machine=0, name="client")
    recovery = CrashRecoveryManager(system)

    def crash():
        recovery.protect_all(2)
        recovery.crash(2, 1)

    system.loop.call_at(system.loop.now + CRASH_DELAY, crash)
    drain(system, max_events=1_000_000)

    assert replies and replies[0]["machine"] == 3
    # The executor's entry now holds the dead machine's fresher pointer.
    assert system.kernel(1).forwarding.lookup(pid).machine == 3
    problems = survivor_invariants(system, recovery=recovery)
    assert not problems, "\n".join(problems)
