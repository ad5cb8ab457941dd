"""E7 — Forwarding vs the rejected return-to-sender alternative (§4).

"An alternative to message forwarding is to return messages to their
senders as not deliverable. ... The disadvantage of this scheme is that
... more of the system would be involved in message forwarding and would
have to be aware of process migration.  This method also violates the
transparency of communications fundamental to DEMOS/MP."

Both designs run the same stale-link workload; the table compares the
extra machinery each needs per stale message.
"""

from conftest import (
    drain,
    make_system,
    print_table,
    write_bench_artifact,
)

from repro.kernel.forwarding import UndeliverablePolicy
from repro.workloads.pingpong import echo_server, pinger
from repro.workloads.results import ResultsBoard

ROUNDS = 8
#: the machines every run of this benchmark builds (``meta.machines``)
MACHINES = 4


def run_policy(policy: str):
    kwargs = dict(notify_process_manager=True)
    if policy == "return-to-sender":
        kwargs.update(
            undeliverable_policy=UndeliverablePolicy.RETURN_TO_SENDER,
            leave_forwarding_address=False,
        )
    board = ResultsBoard()
    system = make_system(machines=MACHINES, **kwargs)
    box = {}

    def server(ctx):
        box["pid"] = ctx.pid
        yield from echo_server(ctx)

    system.spawn(server, machine=0, name="echo")
    system.spawn(
        lambda ctx: pinger(ctx, rounds=ROUNDS, gap=6_000, board=board,
                           key="e7"),
        machine=3, name="pinger",
    )
    system.loop.call_at(10_000, lambda: system.migrate(box["pid"], 1))
    drain(system, max_events=20_000_000)

    transcript = board.only("e7-summary")["transcript"]
    sends = system.network.stats.sends_by_category
    return {
        "policy": policy,
        "rounds_ok": [t["round"] for t in transcript] == list(range(ROUNDS)),
        "latencies": [t["latency"] for t in transcript],
        "nacks": sends.get("nack", 0),
        "locates": sends.get("locate", 0),
        "linkupdates": sends.get("linkupdate", 0),
        "residual_bytes": sum(
            k.forwarding.storage_bytes for k in system.kernels
        ),
        "pm_involved": sends.get("locate", 0) > 0,
    }


def run_both():
    return [run_policy("forwarding"), run_policy("return-to-sender")]


def test_e7_forwarding_vs_return_to_sender(bench_once):
    forwarding, rts = bench_once(run_both)

    def worst(latencies):
        return max(latencies)

    print_table(
        "E7: forwarding vs return-to-sender (paper §4 alternative)",
        ["policy", "all rounds ok", "nacks", "PM lookups",
         "link updates", "residual B", "worst latency us"],
        [
            [forwarding["policy"], forwarding["rounds_ok"],
             forwarding["nacks"], forwarding["locates"],
             forwarding["linkupdates"], forwarding["residual_bytes"],
             worst(forwarding["latencies"])],
            [rts["policy"], rts["rounds_ok"], rts["nacks"],
             rts["locates"], rts["linkupdates"], rts["residual_bytes"],
             worst(rts["latencies"])],
        ],
        notes="paper: return-to-sender drags more of the system into "
              "migration awareness; forwarding costs 8B of residue",
    )

    write_bench_artifact(
        "e7_return_to_sender",
        {
            "fwd_nacks": forwarding["nacks"],
            "fwd_pm_lookups": forwarding["locates"],
            "fwd_link_updates": forwarding["linkupdates"],
            "fwd_residual_bytes": forwarding["residual_bytes"],
            "fwd_worst_latency_us": worst(forwarding["latencies"]),
            "rts_nacks": rts["nacks"],
            "rts_pm_lookups": rts["locates"],
            "rts_link_updates": rts["linkupdates"],
            "rts_residual_bytes": rts["residual_bytes"],
            "rts_worst_latency_us": worst(rts["latencies"]),
        },
        meta={"machines": MACHINES,
              "paper": "§4: return-to-sender drags more of the system "
                       "into migration awareness"},
    )

    # Both are *correct* (eventual delivery either way).
    assert forwarding["rounds_ok"] and rts["rounds_ok"]

    # Forwarding: no NACKs, no process-manager involvement, 8B residue.
    assert forwarding["nacks"] == 0
    assert not forwarding["pm_involved"]
    assert forwarding["residual_bytes"] == 8

    # Return-to-sender: kernel NACKs + PM lookups, but no residue.
    assert rts["nacks"] >= 1
    assert rts["pm_involved"]
    assert rts["residual_bytes"] == 0

    # The paper's "more of the system would be involved": per stale
    # message, RTS generates strictly more control traffic than the
    # forward+update pair.
    rts_overhead = rts["nacks"] + 2 * rts["locates"]
    fwd_overhead = forwarding["linkupdates"]
    assert rts_overhead > fwd_overhead
