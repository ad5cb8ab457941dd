"""A1 (ablation) — what lazy link updating buys (paper §5).

DESIGN.md calls for ablation benches on the design choices; this one
switches off the §5 link-update message and reruns the stale-link
workload.  Without updates, *every* message on a stale link pays the
forwarding penalty forever ("Simply forwarding messages is a sufficient
mechanism to insure correct operation ... However, the motivation for
process migration is often to improve message performance"); with them,
the penalty is paid once per link.
"""

from conftest import (
    drain,
    make_bare_system,
    print_table,
    write_bench_artifact,
)

from repro.kernel.ids import ProcessAddress

ROUNDS = 20
#: the machines every run of this benchmark builds (``meta.machines``)
MACHINES = 4


def run(updates_enabled: bool):
    system = make_bare_system(
        machines=MACHINES, send_link_updates=updates_enabled
    )
    latencies = []

    def server(ctx):
        while True:
            msg = yield ctx.receive()
            if msg.delivered_link_ids:
                reply = msg.delivered_link_ids[0]
                yield ctx.send(reply, op="r")
                yield ctx.destroy_link(reply)

    def client(ctx):
        for _ in range(ROUNDS):
            reply_link = yield ctx.create_link()
            sent = ctx.now
            yield ctx.send(ctx.bootstrap["server"], op="q",
                          links=(reply_link,))
            yield ctx.receive()
            latencies.append(ctx.now - sent)
            yield ctx.destroy_link(reply_link)
            yield ctx.sleep(2_000)
        yield ctx.exit()

    server_pid = system.spawn(server, machine=0, name="server")
    system.migrate(server_pid, 1)
    drain(system)  # settle: only the client's link will be stale
    system.kernel(2).spawn(
        client, name="client",
        extra_links={"server": ProcessAddress(server_pid, 0)},
    )
    drain(system)
    return {
        "forwards": sum(k.stats.messages_forwarded for k in system.kernels),
        "updates": sum(k.stats.link_updates_sent for k in system.kernels),
        "mean_latency": sum(latencies) / len(latencies),
        "steady_latency": sum(latencies[-5:]) / 5,
    }


def run_both():
    return run(updates_enabled=True), run(updates_enabled=False)


def test_a1_link_update_ablation(bench_once):
    with_updates, without_updates = bench_once(run_both)

    print_table(
        "A1 (ablation): link updating on vs off (paper §5)",
        ["link updates", "forwards", "update msgs", "mean rtt us",
         "steady-state rtt us"],
        [
            ["on", with_updates["forwards"], with_updates["updates"],
             round(with_updates["mean_latency"]),
             round(with_updates["steady_latency"])],
            ["off", without_updates["forwards"],
             without_updates["updates"],
             round(without_updates["mean_latency"]),
             round(without_updates["steady_latency"])],
        ],
        notes=f"{ROUNDS} requests on one stale link; without §5 every "
              f"request forwards forever",
    )

    write_bench_artifact(
        "a1_link_update_ablation",
        {
            "forwards_with_updates": with_updates["forwards"],
            "forwards_without_updates": without_updates["forwards"],
            "steady_latency_us_with_updates": round(
                with_updates["steady_latency"]
            ),
            "steady_latency_us_without_updates": round(
                without_updates["steady_latency"]
            ),
        },
        meta={"machines": MACHINES,
              "paper": "§5: without link updates every request on a "
                       "stale link forwards forever"},
    )

    # With updates: bounded forwards (paper: 1 typical, 2 worst).
    assert with_updates["forwards"] <= 2
    # Without updates: every round forwards — correctness survives, but
    # the performance motivation is defeated.
    assert without_updates["forwards"] == ROUNDS
    assert without_updates["updates"] == 0
    # One extra hop on the request leg of every round trip (the reply
    # leg is unaffected): a persistent ~1.4x penalty on this mesh.
    assert (
        without_updates["steady_latency"]
        > 1.3 * with_updates["steady_latency"]
    )
