"""E5 — Link-update convergence (paper §5, Figure 5-1).

A server with N clients migrates.  Every client's next message goes
through the forwarding address once; the update message patches that
client's link table; after that its traffic is direct.  The series shows
total forwarded messages scaling with the number of *stale link holders*,
not with the amount of traffic — the whole point of lazy link updating.
"""

from conftest import (
    drain,
    make_bare_system,
    print_table,
    write_bench_artifact,
)

from repro.kernel.ids import ProcessAddress

CLIENT_COUNTS = [1, 2, 4, 8, 16, 32, 64]
ROUNDS_PER_CLIENT = 6
#: the machines every run of this benchmark builds (``meta.machines``)
MACHINES = 4


def run_convergence(clients: int):
    system = make_bare_system(machines=MACHINES)
    finished = []

    def server(ctx):
        while True:
            msg = yield ctx.receive()
            if msg.delivered_link_ids:
                reply = msg.delivered_link_ids[0]
                yield ctx.send(reply, op="r")
                yield ctx.destroy_link(reply)

    def make_client(tag):
        def client(ctx):
            fwd_seen = 0
            for _ in range(ROUNDS_PER_CLIENT):
                reply_link = yield ctx.create_link()
                yield ctx.send(ctx.bootstrap["server"], op="q",
                              links=(reply_link,))
                yield ctx.receive()
                yield ctx.destroy_link(reply_link)
                yield ctx.sleep(4_000)
            finished.append(tag)
            yield ctx.exit()
        return client

    server_pid = system.spawn(server, machine=0, name="server")
    for tag in range(clients):
        system.kernel(2 + tag % 2).spawn(
            make_client(tag), name=f"client-{tag}",
            extra_links={"server": ProcessAddress(server_pid, 0)},
        )
    system.loop.call_at(6_000, lambda: system.migrate(server_pid, 1))
    drain(system, max_events=20_000_000)
    assert len(finished) == clients

    return {
        "clients": clients,
        "forwards": sum(k.stats.messages_forwarded for k in system.kernels),
        "updates": sum(k.stats.link_updates_applied for k in system.kernels),
        "retargeted": sum(k.stats.links_retargeted for k in system.kernels),
        "messages": clients * ROUNDS_PER_CLIENT,
    }


def run_series():
    return [run_convergence(n) for n in CLIENT_COUNTS]


def test_e5_link_update_convergence(bench_once):
    series = bench_once(run_series)

    print_table(
        "E5: link-update convergence vs client count (Figure 5-1)",
        ["clients", "total requests", "forwarded", "updates applied",
         "links retargeted", "forwards/client"],
        [[s["clients"], s["messages"], s["forwards"], s["updates"],
          s["retargeted"], round(s["forwards"] / s["clients"], 2)]
         for s in series],
        notes="paper: typically one forward per stale link, worst case "
              "two; traffic after convergence is direct",
    )

    metrics = {}
    for s in series:
        metrics[f"forwards_clients{s['clients']}"] = s["forwards"]
        metrics[f"retargeted_clients{s['clients']}"] = s["retargeted"]
    write_bench_artifact(
        "e5_link_update_convergence", metrics,
        meta={"machines": MACHINES,
              "paper": "Figure 5-1: typically one forward per stale "
                       "link, worst case two"},
    )

    for s in series:
        # Forwards scale with stale-link holders, not with traffic:
        # between 1 and 2 per client (paper's typical/worst bounds).
        assert s["clients"] <= s["forwards"] <= 2 * s["clients"], s
        # Every client's link table got patched at least once.
        assert s["retargeted"] >= s["clients"]
        # Far fewer forwards than total messages once N is non-trivial.
        if s["clients"] >= 4:
            assert s["forwards"] < s["messages"] / 2
