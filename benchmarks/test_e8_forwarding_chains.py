"""E8 — Forwarding-address lifetime and chains (paper §4).

"The forwarding address is compact.  In the current implementation, it
uses 8 bytes of storage.  As a result of the negligible impact on system
resources, we have not found it necessary to remove forwarding addresses.
Given a long running system, however, some form of garbage collection
will eventually have to be used. ... An alternative is to remove the
forwarding address when the process dies.  This can be accomplished by
means of pointers backwards along the path of migration."

The series migrates a process M times, measures chain cost for stale
senders at every age of link, and then kills the process and verifies the
backward-pointer garbage collection reclaims every entry.
"""

from conftest import (
    drain,
    make_bare_system,
    print_table,
    write_bench_artifact,
)

from repro.kernel.ids import ProcessAddress
from repro.kernel.messages import MessageKind

MAX_HOPS = 5
#: the machines every run of this benchmark builds (``meta.machines``)
MACHINES = MAX_HOPS + 2


def run_chain_experiment():
    system = make_bare_system(machines=MACHINES)
    probe_hops = {}

    def receiver(ctx):
        while True:
            msg = yield ctx.receive()
            if msg.op == "probe":
                probe_hops[msg.payload["stale_age"]] = msg.forward_count
            elif msg.op == "die":
                yield ctx.exit()

    pid = system.spawn(receiver, machine=0, name="nomad")
    rows = []
    sender = system.kernel(MAX_HOPS + 1)
    for hop in range(1, MAX_HOPS + 1):
        system.migrate(pid, hop)
        drain(system)
        # A probe with the *original* address crosses the whole chain.
        sender.send_to_process(
            ProcessAddress(pid, 0), "probe", {"stale_age": hop},
            kind=MessageKind.USER,
        )
        drain(system)
        rows.append({
            "migrations": hop,
            "hops": probe_hops[hop],
            "residual_bytes": sum(
                k.forwarding.storage_bytes for k in system.kernels
            ),
            "entries": system.total_forwarding_entries(),
        })

    # Death: backward pointers collect every forwarding address.
    sender.send_to_process(
        ProcessAddress(pid, MAX_HOPS), "die", {}, kind=MessageKind.USER,
    )
    drain(system)
    after_death = system.total_forwarding_entries()
    collected = sum(k.forwarding.collected for k in system.kernels)
    return rows, after_death, collected


def test_e8_chains_and_garbage_collection(bench_once):
    rows, after_death, collected = bench_once(run_chain_experiment)

    print_table(
        "E8: forwarding chains after repeated migration (paper §4)",
        ["migrations", "probe hops", "residual bytes", "fwd entries"],
        [[r["migrations"], r["hops"], r["residual_bytes"], r["entries"]]
         for r in rows],
        notes=f"after process death: entries={after_death} "
              f"(collected {collected} via backward pointers)",
    )

    metrics = {
        "entries_after_death": after_death,
        "entries_collected": collected,
    }
    for r in rows:
        metrics[f"hops_after_{r['migrations']}_migrations"] = r["hops"]
        metrics[f"residual_bytes_after_{r['migrations']}_migrations"] = (
            r["residual_bytes"]
        )
    write_bench_artifact(
        "e8_forwarding_chains", metrics,
        meta={"machines": MACHINES,
              "paper": "§4: 8-byte forwarding addresses, collected via "
                       "backward pointers when the process dies"},
    )

    for r in rows:
        # A maximally stale sender pays one hop per abandoned residence.
        assert r["hops"] == r["migrations"]
        # 8 bytes per abandoned machine, nothing more.
        assert r["residual_bytes"] == 8 * r["migrations"]
        assert r["entries"] == r["migrations"]

    # Garbage collection on death reclaims everything.
    assert after_death == 0
    assert collected == MAX_HOPS
