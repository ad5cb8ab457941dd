"""E4 — Message forwarding through a forwarding address (Figure 4-1).

Regenerates the figure's behaviour: a message sent on an out-of-date link
arrives at the old home, hits the degenerate process state, is readdressed
and resubmitted, and reaches the process — at the cost of the extra hop.
The series reports one-way delivery latency versus forwarding-chain
length, plus the 8-byte residue per hop.

"Routing messages through another processor (with the forwarding address)
can defeat possible performance gains and, in many cases, degrade
performance" — the latency column quantifies exactly that degradation.
"""

from conftest import (
    drain,
    make_bare_system,
    print_table,
    write_bench_artifact,
)

from repro.kernel.ids import ProcessAddress
from repro.kernel.messages import MessageKind

#: the machines every run of this benchmark builds (``meta.machines``)
MACHINES = 5


def measure_chain(chain_length: int):
    """Move a process along a chain, then time a message sent with the
    original (now maximally stale) address."""
    system = make_bare_system(machines=MACHINES)
    arrival = {}

    def receiver(ctx):
        while True:
            msg = yield ctx.receive()
            if msg.op == "probe":
                arrival["at"] = ctx.now
                arrival["hops"] = msg.forward_count

    pid = system.spawn(receiver, machine=0)
    for dest in range(1, chain_length + 1):
        system.migrate(pid, dest)
        drain(system)

    sent_at = system.loop.now
    system.kernel(4).send_to_process(
        ProcessAddress(pid, 0), "probe", {}, kind=MessageKind.USER,
    )
    drain(system)
    residue = sum(k.forwarding.storage_bytes for k in system.kernels)
    return {
        "chain": chain_length,
        "latency": arrival["at"] - sent_at,
        "hops": arrival["hops"],
        "residue_bytes": residue,
    }


def run_series():
    return [measure_chain(n) for n in range(4)]


def test_e4_forwarding_latency(bench_once):
    series = bench_once(run_series)

    print_table(
        "E4: delivery through forwarding addresses (Figure 4-1)",
        ["chain length", "one-way latency us", "forward hops",
         "residual bytes"],
        [[s["chain"], s["latency"], s["hops"], s["residue_bytes"]]
         for s in series],
        notes="each hop re-routes the message and leaves an 8-byte "
              "forwarding address on the abandoned machine",
    )

    metrics = {}
    for s in series:
        metrics[f"latency_us_chain{s['chain']}"] = s["latency"]
        metrics[f"hops_chain{s['chain']}"] = s["hops"]
        metrics[f"residual_bytes_chain{s['chain']}"] = s["residue_bytes"]
    write_bench_artifact(
        "e4_forwarding_latency", metrics,
        meta={"machines": MACHINES,
              "paper": "Figure 4-1: each hop re-routes the message and "
                       "leaves an 8-byte forwarding address"},
    )

    # Direct delivery has zero hops; each migration adds one.
    for s in series:
        assert s["hops"] == s["chain"]
        assert s["residue_bytes"] == 8 * s["chain"]

    # Latency strictly degrades with chain length (the motivation for
    # link updating in §5).
    latencies = [s["latency"] for s in series]
    assert all(b > a for a, b in zip(latencies, latencies[1:]))

    # One forward roughly doubles the one-way cost on a uniform mesh.
    assert latencies[1] >= 1.5 * latencies[0]
