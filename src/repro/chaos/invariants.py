"""Survivor invariants: what must hold at quiescence after a campaign.

Each check returns a list of human-readable problems (empty = clean),
so a gate is ``assert not survivor_invariants(...)`` and a failure
message names every violated property at once.  All checks are written
against :class:`~repro.core.cluster.Cluster` (serial executor).

The gated properties, mapped to the paper:

1. **exactly-once replies** — each closed-loop client's request quota
   completed with the reply that answers *its* request (§2's reliable
   delivery surviving §4's crashes and forwarding);
2. **chains collapse** — every forwarding chain reaches the process's
   current home without cycling or dangling, and (behaviorally, gated
   by the campaign's probe) a second message forwards at most once
   after the lazy link update (§4, Figure 4-1);
3. **no stranded forwarding addresses** — after GC, entries exist only
   for processes still alive somewhere (§4's backward-pointer
   collection);
4. **no orphaned recovery state** — the crash manager's bookkeeping
   matches reality (§1/§4 stable-storage recovery);
5. **conservation** — the transport holds no lost or duplicated
   traffic and memory accounting balances on every surviving machine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.topology import MachineId
from repro.workloads.closed_loop import REQUEST_LATENCY_METRIC

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.cluster import Cluster
    from repro.policy.recovery import CrashRecoveryManager
    from repro.workloads.closed_loop import ClientPool


def check_exactly_once(pool: "ClientPool") -> list[str]:
    """Every client completed its quota, and every reply echoed the
    request that was waiting for it — no lost, duplicated, or
    cross-wired replies."""
    problems: list[str] = []
    quota = pool.config.requests_per_client
    for client, count in enumerate(pool.request_counts):
        if count != quota:
            problems.append(
                f"client {client} completed {count}/{quota} requests"
            )
    if pool.mismatches:
        problems.append(
            f"{pool.mismatches} repl(y/ies) did not echo the request "
            f"awaiting them"
        )
    histogram = pool.system.snapshot().histogram(REQUEST_LATENCY_METRIC)
    expected = pool.config.clients * quota
    observed = histogram.count if histogram is not None else 0
    if observed != expected:
        problems.append(
            f"latency histogram holds {observed} observations for "
            f"{expected} requests"
        )
    return problems


def check_chain_collapse(system: "Cluster") -> list[str]:
    """Every forwarding chain reaches its process (or its death notice)
    without cycling, dangling, or dead-ending on a crashed machine."""
    problems: list[str] = []
    # crash_transport replicates redirects onto every shard's routing
    # view, so any shard answers for the whole cluster.
    routing = system.shards[0].network
    for kernel in system.kernels:
        if kernel.crashed:
            continue
        for entry in kernel.forwarding.entries():
            pid = entry.pid
            seen = {kernel.machine}
            current: MachineId = entry.machine
            while True:
                current = routing.effective_destination(current)
                target = system.kernel(current)
                if target.crashed:
                    problems.append(
                        f"forwarding chain for {pid} dead-ends on "
                        f"crashed machine {current}"
                    )
                    break
                # Residency ends the walk before the cycle check: a
                # delivering kernel consults its process table first,
                # so an entry pointing (back) at the process's own
                # machine is moot, not a routing loop.
                if pid in target.processes or pid in target.dead:
                    break
                if current in seen:
                    problems.append(
                        f"forwarding chain for {pid} (from machine "
                        f"{kernel.machine}) cycles at machine {current}"
                    )
                    break
                seen.add(current)
                nxt = target.forwarding.lookup(pid)
                if nxt is None:
                    problems.append(
                        f"forwarding chain for {pid} (from machine "
                        f"{kernel.machine}) dangles at machine {current}"
                    )
                    break
                current = nxt.machine
    return problems


def check_no_stranded_forwarding(system: "Cluster") -> list[str]:
    """After GC, forwarding addresses exist only for live processes."""
    problems: list[str] = []
    for kernel in system.kernels:
        if kernel.crashed:
            continue
        for entry in kernel.forwarding.entries():
            if not system.is_alive(entry.pid):
                problems.append(
                    f"machine {kernel.machine} holds a forwarding "
                    f"address for dead {entry.pid}"
                )
    return problems


def check_recovery_state(
    recovery: "CrashRecoveryManager | None",
) -> list[str]:
    """No orphaned process state in the crash-recovery bookkeeping."""
    if recovery is None:
        return []
    return recovery.audit()


def check_quiescence(system: "Cluster") -> list[str]:
    """The transport holds nothing: no packets in flight, no unacked
    sends waiting to retransmit."""
    problems: list[str] = []
    for shard in system.shards:
        in_flight = shard.network.in_flight()
        unacked = shard.network.unacked()
        if in_flight or unacked:
            problems.append(
                f"shard {shard.index} transport not quiescent: "
                f"{in_flight} in flight, {unacked} unacked"
            )
    return problems


def check_memory_accounting(system: "Cluster") -> list[str]:
    """Used bytes on each surviving machine equal the sum of its
    residents' images (nothing leaked, nothing double-freed)."""
    problems: list[str] = []
    for kernel in system.kernels:
        if kernel.crashed:
            continue
        expected = sum(
            state.memory.resident_bytes
            for state in kernel.processes.values()
        )
        if kernel.memory.used_bytes != expected:
            problems.append(
                f"machine {kernel.machine} memory accounting is off: "
                f"{kernel.memory.used_bytes} used vs {expected} resident"
            )
    return problems


def survivor_invariants(
    system: "Cluster",
    *,
    pool: "ClientPool | None" = None,
    recovery: "CrashRecoveryManager | None" = None,
) -> list[str]:
    """All applicable survivor invariants, combined.

    Returns every violation found (empty = all invariants hold), so a
    single assert surfaces the full damage report::

        problems = survivor_invariants(system, pool=pool, recovery=rec)
        assert not problems, "\\n".join(problems)
    """
    problems: list[str] = []
    if pool is not None:
        problems += check_exactly_once(pool)
    problems += check_chain_collapse(system)
    problems += check_no_stranded_forwarding(system)
    problems += check_recovery_state(recovery)
    problems += check_quiescence(system)
    problems += check_memory_accounting(system)
    return problems
