"""Measuring one workload: fresh child processes, medians, checks.

A *child* builds one workload in a fresh interpreter, times its run
phase and prints one JSON line; :func:`measure_timed` starts children
until its time or repeat budget is spent and reduces them to a value
with quartiles; :func:`measure_traced` runs one more child under
``cProfile`` and turns its profile and counters into the per-layer
numbers.  Nothing here reaches into ``src/``: layers are measured from
outside, through public counters and by attributing profiled self-time
to layers by source file.

Two clocks exist and every metric name says which it uses: **host**
time is what the simulator costs to run, **sim** time (``sim_*``) is
what the modelled DEMOS/MP cluster would take.  At equal seed every
``sim_*`` metric, ``ops`` and the counter digest repeat exactly.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import scenarios

RUN_PY = Path(__file__).resolve().parent / "run.py"
REPO_ROOT = Path(__file__).resolve().parents[2]

#: name -> (unit, better, bound across seeds, bound at equal seed).
#: The first bound is what BENCHMARK.json carries: the driver compares
#: runs made with *different* seeds, so it has to absorb how much the
#: seed moves the work.  The second is what `compare` applies to two
#: result sets of one seed on one host: 8-10% on host time and exactly
#: nothing on simulated time.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25, 0.10),
    "wall_s": ("s", "lower", 0.25, 0.08),
    "cpu_s": ("s", "lower", 0.25, 0.08),
    "ops_per_s": ("1/s", "higher", 0.25, 0.08),
    "peak_rss_mb": ("MiB", "lower", 0.10, 0.10),
    "sim_in_slo_ratio": ("ratio", "higher", 0.05, 0.0),
    "sim_rtt_p50_us": ("sim_us", "lower", 0.15, 0.0),
    "sim_rtt_p99_us": ("sim_us", "lower", 0.25, 0.0),
    "sim_freeze_p50_us": ("sim_us", "lower", 0.10, 0.0),
    "sim_freeze_p99_us": ("sim_us", "lower", 0.20, 0.0),
    "sim_fwd_per_migration": ("ratio", "lower", 0.10, 0.0),
}
#: how the repeats of a host metric become its value.  Times are the
#: best of n: on a shared host a run is only ever slowed down, by up to
#: 40% for minutes at a time, and the fastest fresh-process repeat is
#: the one statistic that stays within a few percent from one
#: invocation to the next (the median drifted by 13-18%; README,
#: "Noise").  Quartiles and the median are kept beside it.
BEST_OF = {
    "setup_s": min,
    "wall_s": min,
    "cpu_s": min,
    "ops_per_s": max,
    "peak_rss_mb": statistics.median,
}
HOST_METRICS = tuple(BEST_OF)
#: `torus_fork2` shares two cores with whatever else the host runs
SAME_SEED_BOUND_OVERRIDES = {("torus_fork2", "wall_s"): 0.10}

#: fresh-process repeats of a timed measurement when no time budget is
#: given (the full run); the driver's ``--seconds`` replaces it.  Nine,
#: so that two disturbed repeats fall outside the quartiles instead of
#: being them; eleven where two cores must both be free
DEFAULT_REPEATS = 9
REPEATS = {"torus_fork2": 11}
MIN_REPEATS = 3

#: the three arms the engine tax and the x2 speedup are read off
TORUS_TRIO = ("torus_classic", "torus_shard1", "torus_fork2")
#: what BENCHMARK.json lists.  `torus_fork2` is measured by the full run
#: and by the traced runs of the other torus arms, but is not a workload
#: of the driver's: for minutes at a time the host's second vCPU is
#: worth a third of a core (the workers then burn 2.0 s of CPU for what
#: takes them 1.35 s otherwise), so its wall time over ten invocations
#: spreads by 11-30%, past any bound the driver accepts
DRIVER_WORKLOADS = tuple(
    name for name in scenarios.WORKLOADS if not scenarios.runs_forked(name)
)

#: per-layer metrics read from counters after any run: name -> (unit,
#: better).  :func:`work_ratios` computes them.
WORK_RATIOS = {
    "sim.loop.events_per_op": ("1/op", "lower"),
    "net.wire.packets_per_msg": ("1/msg", "lower"),
    "net.wire.wire_bytes_per_msg": ("B/msg", "lower"),
    "net.transport.retx_share": ("ratio", "lower"),
    "net.transport.drop_share": ("ratio", "lower"),
    "kernel.ipc.syscalls_per_op": ("1/op", "lower"),
    "kernel.ipc.local_send_share": ("ratio", "higher"),
    "kernel.migration.count": ("count", "higher"),
    "kernel.migration.admin_msgs_per_migration": ("count", "lower"),
    "kernel.migration.state_bytes_per_migration": ("B", "lower"),
    "kernel.migration.link_updates_per_forward": ("ratio", "lower"),
    "kernel.migration.fwd_entries_left": ("count", "lower"),
    "sim.barrier.rounds_per_sim_ms": ("1/ms", "lower"),
    "sim.barrier.records_per_round": ("count", "higher"),
    "sim.barrier.sync_bytes_per_record": ("B", "lower"),
    "sim.barrier.windows_elided": ("count", "higher"),
    "policy.migrations_started": ("count", "lower"),
    "policy.slo_breach_samples": ("count", "lower"),
    "policy.first_move_at_us": ("sim_us", "lower"),
    "policy.slo_miss_ratio": ("ratio", "lower"),
}
#: per-layer metrics of the traced run
TRACED = {
    **{f"{layer}.self_share": ("ratio", "lower") for layer in layers.LAYERS},
    **{f"{layer}.calls_per_op": ("1/op", "lower") for layer in layers.LAYERS},
    "sim.loop.heap_pushes_per_op": ("1/op", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "sim.barrier.worker_busy_share": ("ratio", "higher"),
    "sim.barrier.worker_cpu_imbalance": ("ratio", "lower"),
    "sim.barrier.shard_event_imbalance": ("ratio", "lower"),
}
#: per-layer metrics that compare the torus trio's arms
TRIO = {
    "sim.barrier.shard1_tax": ("ratio", "lower"),
    "sim.barrier.fork2_speedup": ("ratio", "higher"),
    "sim.barrier.classic_counter_diffs": ("count", "lower"),
}


# ----------------------------------------------------------------------
# Small statistics
# ----------------------------------------------------------------------


def percentile(values: list, q: float):
    """Nearest-rank percentile; on fewer than ``1 / (1 - q)`` samples
    that is the maximum, which is why sample counts are printed."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarise(values: list[float], best=statistics.median) -> dict:
    """*values* reduced: ``value`` is ``best(values)``, beside it the
    median, quartiles, extremes, n, ``spread`` (IQR / median) and
    ``resolution``: how far the value can be trusted, as a share of it.

    For a median that is the spread.  For a best-of-n it is the distance
    from the best repeat to the nearest quartile: near 0 when the best
    is the edge of a cluster of undisturbed repeats, large when it is a
    lone outlier or every repeat was disturbed differently.
    """
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    median = statistics.median(values)
    value = best(values)
    spread = (q3 - q1) / median if median else 0.0
    if best is min:
        resolution = (q1 - value) / value
    elif best is max:
        resolution = (value - q3) / value
    else:
        resolution = spread
    return {
        "value": value,
        "median": median,
        "min": min(values),
        "q1": q1,
        "q3": q3,
        "max": max(values),
        "n": len(values),
        "spread": spread,
        "resolution": resolution,
    }


def same_seed_bound(workload: str, metric: str) -> float:
    return SAME_SEED_BOUND_OVERRIDES.get(
        (workload, metric), END_TO_END[metric][3]
    )


# ----------------------------------------------------------------------
# The child: one run in a fresh interpreter
# ----------------------------------------------------------------------


def _cpu_seconds() -> float:
    """User + system CPU of this process and of every child it has
    waited for — the forked shard workers, once `execute` joined them."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def child_main(
    workload: str, seed: int, scale: str, spawned_at: float, profile: bool
) -> dict:
    """Build, run and check one workload; the dict is the child's whole
    output.  ``setup_s`` runs from when the parent started this process
    to the start of the run phase: interpreter start, ``import repro``,
    building and booting the system, installing the workload and its
    pre-drawn schedules."""
    prepared = scenarios.BUILDERS[workload](seed, scale)
    profiler = cProfile.Profile() if profile else None
    setup_s = time.monotonic() - spawned_at
    cpu_before = _cpu_seconds()
    started = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    raw = prepared.run()
    if profiler is not None:
        profiler.disable()
    wall_s = time.perf_counter() - started
    cpu_s = _cpu_seconds() - cpu_before
    outcome = prepared.finish(raw)
    peak_kib = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    counters = outcome.counters
    in_slo = sum(1 for latency in outcome.rtt if latency <= outcome.slo_us)
    sim = {
        # an unanswered request misses any latency limit
        "sim_in_slo_ratio": in_slo / counters["round_trips_wanted"],
        "sim_rtt_p50_us": percentile(outcome.rtt, 0.50),
        "sim_rtt_p99_us": percentile(outcome.rtt, 0.99),
        "sim_freeze_p50_us": percentile(outcome.downtimes, 0.50),
        "sim_freeze_p99_us": percentile(outcome.downtimes, 0.99),
        "sim_fwd_per_migration": (
            counters["messages_forwarded"] / counters["migrations_ok"]
        ),
    }
    gated = {**counters, **sim}
    digest = hashlib.sha256(
        json.dumps(gated, sort_keys=True).encode()
    ).hexdigest()
    return {
        "workload": workload,
        "host": {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "ops_per_s": outcome.ops / wall_s,
            "peak_rss_mb": peak_kib / 1024,
        },
        "sim": sim,
        "rtt_n": len(outcome.rtt),
        "freeze_n": len(outcome.downtimes),
        "ops": outcome.ops,
        "attempted": outcome.attempted,
        "counters": counters,
        "digest": digest,
        "extras": outcome.extras,
        "failures": outcome.failures,
        "profile": (
            layers.attribute(profiler) if profiler is not None else None
        ),
    }


def run_child(
    workload: str, seed: int, scale: str, profile: bool = False
) -> dict:
    """One fresh-process run of *workload*, with the host's 1-minute
    load average just before it; raises if the child died."""
    command = [
        sys.executable, str(RUN_PY), "child", workload,
        "--seed", str(seed), "--scale", scale,
        "--spawned-at", repr(time.monotonic()),
    ]
    if profile:
        command.append("--profile")
    loadavg = os.getloadavg()[0]
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} child exited {done.returncode}:\n{done.stderr}"
        )
    return {**json.loads(done.stdout.splitlines()[-1]), "loadavg": loadavg}


# ----------------------------------------------------------------------
# Timed measurement: medians of fresh-process repeats
# ----------------------------------------------------------------------


def measure_timed(
    workload: str,
    seed: int,
    scale: str,
    seconds: float | None = None,
    repeats: int | None = None,
) -> dict:
    """Run *workload* in fresh children, tracing off, and reduce.

    With *seconds*, children are started until the next one would
    overrun the budget (at least ``MIN_REPEATS``); otherwise *repeats*
    of them (default 9, 11 on ``torus_fork2``).
    """
    started = time.monotonic()
    if repeats is None:
        repeats = REPEATS.get(workload, DEFAULT_REPEATS)
    children: list[dict] = []
    while True:
        if seconds is None:
            if len(children) >= repeats:
                break
        elif len(children) >= MIN_REPEATS:
            elapsed = time.monotonic() - started
            if elapsed + elapsed / len(children) > seconds:
                break
        children.append(run_child(workload, seed, scale))
    return reduce_timed(workload, seed, scale, children)


def measure_interleaved(seed: int, scale: str) -> dict[str, dict]:
    """Every workload's timed measurement, their repeats interleaved.

    Round r runs repeat r of each workload in turn, so the repeats of
    one workload are spread over the whole run: a minute during which
    the host is slow then disturbs a few repeats of every workload
    rather than every repeat of one.
    """
    children: dict[str, list[dict]] = {w: [] for w in scenarios.WORKLOADS}
    for round_no in range(max(DEFAULT_REPEATS, *REPEATS.values())):
        for workload, done in children.items():
            if round_no < REPEATS.get(workload, DEFAULT_REPEATS):
                done.append(run_child(workload, seed, scale))
    return {
        workload: reduce_timed(workload, seed, scale, done)
        for workload, done in children.items()
    }


def reduce_timed(
    workload: str, seed: int, scale: str, children: list[dict]
) -> dict:
    """Fresh-process repeats of one workload -> its timed result.

    Host metrics are the best over the children (``BEST_OF``), with the
    median, quartiles, extremes and n beside it; simulated metrics,
    ``ops`` and the counter digest must be the same in every child, and
    a difference is a failed check.
    """
    first = children[0]
    failures = list(first["failures"])
    digests = {child["digest"] for child in children}
    if len(digests) > 1:
        failures.append(
            f"{len(digests)} different counter digests in "
            f"{len(children)} repeats of one seed"
        )
    end_to_end = {}
    noisy = []
    for name, (unit, _, _, _) in END_TO_END.items():
        if name in HOST_METRICS:
            raw = [child["host"][name] for child in children]
        else:
            raw = [child["sim"][name] for child in children]
        entry = {
            **summarise(raw, BEST_OF.get(name, statistics.median)),
            "unit": unit,
            "raw": raw,
        }
        bound = same_seed_bound(workload, name)
        if name in HOST_METRICS and entry["resolution"] > bound:
            entry["noisy"] = True
            noisy.append(name)
        end_to_end[name] = entry
    return {
        "workload": workload,
        "why": scenarios.WORKLOADS[workload],
        "seed": seed,
        "scale": scale,
        "loadavg": [child["loadavg"] for child in children],
        "end_to_end": end_to_end,
        "noisy": noisy,
        "ops": first["ops"],
        "attempted": first["attempted"],
        "failed": first["attempted"] - first["ops"],
        "fail_ratio": 1 - first["ops"] / first["attempted"],
        "rtt_n": first["rtt_n"],
        "freeze_n": first["freeze_n"],
        "digest": first["digest"],
        "sim": first["sim"],
        "counters": first["counters"],
        "extras": first["extras"],
        "failures": failures,
    }


# ----------------------------------------------------------------------
# Per-layer numbers
# ----------------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def work_ratios(child: dict) -> dict[str, float]:
    """Exact work ratios from the public counters of one run (a child's
    output or a timed result: both carry counters, extras, ops, sim)."""
    c = child["counters"]
    sync = child["extras"]["sync"]
    ops = child["ops"]
    migrations = c["migrations_ok"]
    sent = c["messages_sent_local"] + c["messages_sent_remote"]
    rounds = sync.get("rounds", 0)
    return {
        "sim.loop.events_per_op": _ratio(c["events_fired"], ops),
        "net.wire.packets_per_msg": _ratio(
            c["packets_sent"], c["messages_delivered"]
        ),
        "net.wire.wire_bytes_per_msg": _ratio(
            c["bytes_sent"], c["messages_delivered"]
        ),
        "net.transport.retx_share": _ratio(
            c["retransmissions"], c["packets_sent"]
        ),
        "net.transport.drop_share": _ratio(
            c["packets_dropped"], c["packets_sent"]
        ),
        "kernel.ipc.syscalls_per_op": _ratio(c["syscalls"], ops),
        "kernel.ipc.local_send_share": _ratio(
            c["messages_sent_local"], sent
        ),
        "kernel.migration.count": float(migrations),
        "kernel.migration.admin_msgs_per_migration": _ratio(
            c["migration_admin_messages"], migrations
        ),
        "kernel.migration.state_bytes_per_migration": _ratio(
            c["migration_state_bytes"], migrations
        ),
        "kernel.migration.link_updates_per_forward": _ratio(
            c["link_updates_sent"], c["messages_forwarded"]
        ),
        "kernel.migration.fwd_entries_left": float(
            c["forwarding_entries_left"]
        ),
        "sim.barrier.rounds_per_sim_ms": _ratio(
            rounds, child["extras"]["sim_now_us"] / 1_000
        ),
        "sim.barrier.records_per_round": _ratio(
            sync.get("records_sent", 0), rounds
        ),
        "sim.barrier.sync_bytes_per_record": _ratio(
            sync.get("bytes_sent", 0), sync.get("records_sent", 0)
        ),
        "sim.barrier.windows_elided": float(sync.get("windows_elided", 0)),
        "policy.migrations_started": float(
            c.get("policy_migrations_started", 0)
        ),
        "policy.slo_breach_samples": float(
            c.get("policy_slo_breach_samples", 0)
        ),
        "policy.first_move_at_us": float(
            max(c.get("policy_first_move_at_us", 0), 0)
        ),
        "policy.slo_miss_ratio": 1 - child["sim"]["sim_in_slo_ratio"],
    }


def measure_traced(
    workload: str, seed: int, scale: str, untraced_wall_s: float
) -> dict:
    """The traced run's per-layer numbers for *workload*.

    One child under ``cProfile`` (driven from the harness, so timed runs
    never carry the profiler): self-time and call counts summed by the
    file -> layer map.  ``torus_fork2`` does its work in forked workers
    a profile of the parent cannot see; its traced run instead reads
    each worker's CPU time and event count out of ``collect``.
    """
    forked = scenarios.runs_forked(workload)
    child = run_child(workload, seed, scale, profile=not forked)
    metrics = dict.fromkeys(TRACED, 0.0)
    wall_s = child["host"]["wall_s"]
    if forked:
        metrics.update(worker_metrics(child))
    else:
        profile = child["profile"]
        total = sum(profile["self_s"].values())
        for layer in layers.LAYERS:
            metrics[f"{layer}.self_share"] = profile["self_s"][layer] / total
            metrics[f"{layer}.calls_per_op"] = (
                profile["calls"][layer] / child["ops"]
            )
        metrics["sim.loop.heap_pushes_per_op"] = (
            profile["heap_pushes"] / child["ops"]
        )
        metrics["trace.overhead_ratio"] = wall_s / untraced_wall_s
    metrics.update(work_ratios(child))
    return {
        "metrics": metrics,
        "digest": child["digest"],
        "failures": child["failures"],
    }


def worker_metrics(child: dict) -> dict[str, float]:
    """What each forked worker did, from one run of a forked workload:
    these cap its wall time, and tell imbalance from waiting."""
    cpu = child["extras"]["shard_cpu_s"]
    events = child["extras"]["shard_events"]
    return {
        "sim.barrier.worker_busy_share": (
            statistics.mean(cpu) / child["host"]["wall_s"]
        ),
        "sim.barrier.worker_cpu_imbalance": max(cpu) / statistics.mean(cpu),
        "sim.barrier.shard_event_imbalance": (
            max(events) / statistics.mean(events)
        ),
    }


def trio_metrics(
    arms: dict[str, dict], wall: dict[str, float]
) -> tuple[dict[str, float], list]:
    """Compare the torus arms (timed results or children, with their
    ``wall_s`` in *wall*) -> the three derived numbers, plus failed
    checks: every sharded arm given must agree with ``torus_shard1`` on
    every counter and simulated metric; classic against sharded is
    reported, not asserted."""
    classic, shard1 = (
        arms[name]["counters"] for name in ("torus_classic", "torus_shard1")
    )
    failures = []
    for name, arm in arms.items():
        if name in ("torus_classic", "torus_shard1"):
            continue
        differing = sorted(
            k for k in shard1 if shard1[k] != arm["counters"].get(k)
        )
        if differing or arm["digest"] != arms["torus_shard1"]["digest"]:
            failures.append(
                f"torus_shard1 and {name} differ on {differing or 'sim'}"
            )
    metrics = {
        "sim.barrier.shard1_tax": (
            wall["torus_shard1"] / wall["torus_classic"] - 1
        ),
        "sim.barrier.fork2_speedup": (
            wall["torus_shard1"] / wall["torus_fork2"]
        ),
        "sim.barrier.classic_counter_diffs": float(
            sum(1 for k in shard1 if shard1[k] != classic.get(k))
        ),
    }
    return metrics, failures


# ----------------------------------------------------------------------
# Host fingerprint
# ----------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _git_sha() -> str:
    """HEAD, marked when the work tree has changes HEAD does not."""
    sha = _git("rev-parse", "HEAD")
    if sha is None:
        return "unknown"
    return sha + ("-dirty" if _git("status", "--porcelain") else "")


def host_fingerprint() -> dict:
    """What has to match before two result sets may be compared."""
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def run_meta(seed: int, scale: str) -> dict:
    return {
        "host": host_fingerprint(),
        "git_sha": _git_sha(),
        "seed": seed,
        "scale": scale,
    }
