"""Command-line front door: ``python -m repro <command>``.

Commands:

- ``migrate``     — migrate one process and print the §6 cost ledger;
- ``shell "..."`` — execute command-interpreter lines against a fresh
                    system (e.g. ``python -m repro shell "run compute" ps``);
- ``report``      — run a mixed workload and print the system report
                    (``--json`` for a machine-readable metrics snapshot);
- ``chaos``       — run the chaos campaign (scripted crashes,
                    partitions, evacuations, migration storms) and gate
                    the survivor invariants; non-zero exit on violation;
- ``fuzz``        — draw seeded random chaos schedules, run each under
                    live traffic (sharded draws engine-parity checked),
                    shrink violations to replayable repro files
                    (``--out``); ``--replay`` re-runs a repro file;
                    non-zero exit on violation;
- ``slo``         — run the queue-depth vs latency-aware balancer
                    head-to-head under an open-loop burst and print
                    each policy's tail latency (``--json`` for the raw
                    numbers);
- ``trace``       — run a migration scenario and export a Chrome
                    trace-event JSON (``--out``) loadable in Perfetto.

Bad input prints one ``repro: error:`` line and exits 2.  Output into a
pipe whose reader has gone away (``python -m repro report | head -1``)
ends the command quietly with exit status 141, as a shell reports a
process killed by SIGPIPE.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from repro.chaos.campaign import SCALES, SCENARIOS, run_campaign
from repro.core.config import SystemConfig
from repro.core.system import System
from repro.errors import ConfigError
from repro.obs.exporters import metrics_snapshot_dict, write_chrome_trace
from repro.servers.common import rpc
from repro.stats.collector import collect_report

#: Exit status when the reader of stdout goes away (``... | head``):
#: what a shell reports for a process killed by SIGPIPE, 128 + 13.
EXIT_BROKEN_PIPE = 141


def _cmd_migrate(args: argparse.Namespace) -> int:
    system = System(SystemConfig(machines=args.machines))

    def worker(ctx):
        while True:
            yield ctx.compute(5_000)

    pid = system.spawn(worker, machine=args.source, name="subject")
    ticket = system.migrate(pid, args.dest)
    system.run(until=5_000_000)
    if not ticket.done or not ticket.success:
        print("migration did not complete", file=sys.stderr)
        return 1
    for key, value in ticket.record.summary().items():
        print(f"{key:>20}: {value}")
    from repro.stats.timeline import migration_timeline, render_timeline

    print("\nprotocol timeline (Figure 3-1):")
    print(render_timeline(migration_timeline(system.spans())))
    return 0


def _cmd_shell(args: argparse.Namespace) -> int:
    system = System(SystemConfig(machines=args.machines,
                                 notify_process_manager=True))
    outputs: list[tuple[str, str]] = []

    def operator(ctx):
        for line in args.lines:
            reply = yield from rpc(
                ctx, ctx.bootstrap["command_interpreter"], "command",
                {"line": line}, payload_bytes=16 + len(line),
            )
            outputs.append((line, reply.payload.get("text", "")))
            yield ctx.sleep(5_000)
        yield ctx.exit()

    system.spawn(operator, machine=0, name="operator")
    system.run(until=10_000_000)
    for line, text in outputs:
        print(f"demos$ {line}")
        for row in text.splitlines():
            print(f"  {row}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Run a closed-loop workload against a migrating server and report.

    The scenario is deliberately user-facing: N simulated users in a
    request/wait/think loop, with the server they talk to force-migrated
    mid-conversation, so the report's request-latency percentiles carry
    the cost of migration and forwarding — not just the counter totals.
    ``--shards N`` (N > 1) runs the same scenario on the sharded engine
    over a torus; the report is the merged per-shard snapshot.
    """
    from repro.sim.shard import ShardedSystem
    from repro.workloads.closed_loop import ClientPool, ClosedLoopConfig
    from repro.workloads.compute import compute_bound
    from repro.workloads.pingpong import echo_server

    headline: tuple[str, ...] = ()
    extra = {}
    if args.backbone_latency is not None and args.shards <= 1:
        raise ConfigError("--backbone-latency needs --shards N > 1")
    if args.shards > 1:
        cluster = ShardedSystem(SystemConfig(
            machines=args.machines, topology="torus", shards=args.shards,
            backbone_latency=args.backbone_latency,
        ))
        headline = (
            f"sharded execution: {len(cluster.shards)} shards, "
            f"lookahead {cluster.barrier_grid}us",
        )
        extra = {"shards": len(cluster.shards)}
    else:
        cluster = System(SystemConfig(machines=args.machines))
    if args.machines < 4:
        raise ConfigError(
            f"report needs --machines >= 4 (it migrates a job to machine "
            f"3), got {args.machines}"
        )
    server = cluster.spawn(lambda ctx: echo_server(ctx), machine=1,
                           name="echo")
    pool = ClientPool(
        cluster,
        ClosedLoopConfig(clients=args.clients,
                         requests_per_client=args.requests),
    )
    pool.install()
    jobs = [
        cluster.spawn(lambda ctx: compute_bound(ctx, total=30_000),
                      machine=0, name=f"job-{i}")
        for i in range(3)
    ]
    cluster.call_at(10_000, 0, cluster.migrate, jobs[0], 3)
    # Move the server while the pool is mid-conversation: the latency
    # tail in the report is the §6 migration cost as a user sees it.
    cluster.call_at(30_000, 1, cluster.migrate, server, args.machines - 1)
    cluster.run(until=2_000_000)
    cluster.drain()
    report = collect_report(cluster)
    if args.json:
        document = metrics_snapshot_dict(
            cluster.snapshot(),
            now=cluster.now(),
            extra={"report": report.to_dict(), **extra},
        )
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    for line in (*headline, *report.lines()):
        print(line)
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    """Queue-depth vs latency-aware migration under an open-loop burst:
    both arms of :mod:`repro.workloads.slo` (the scenario e13 gates)."""
    from repro.workloads.slo import SloParams, run_arm

    params = replace(SloParams(), clients=args.clients, slo_us=args.slo_us,
                     seed=args.seed)
    arms = []
    for policy in ("queue-depth", "latency-aware"):
        arm = run_arm(params, latency_aware=policy == "latency-aware")
        for key in ("requests_sent", "unanswered", "mismatches",
                    "burst_count", "burst_p50_us", "burst_p99_us"):
            del arm[key]  # gated by e13, not printed here
        arms.append({"policy": policy, **arm})
    if args.json:
        print(json.dumps({"slo_us": args.slo_us, "policies": arms},
                         indent=2, sort_keys=True))
        return 0
    print(f"open-loop burst, p99 SLO {args.slo_us}us, "
          f"{args.clients} clients:")
    for arm in arms:
        first = arm["first_move_at_us"]
        first = "never moved" if first is None else f"first move t={first}us"
        print(f"  {arm['policy']:>13}: p99 {arm['p99_us']:>9.0f}us, "
              f"in-SLO {arm['replies_in_slo']}/{arm['requests']}, "
              f"{arm['migrations']} migrations ({first})")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run the chaos campaign and gate the survivor invariants."""
    result = run_campaign(args.scale, scenarios=args.scenario or None)
    if args.json:
        document = {
            "scale": result.scale,
            "scenarios": (
                args.scenario if args.scenario else list(SCENARIOS)
            ),
            "counters": result.counters,
            "problems": result.problems,
            "ok": result.ok,
        }
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        for outcome in result.outcomes:
            verdict = "ok" if outcome.ok else "FAILED"
            print(f"[{outcome.name}] {verdict}")
            for event in outcome.ledger:
                print(f"  t={event.at}us {event.kind}: {event.detail}")
            for key, value in sorted(outcome.counters.items()):
                print(f"  {key} = {value}")
        if result.problems:
            print("survivor invariant violations:")
            for problem in result.problems:
                print(f"  {problem}")
        else:
            print("all survivor invariants hold")
    return 0 if result.ok else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    """Fuzz random chaos schedules; replay repro files."""
    from repro.chaos.fuzz import replay, run_fuzz

    if args.replay is not None:
        outcome = replay(args.replay, budget=args.budget)
        if args.json:
            print(json.dumps({
                "replay": args.replay,
                "scenario": outcome.name,
                "counters": outcome.counters,
                "problems": outcome.problems,
                "ok": outcome.ok,
            }, indent=2, sort_keys=True))
        else:
            verdict = "ok" if outcome.ok else "VIOLATION"
            print(f"[replay {args.replay}] {verdict} ({outcome.name})")
            for problem in outcome.problems:
                print(f"  {problem}")
        return 0 if outcome.ok else 1

    if args.out is not None:
        _check_out_dir(args.out)
    report = run_fuzz(
        seed=args.seed, runs=args.runs, budget=args.budget,
        out_dir=args.out,
    )
    if args.json:
        print(json.dumps({
            "seed": report.seed,
            "runs": report.runs,
            "digests": report.digests,
            "violations": [
                {"scenario": outcome.name, "problems": outcome.problems}
                for outcome in report.violations
            ],
            "repro_paths": report.repro_paths,
            "ok": report.ok,
        }, indent=2, sort_keys=True))
        return 0 if report.ok else 1
    print(f"fuzz: seed {report.seed}, {report.runs} schedules, "
          f"{len(report.violations)} violation(s)")
    for outcome in report.violations:
        print(f"  {outcome.name}:")
        for problem in outcome.problems:
            print(f"    {problem}")
    for path in report.repro_paths:
        print(f"  repro written: {path}")
    if report.ok:
        print("all schedules held the survivor invariants")
    return 0 if report.ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run one migration (plus a stale-link probe) and export the trace."""
    from repro.kernel.ids import ProcessAddress
    from repro.kernel.messages import MessageKind

    _check_out_file(args.out)
    system = System(SystemConfig(machines=args.machines,
                                 boot_servers=False))

    def parked(ctx):
        while True:
            yield ctx.receive()

    pid = system.spawn(parked, machine=args.source, name="subject")
    ticket = system.migrate(pid, args.dest)
    system.run(max_events=1_000_000)
    if not ticket.done or not ticket.success:
        print("migration did not complete", file=sys.stderr)
        return 1
    # A probe on the stale address exercises the forwarding path, so the
    # exported span carries FORWARD_HOP child events (Figure 4-1).
    probe_from = next(
        (m for m in range(args.machines)
         if m not in (args.source, args.dest)),
        None,
    )
    if probe_from is not None:
        system.kernel(probe_from).send_to_process(
            ProcessAddress(pid, args.source), "probe", {},
            kind=MessageKind.USER,
        )
        system.run(max_events=1_000_000)

    spans = system.spans()
    span_records = ("migrate", "forward", "linkupd")
    path = write_chrome_trace(
        args.out,
        spans,
        records=(
            r for r in system.tracer if r.category not in span_records
        ),
        metadata={"machines": args.machines, "pid": str(pid)},
        metrics=system.metrics.snapshot(),
    )
    for span in spans:
        print(
            f"{span.name}: {span.status}, steps {span.steps()}, "
            f"{len(span.child_events())} child events, "
            f"duration {span.duration}us"
        )
    print(f"wrote Chrome trace to {path} "
          f"(load it at https://ui.perfetto.dev)")
    return 0


def _check_out_file(path: str) -> None:
    """Refuse, before anything runs, an ``--out`` file that cannot be
    written: a directory, a path whose directory does not exist, or a
    file (existing, or to be created) the user may not write."""
    target = Path(path)
    if target.is_dir():
        raise ConfigError(f"--out {path} is a directory, not a file")
    if target.exists():
        # Overwriting needs the file writable, not its directory
        # (``--out /dev/null`` is fine).
        if not os.access(target, os.W_OK):
            raise ConfigError(f"--out {path} is not writable")
        return
    if not target.parent.is_dir():
        raise ConfigError(
            f"--out {path}: no directory {target.parent} to write it in"
        )
    if not os.access(target.parent, os.W_OK):
        raise ConfigError(f"--out {path}: {target.parent} is not writable")


def _check_out_dir(path: str) -> None:
    """Refuse, before anything runs, an ``--out`` directory that neither
    exists nor can be created (nothing is created here: repro files and
    their directory are written only on a violation)."""
    target = Path(path)
    ancestor = target
    while not ancestor.exists():
        ancestor = ancestor.parent
    if not ancestor.is_dir():
        where = "" if ancestor == target else f": {ancestor} is a file"
        raise ConfigError(f"--out {path} is not a directory{where}")
    if not os.access(ancestor, os.W_OK):
        raise ConfigError(f"--out {path}: {ancestor} is not writable")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="DEMOS/MP process-migration reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    migrate = sub.add_parser("migrate", help="migrate one process")
    migrate.add_argument("--machines", type=int, default=4)
    migrate.add_argument("--source", type=int, default=0)
    migrate.add_argument("--dest", type=int, default=2)
    migrate.set_defaults(func=_cmd_migrate)

    shell = sub.add_parser("shell", help="run command-interpreter lines")
    shell.add_argument("lines", nargs="+")
    shell.add_argument("--machines", type=int, default=4)
    shell.set_defaults(func=_cmd_shell)

    report = sub.add_parser("report", help="run a workload, print a report")
    report.add_argument("--machines", type=int, default=4)
    report.add_argument(
        "--clients", type=int, default=4,
        help="closed-loop clients driving the echo server (default: 4)",
    )
    report.add_argument(
        "--requests", type=int, default=10,
        help="requests each client completes (default: 10)",
    )
    report.add_argument(
        "--json", action="store_true",
        help="emit a machine-readable metrics snapshot instead of text",
    )
    report.add_argument(
        "--shards", type=int, default=1,
        help="run the cluster across N parallel execution shards "
             "(>1 selects the sharded engine on a torus; default: 1)",
    )
    report.add_argument(
        "--backbone-latency", type=int, default=None,
        help="with --shards: slower latency (us) for torus backbone "
             "wires, widening cross-shard rendezvous periods",
    )
    report.set_defaults(func=_cmd_report)

    slo = sub.add_parser(
        "slo", help="queue-depth vs latency-aware balancing head-to-head",
    )
    slo.add_argument(
        "--clients", type=int, default=24,
        help="open-loop clients driving the hot services (default: 24)",
    )
    slo.add_argument(
        "--slo-us", type=int, default=10_000,
        help="p99 objective in microseconds (default: 10000)",
    )
    slo.add_argument("--seed", type=int, default=0)
    slo.add_argument(
        "--json", action="store_true",
        help="emit both policies' numbers as JSON",
    )
    slo.set_defaults(func=_cmd_slo)

    chaos = sub.add_parser(
        "chaos", help="run the chaos campaign, gate survivor invariants",
    )
    chaos.add_argument(
        "--scale", choices=SCALES, default="smoke",
        help="campaign size (default: smoke, the CI tier)",
    )
    chaos.add_argument(
        "--scenario", action="append", choices=tuple(SCENARIOS),
        help="run only this scenario (repeatable; default: all)",
    )
    chaos.add_argument(
        "--json", action="store_true",
        help="emit counters, ledger sizes and problems as JSON",
    )
    chaos.set_defaults(func=_cmd_chaos)

    fuzz = sub.add_parser(
        "fuzz", help="fuzz random chaos schedules, gate every invariant",
    )
    fuzz.add_argument(
        "--seed", type=int, default=0,
        help="root seed; schedule i under a seed is stable forever "
             "(default: 0)",
    )
    fuzz.add_argument(
        "--runs", type=int, default=10,
        help="number of schedules to draw and run (default: 10)",
    )
    fuzz.add_argument(
        "--budget", type=int, default=2_000_000,
        help="event budget per engine run; exhausting it is itself a "
             "violation (default: 2000000)",
    )
    fuzz.add_argument(
        "--out", default=None,
        help="directory for shrunk repro files of violating schedules",
    )
    fuzz.add_argument(
        "--replay", default=None, metavar="REPRO",
        help="re-run one repro file instead of fuzzing",
    )
    fuzz.add_argument(
        "--json", action="store_true",
        help="emit digests, violations and repro paths as JSON",
    )
    fuzz.set_defaults(func=_cmd_fuzz)

    trace = sub.add_parser(
        "trace", help="run a migration, export Chrome trace-event JSON",
    )
    trace.add_argument("--machines", type=int, default=4)
    trace.add_argument("--source", type=int, default=0)
    trace.add_argument("--dest", type=int, default=2)
    trace.add_argument(
        "--out", default="trace.json",
        help="path for the trace-event JSON (default: trace.json)",
    )
    trace.set_defaults(func=_cmd_trace)

    args = parser.parse_args(argv)
    try:
        for flag in ("source", "dest"):
            machine = getattr(args, flag, None)
            if machine is not None and not 0 <= machine < args.machines:
                raise ConfigError(
                    f"--{flag} {machine} is not one of the "
                    f"{args.machines} machines (0..{args.machines - 1})"
                )
        if getattr(args, "source", None) is not None and (
            args.source == args.dest
        ):
            raise ConfigError(
                f"--dest {args.dest} is the --source machine: a migration "
                "moves a process to another machine"
            )
        code = args.func(args)
        # A reader that went away surfaces here, not in the exit flush.
        sys.stdout.flush()
        return code
    except ConfigError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        _detach_stdout()
        return EXIT_BROKEN_PIPE


def _detach_stdout() -> None:
    """Point stdout's descriptor at the null device, so the interpreter's
    exit flush of the unwritten rest cannot fail a second time."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # not backed by a descriptor: nothing to flush at exit
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
