"""Command-line front door: ``python -m repro <command>``.

Commands:

- ``demo``        — run the quickstart scenario and print the narrative;
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


def _cmd_demo(args: argparse.Namespace) -> int:
    from examples import quickstart  # pragma: no cover - optional path

    quickstart.main()
    return 0


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
    print(render_timeline(migration_timeline(system.tracer)))
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
    """
    from repro.workloads.closed_loop import ClientPool, ClosedLoopConfig
    from repro.workloads.compute import compute_bound
    from repro.workloads.pingpong import echo_server

    if args.shards > 1:
        return _report_sharded(args)
    system = System(SystemConfig(machines=args.machines))
    server = system.spawn(lambda ctx: echo_server(ctx), machine=1,
                          name="echo")
    pool = ClientPool(
        system,
        ClosedLoopConfig(clients=args.clients,
                         requests_per_client=args.requests),
    )
    pool.install()
    jobs = [
        system.spawn(lambda ctx: compute_bound(ctx, total=30_000),
                     machine=0, name=f"job-{i}")
        for i in range(3)
    ]
    system.loop.call_at(10_000, lambda: system.migrate(jobs[0], 3))
    # Move the server while the pool is mid-conversation: the latency
    # tail in the report is the §6 migration cost as a user sees it.
    system.loop.call_at(
        30_000, lambda: system.migrate(server, args.machines - 1),
    )
    system.run(until=2_000_000)
    return _print_report(system, args)


def _print_report(
    cluster, args: argparse.Namespace, *headline: str, **extra
) -> int:
    """The ``report`` tail for either scenario body: the cluster's
    report as lines (after any *headline*) or as a JSON document
    (with any *extra* keys)."""
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


def _report_sharded(args: argparse.Namespace) -> int:
    """The ``report`` scenario on the sharded engine (``--shards N``).

    Machines pair up as echo servers and pingers on a torus; the
    cluster executes across N shards and the printed report is the
    merged per-shard snapshot — identical numbers for every shard
    count.  (A second scenario body only until ``ClientPool`` is
    shard-aware.)
    """
    from repro.sim.shard import ShardedSystem
    from repro.workloads.pingpong import echo_server, pinger
    from repro.workloads.results import ResultsBoard

    system = ShardedSystem(SystemConfig(
        machines=args.machines, topology="torus", shards=args.shards,
        backbone_latency=args.backbone_latency,
    ))
    boards = [ResultsBoard() for _ in system.shards]
    count = args.machines
    for m in system.topology.machines:
        system.spawn(
            lambda ctx, _m=m: echo_server(ctx, service_name=f"echo-{_m}"),
            machine=m, name=f"echo-{m}",
        )
        client = (m + 3) % count
        board = boards[system.plan.shard_of(client)]
        system.schedule_spawn(
            30_000 + 500 * m, client,
            lambda ctx, _m=m, _b=board: pinger(
                ctx, service_name=f"echo-{_m}", rounds=args.requests,
                board=_b, key=f"pinger-{_m}",
            ),
            name=f"pinger-{m}",
        )
    system.run(until=2_000_000)
    system.drain()
    return _print_report(
        system, args,
        f"sharded execution: {len(system.shards)} shards, "
        f"lookahead {system.plan.lookahead}us",
        shards=len(system.shards),
    )


def _cmd_slo(args: argparse.Namespace) -> int:
    """Queue-depth vs latency-aware migration under an open-loop burst.

    Two hot echo services share machine 3; an arrival-rate burst pushes
    their combined demand past one machine's capacity while the backlog
    queues in their *mailboxes* — invisible to run-queue spread.  The
    same scenario runs once per policy and the printed comparison is the
    paper's open question made concrete: when should the process manager
    move a process, queue depth or user-visible latency?
    """
    from repro.policy.load_balancer import DomainLoadBalancer, SloPolicy
    from repro.workloads.closed_loop import (
        ClientPool,
        LoadShape,
        OpenLoopConfig,
    )
    from repro.workloads.pingpong import echo_server

    def run(latency_aware: bool) -> dict:
        system = System(SystemConfig(machines=4, seed=args.seed))
        for name in ("svc-0", "svc-1"):
            system.spawn(
                lambda ctx, _n=name: echo_server(
                    ctx, service_name=_n, compute_per_request=500
                ),
                machine=3, name=name,
            )
        pool = ClientPool(
            system,
            OpenLoopConfig(
                clients=args.clients,
                mean_interarrival_us=20_000,
                duration=400_000,
                deadline_us=args.slo_us,
                drain_grace_us=150_000,
                shape=LoadShape(
                    kind="burst", burst_start=120_000, burst_end=280_000,
                    burst_factor=3.0, hot_services=2, hot_share=1.0,
                ),
            ),
            services=("svc-0", "svc-1"),
            domains={"svc-0": "all", "svc-1": "all"},
            machines=(0, 1, 2),
            key="slo",
        )
        pool.install()
        slo = None
        if latency_aware:
            slo = SloPolicy(p99_slo_us=args.slo_us, sustain=2,
                            cooldown=100_000, min_window_count=5)
        balancer = DomainLoadBalancer(
            system.domain_view([0, 1, 2, 3]),
            domain="all", interval=25_000, threshold=3, sustain=2,
            cooldown=100_000, victim_strategy="hungriest", slo=slo,
        )
        balancer.install()
        system.loop.call_at(450_000, balancer.stop)
        system.run(max_events=20_000_000)
        digest = collect_report(system).request_latency or {}
        moves = [
            r.time for r in system.tracer
            if r.event in ("balance", "slo_balance")
        ]
        return {
            "policy": "latency-aware" if latency_aware else "queue-depth",
            "migrations": balancer.stats.migrations_started,
            "first_move_at_us": moves[0] if moves else None,
            "p50_us": digest.get("p50_us"),
            "p99_us": digest.get("p99_us"),
            "requests": digest.get("count", 0),
            "replies_in_slo": pool.in_slo,
            "replies_late": pool.late,
            "slo_breach_samples": balancer.stats.slo_breach_samples,
        }

    arms = [run(latency_aware=False), run(latency_aware=True)]
    if args.json:
        print(json.dumps(
            {"slo_us": args.slo_us, "policies": arms},
            indent=2, sort_keys=True,
        ))
        return 0
    print(f"open-loop burst, p99 SLO {args.slo_us}us, "
          f"{args.clients} clients:")
    for arm in arms:
        first = (
            f"first move t={arm['first_move_at_us']}us"
            if arm["first_move_at_us"] is not None
            else "never moved"
        )
        print(
            f"  {arm['policy']:>13}: p99 {arm['p99_us']:>9.0f}us, "
            f"in-SLO {arm['replies_in_slo']}/{arm['requests']}, "
            f"{arm['migrations']} migrations ({first})"
        )
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
    from repro.chaos import replay, run_fuzz

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

    span_records = ("migrate", "forward", "linkupd")
    path = write_chrome_trace(
        args.out,
        system.spans.all_spans(),
        records=(
            r for r in system.tracer if r.category not in span_records
        ),
        metadata={"machines": args.machines, "pid": str(pid)},
        metrics=system.metrics.snapshot(),
    )
    for span in system.spans.all_spans():
        print(
            f"{span.name}: {span.status}, steps {span.steps()}, "
            f"{len(span.child_events())} child events, "
            f"duration {span.duration}us"
        )
    print(f"wrote Chrome trace to {path} "
          f"(load it at https://ui.perfetto.dev)")
    return 0


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
