"""Chaos campaigns: scripted failure scenarios with live workloads.

A campaign is a fixed table of :class:`~repro.chaos.scenario.Scenario`
records (:data:`SCENARIOS`, one per scale), each run by
:func:`~repro.chaos.runner.run_scenario` on freshly built systems with
its workload alive throughout and gated at quiescence by the survivor
invariants.  Everything is seeded and simulated-time based, so a
campaign's gated counters are byte-identical run to run — the property
the e12 benchmark asserts by literally running the smoke campaign
twice.  Adding a scenario is adding one table entry.

Scenarios:

- ``crash`` — a migration storm relocates the echo servers, then two
  scripted fail-stop crashes hit machines the storm just moved servers
  onto; everything is protected, so the crashes have survivors that
  keep answering from the executor machines.
- ``partition`` — the mesh splits into two halves mid-workload and
  heals; a lossy/jittery window follows.  The reliable transport's
  retransmissions carry every request across the cut exactly once.
- ``evacuate`` — a machine is drained (maintenance): its residents
  migrate off, inbound migrations are refused, and the scheduled kill
  finds the machine empty — zero casualties, zero recoveries.
- ``fileserver_crash`` — the paper's hardest demo inverted: instead of
  migrating the file server mid-I/O, its machine fail-stops mid-request
  under a mixed echo + verified file workload; stable storage recovers
  it on the executor and every read-after-write stream finishes with
  zero corruption.
- ``storm_parity`` — a forced migration storm over a lossy torus, run
  under ``shards=1`` and ``shards=N`` on the serial executor; every
  merged counter and the fault ledger must be byte-identical.
- ``crash_parity`` — storms plus grid-aligned fail-stop crashes, run
  three ways (classic engine, ``shards=1``, ``shards=2``; the full
  scale adds ``shards=4``): barrier-aligned crash recovery must leave
  every merged counter and the fault ledger byte-identical across all
  engines.

The pool scenarios end with one forwarding GC sweep and a two-round
probe pinger per service (the behavioral §4 chain-collapse gate: the
probe's *second* request forwards at most once) before the invariants.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chaos.runner import ScenarioOutcome, run_scenario
from repro.chaos.scenario import ActionSpec, Scenario
from repro.errors import ConfigError

#: campaign scales (the smoke tier is the CI gate)
SCALES = ("smoke", "full")


@dataclass
class CampaignResult:
    """Everything one campaign produced."""

    scale: str
    outcomes: list[ScenarioOutcome]

    @property
    def counters(self) -> dict[str, int]:
        """Every gated counter, flattened as ``<scenario>.<name>``."""
        flat: dict[str, int] = {}
        for outcome in self.outcomes:
            for key, value in sorted(outcome.counters.items()):
                flat[f"{outcome.name}.{key}"] = value
        return flat

    @property
    def problems(self) -> list[str]:
        """Every invariant violation, prefixed by scenario."""
        return [
            f"[{outcome.name}] {problem}"
            for outcome in self.outcomes
            for problem in outcome.problems
        ]

    @property
    def ok(self) -> bool:
        return not self.problems


# ---------------------------------------------------------------------
# The campaign's records
# ---------------------------------------------------------------------


def _storm(at: int, *moves: tuple[int, int]) -> ActionSpec:
    return ActionSpec(kind="storm", at=at, moves=moves)


def _crash(at: int, machine: int, executor: int) -> ActionSpec:
    return ActionSpec(kind="crash", at=at, machine=machine, executor=executor)


def _pool(name: str, **fields) -> Scenario:
    """A closed-loop pool scenario, observed, with the sweep-and-probe
    epilogue; the campaign runs it on the classic engine, and it runs
    unchanged on every other."""
    return Scenario(
        name=name, latency=100, observe=True, probe=True, **fields
    )


def _storm_parity(machines: int, pingers_per_server: int, rounds: int,
                  storm_times: tuple[int, ...], shards: int) -> Scenario:
    # Each storm wave pushes every server half the torus away — always
    # across a shard boundary when shards > 1.  Wave spacing: moving a
    # process image over a 1,000 bytes/ms wire takes tens of
    # milliseconds, so consecutive waves must be farther apart than one
    # migration or the next wave finds its victim still IN_MIGRATION
    # and (deterministically) skips it.
    half = machines // 2
    return Scenario(
        name="storm_parity", machines=machines, seed=1986,
        topology="torus", drop_permille=20, jitter=300,
        engines=(1, shards), servers=tuple(range(machines)),
        prefix="storm-echo",
        pingers=tuple(
            (m, (m + 1 + 3 * k) % machines)
            for m in range(machines) for k in range(pingers_per_server)
        ),
        pinger_start=10_000, rounds=rounds,
        actions=tuple(
            _storm(at, *((m, (m + (wave + 1) * half) % machines)
                         for m in range(machines)))
            for wave, at in enumerate(storm_times)
        ),
        expect=(("messages_forwarded", ">=", 1),),
    )


def _crash_parity(machines: int, rounds: int, servers: tuple[int, ...],
                  dests: tuple[int, ...], crashes: tuple[ActionSpec, ...],
                  engines: tuple[int, ...]) -> Scenario:
    # The storm's migrations take ~27ms each (process image over a
    # 1,000 bytes/ms wire); the crashes wait until the servers have
    # demonstrably landed on the doomed machines.  Pinger clients live
    # on the low machines — never on a crash victim (fail-stop abandons
    # the victim's unacked sends; see the fuzzer's generator).
    return Scenario(
        name="crash_parity", machines=machines, seed=1988,
        topology="torus", engines=engines, servers=servers,
        prefix="cpar-echo",
        pingers=tuple((j, j % 4) for j in range(len(servers))),
        rounds=rounds,
        actions=(_storm(18_037, *enumerate(dests)),) + crashes,
        expect=(("recovered", ">=", 1),),
    )


_PARTITION = (
    ActionSpec(kind="partition", at=20_000, until=45_000,
               group_a=(0, 1, 2, 3), group_b=(4, 5, 6, 7)),
    ActionSpec(kind="flaky", at=50_000, until=90_000,
               drop_permille=50, jitter=300),
)
_EVACUATE = (
    ActionSpec(kind="evacuate", at=30_000, machine=3, until=120_000,
               executor=2, dests=(2, 4, 5)),
    # A forced move INTO the draining machine: must be refused.
    _storm(40_000, (1, 3)),
)
_QUIET = (("casualties", "==", 0), ("recovered", "==", 0))

#: name -> scale -> record; the campaign runs them in this order
SCENARIOS: dict[str, dict[str, Scenario]] = {
    "crash": {
        "smoke": _pool(
            "crash", machines=8, seed=1983, servers=(2, 3),
            prefix="chaos-echo", clients=8, requests=6,
            actions=(_storm(15_000, (0, 5), (1, 6)),
                     _crash(25_000, 5, 4)),
            expect=(("recovered", ">=", 1), ("replies_forwarded", ">=", 1)),
        ),
        "full": _pool(
            "crash", machines=12, seed=1983, servers=(2, 3, 6, 7),
            prefix="chaos-echo", clients=24, requests=10,
            actions=(_storm(45_000, (0, 5), (1, 9), (2, 10), (3, 11)),
                     _crash(60_000, 5, 4), _crash(90_000, 9, 8)),
            expect=(("recovered", ">=", 1), ("replies_forwarded", ">=", 1)),
        ),
    },
    "partition": {
        scale: _pool(
            "partition", machines=8, seed=1984, servers=(2, 3),
            prefix="part-echo", clients=clients, requests=requests,
            actions=_PARTITION, expect=_QUIET,
        )
        for scale, clients, requests in (("smoke", 8, 4), ("full", 16, 8))
    },
    "evacuate": {
        scale: _pool(
            "evacuate", machines=8, seed=1985, servers=(3, 4),
            prefix="evac-echo", clients=clients, requests=requests,
            actions=_EVACUATE,
            expect=(("draining_refusals", ">=", 1),) + _QUIET,
        )
        for scale, clients, requests in (("smoke", 6, 4), ("full", 16, 8))
    },
    # No pool client may live on the crash victim (the file server's
    # machine 1): fail-stop abandons the dead machine's unacked sends,
    # so a recovered mid-RPC client could wait forever on a request
    # that died with the machine.
    "fileserver_crash": {
        scale: _pool(
            "fileserver_crash", machines=8, seed=1987, servers=(3, 4),
            prefix="fsx-echo", clients=clients, requests=requests,
            pool_exclude=(1,), files=files, file_ops=file_ops,
            actions=(_crash(20_000, 1, 2),),
            expect=(("recovered", ">=", 1),),
        )
        for scale, clients, requests, files, file_ops in (
            ("smoke", 6, 4, (5, 6, 7), 6),
            ("full", 12, 8, (5, 6, 7, 5), 8),
        )
    },
    "storm_parity": {
        "smoke": _storm_parity(8, 1, 8, (18_000, 100_000), shards=2),
        "full": _storm_parity(
            16, 2, 10, (18_000, 85_000, 152_000, 219_000), shards=4
        ),
    },
    "crash_parity": {
        "smoke": _crash_parity(
            8, 8, (2, 3), (5, 6), (_crash(56_000, 5, 4),),
            engines=(0, 1, 2),
        ),
        "full": _crash_parity(
            16, 10, (2, 3, 6, 7), (5, 9, 10, 11),
            (_crash(56_000, 5, 4), _crash(72_000, 9, 8)),
            engines=(0, 1, 2, 4),
        ),
    },
}


def run_campaign(
    scale: str = "smoke",
    scenarios: list[str] | None = None,
) -> CampaignResult:
    """Run the selected scenarios (default: all) at *scale*."""
    if scale not in SCALES:
        raise ConfigError(
            f"unknown campaign scale {scale!r}; choose from {SCALES}"
        )
    names = list(SCENARIOS) if scenarios is None else scenarios
    outcomes = []
    for name in names:
        try:
            table = SCENARIOS[name]
        except KeyError:
            raise ConfigError(
                f"unknown scenario {name!r}; choose from "
                f"{tuple(SCENARIOS)}"
            ) from None
        outcomes.append(run_scenario(table[scale]))
    return CampaignResult(scale=scale, outcomes=outcomes)
