"""Seeded chaos fuzzing: random valid scenario records + shrinking.

The campaign (:mod:`repro.chaos.campaign`) gates a handful of scripted
scenarios; this module *searches* the scenario space.  A draw is a
:class:`~repro.chaos.scenario.Scenario` record — system shape, echo
servers, pingers, and a schedule of chaos actions — drawn from one
named RNG stream (``fuzz/schedule/<index>``), so schedule *i* under
root seed *s* is the same record forever, regardless of how many runs
came before it.

A draw runs like any campaign scenario
(:func:`~repro.chaos.runner.run_scenario`).  Draws made *sharded* carry
only shard-safe actions on grid-aligned times and name three engines —
classic, ``shards=1`` and ``shards=2`` — so the conservative-PDES
parity argument is an oracle checked on every draw, not just on the
scripted parity scenarios.

A violating record is minimized by :func:`shrink` (greedy delta
debugging over the record's pure data: drop actions, drop storm moves,
drop pingers, halve rounds — every candidate re-validated before it is
tried) and written as a replayable JSON repro file.  Confirmed repros
are promoted into ``tests/chaos/regressions/``, where a loader test
replays every file and asserts the violation stays fixed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.chaos.runner import ScenarioOutcome, run_scenario
from repro.chaos.scenario import ActionSpec, Scenario
from repro.errors import ConfigError
from repro.sim.rng import RandomStreams

#: first action slot and slot spacing (one action per slot; spacing is
#: generous so storms finish their migrations before the next fault).
#: Every draw keeps the record's default 1,000us latency — the sharded
#: window grid — so the slot scheme is grid-aware by construction.
SLOT_BASE = 20_000
SLOT_SPACING = 15_000

#: loop-scheduled actions (storms, drains) sit off the window grid so
#: they can never collide with a barrier action's time.
OFFGRID = 37

#: file format version stamped into repro files (1: the pre-record
#: schedule shape, still read)
REPRO_VERSION = 2


@dataclass
class FuzzReport:
    """One fuzzing session: *runs* draws under one root seed."""

    seed: int
    runs: int
    digests: list[int] = field(default_factory=list)
    violations: list[ScenarioOutcome] = field(default_factory=list)
    repro_paths: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------


def generate_schedule(seed: int, index: int) -> Scenario:
    """Draw record *index* under root *seed*.

    Only the stream ``fuzz/schedule/<index>`` is consumed, so the draw
    is independent of every other draw — draw 7 is the same whether
    you ran 8 draws or 8,000.
    """
    rng = RandomStreams(seed).stream(f"fuzz/schedule/{index}")
    sharded = rng.random() < 0.5
    machines = rng.choice((4, 6, 8))
    topology = "torus" if sharded else rng.choice(("mesh", "torus"))
    server_count = rng.randint(1, min(3, machines - 2))
    servers = tuple(
        rng.randrange(machines) for _ in range(server_count)
    )
    pingers = tuple(
        (s, rng.randrange(machines))
        for s in range(server_count)
        for _ in range(rng.randint(1, 2))
    )
    rounds = rng.randint(2, 5)

    # Machines 0 (control servers) and 1 (file server) never die, so
    # they are always legal executors; further executors are reserved
    # out of the victim pool as they are drawn.  Pinger homes never die
    # either: fail-stop abandons the dead machine's unacked sends (see
    # ReliableTransport.abandon_sends), so a recovered mid-RPC client
    # may wait forever for a reply to a request that died in the dead
    # machine's send buffer — legal under the model, but it makes the
    # completion gate vacuous, so the generator avoids it.
    victims_allowed = set(range(2, machines)) - {
        client for _, client in pingers
    }
    dead: set[int] = set()
    homes = list(servers)
    kinds = ("storm", "crash", "evacuate")
    if not sharded:
        kinds += ("partition", "flaky")
    specs: list[ActionSpec] = []
    for slot in range(rng.randint(1, 4)):
        base = SLOT_BASE + SLOT_SPACING * slot
        kind = rng.choice(kinds)
        alive = [m for m in range(machines) if m not in dead]
        if kind in ("crash", "evacuate"):
            pool = sorted(victims_allowed - dead)
            if not pool:
                continue
            machine = rng.choice(pool)
            executor = rng.choice(
                [m for m in alive if m != machine]
            )
            victims_allowed.discard(executor)
            dead.add(machine)
            if kind == "crash":
                specs.append(ActionSpec(
                    kind="crash", at=base, machine=machine,
                    executor=executor,
                ))
                takeover = executor
            else:
                # The pool can be a single machine (small system, prior
                # deaths), so the draw is clamped to what is available.
                dest_pool = [
                    m for m in alive
                    if m != machine and m != executor
                ]
                dests = tuple(sorted(rng.sample(
                    dest_pool,
                    min(rng.randint(1, 2), len(dest_pool)),
                ))) or (executor,)
                specs.append(ActionSpec(
                    kind="evacuate", at=base + OFFGRID,
                    machine=machine, executor=executor,
                    until=base + 10_000, dests=dests,
                ))
                # Drained residents round-robin onto dests; track the
                # first destination (materialization uses the same rule).
                takeover = dests[0]
            homes = [takeover if h == machine else h for h in homes]
        elif kind == "storm":
            indices = rng.sample(
                range(server_count), rng.randint(1, server_count)
            )
            moves = []
            for sidx in sorted(indices):
                choices = [
                    m for m in alive if m != homes[sidx]
                ]
                if not choices:
                    continue
                dest = rng.choice(choices)
                moves.append((sidx, dest))
                homes[sidx] = dest
            if not moves:
                continue
            specs.append(ActionSpec(
                kind="storm", at=base + OFFGRID, moves=tuple(moves),
            ))
        elif kind == "partition":
            split = rng.sample(alive, len(alive))
            cut = rng.randint(1, len(split) - 1)
            specs.append(ActionSpec(
                kind="partition", at=base + OFFGRID,
                until=base + 8_000,
                group_a=tuple(sorted(split[:cut])),
                group_b=tuple(sorted(split[cut:])),
            ))
        else:  # flaky
            specs.append(ActionSpec(
                kind="flaky", at=base + OFFGRID, until=base + 9_000,
                drop_permille=rng.choice((20, 50)),
                jitter=rng.choice((0, 300)),
            ))
    return Scenario(
        name=f"fuzz-{seed}-{index}",
        machines=machines,
        seed=rng.randrange(2**32),
        topology=topology,
        engines=(0, 1, 2) if sharded else (0,),
        servers=servers,
        prefix="fuzz-echo",
        pingers=pingers,
        rounds=rounds,
        actions=tuple(specs),
    )


#: the static check every draw, shrink candidate and repro file passes
validate_schedule = Scenario.validate


# ---------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------


def _candidates(scenario: Scenario) -> Iterator[Scenario]:
    """Strictly smaller records, biggest cuts first."""
    actions = scenario.actions
    for i in range(len(actions)):
        yield replace(scenario, actions=actions[:i] + actions[i + 1:])
    for i, spec in enumerate(actions):
        if spec.kind != "storm" or len(spec.moves) < 2:
            continue
        for j in range(len(spec.moves)):
            smaller = replace(
                spec, moves=spec.moves[:j] + spec.moves[j + 1:],
            )
            yield replace(
                scenario, actions=actions[:i] + (smaller,) + actions[i + 1:]
            )
    for i in range(len(scenario.pingers)):
        yield replace(scenario, pingers=(
            scenario.pingers[:i] + scenario.pingers[i + 1:]
        ))
    if scenario.rounds > 1:
        yield replace(scenario, rounds=scenario.rounds // 2)


def shrink(
    scenario: Scenario,
    still_fails: Callable[[Scenario], bool],
    max_attempts: int = 64,
) -> Scenario:
    """Greedy delta debugging: keep the smallest still-failing record.

    Each candidate drops one component (action, storm move, pinger) or
    halves the pinger rounds; invalid candidates are skipped without
    spending an attempt.  *still_fails* is the caller's violation
    predicate (typically ``lambda s: not run_scenario(s).ok``).
    """
    current = scenario
    attempts = 0
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for candidate in _candidates(current):
            if attempts >= max_attempts:
                break
            try:
                validate_schedule(candidate)
            except ConfigError:
                continue
            attempts += 1
            if still_fails(candidate):
                current = candidate
                improved = True
                break
    return current


# ---------------------------------------------------------------------
# Repro files
# ---------------------------------------------------------------------


def write_repro(
    path: str | Path,
    scenario: Scenario,
    problems: list[str],
    note: str = "",
) -> Path:
    """Write a replayable repro file for a violating record."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": REPRO_VERSION,
        "note": note,
        "violations": problems,
        "schedule": scenario.to_json(),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _from_v1(data: dict[str, Any]) -> dict[str, Any]:
    """A version-1 schedule dict in the record's JSON shape."""
    data = dict(data)
    seed, index = data.pop("seed"), data.pop("index")
    system_seed, sharded = data.pop("system_seed"), data.pop("sharded")
    return {
        **data,
        "name": f"fuzz-{seed}-{index}",
        "seed": system_seed,
        "engines": [0, 1, 2] if sharded else [0],
        "prefix": "fuzz-echo",
    }


def load_repro(path: str | Path) -> Scenario:
    """Load and validate the record out of a repro file.

    The file comes from outside the program: one that is missing,
    unreadable, not JSON, not shaped like a repro or holding a record
    that cannot run is a :class:`ConfigError` naming the file, never a
    traceback — and never a run whose failure looks like a protocol
    violation.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
        raise ConfigError(f"cannot read repro file {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"repro file {path} is not a JSON object")
    version = payload.get("version")
    if version not in (1, REPRO_VERSION):
        raise ConfigError(
            f"repro file {path} has version {version!r}; expected 1 or "
            f"{REPRO_VERSION}"
        )
    try:
        data = payload["schedule"]
        scenario = Scenario.from_json(_from_v1(data) if version == 1 else data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(
            f"repro file {path} does not hold a schedule: {exc!r}"
        ) from None
    try:
        scenario.validate()
    except (ConfigError, TypeError, ValueError) as exc:
        raise ConfigError(f"repro file {path} cannot run: {exc}") from None
    return scenario


def replay(path: str | Path, budget: int = 2_000_000) -> ScenarioOutcome:
    """Re-run a repro file's record and return the fresh outcome."""
    return run_scenario(load_repro(path), budget=budget)


# ---------------------------------------------------------------------
# The fuzzing session
# ---------------------------------------------------------------------


def run_fuzz(
    seed: int = 0,
    runs: int = 10,
    budget: int = 2_000_000,
    out_dir: str | Path | None = None,
    shrink_violations: bool = True,
) -> FuzzReport:
    """Draw and run *runs* records under *seed*.

    Violating records are shrunk (unless disabled) and written as
    repro files under *out_dir* (``fuzz-<seed>-<index>.json``).  The
    report's digest list is the determinism witness: the same seed and
    runs always reproduce the same digests.
    """
    report = FuzzReport(seed=seed, runs=runs)
    for index in range(runs):
        scenario = generate_schedule(seed, index)
        outcome = run_scenario(scenario, budget=budget)
        report.digests.append(outcome.counters.get("ledger_digest", 0))
        if outcome.ok:
            continue
        if shrink_violations:
            smallest = shrink(
                scenario,
                lambda s: not run_scenario(s, budget=budget).ok,
            )
            if smallest is not scenario:
                scenario = smallest
                outcome = run_scenario(smallest, budget=budget)
                outcome.problems = (
                    outcome.problems
                    or [f"shrunk from schedule {index}"]
                )
        report.violations.append(outcome)
        if out_dir is not None:
            path = write_repro(
                Path(out_dir) / f"fuzz-{seed}-{index}.json",
                scenario,
                outcome.problems,
                note=f"found by run_fuzz(seed={seed}) at index {index}",
            )
            report.repro_paths.append(str(path))
    return report
