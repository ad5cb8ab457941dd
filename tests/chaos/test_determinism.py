"""Property suite: chaos is a pure function of (seed, scenario).

The contract the campaign and the e12 benchmark lean on: the same seed
and scenario produce an identical fault-event ledger and identical
gated counters, on repeated runs and across shard counts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.engine import ChaosEngine, FaultEvent
from repro.chaos.scenario import ActionSpec, Scenario
from repro.core.config import SystemConfig
from repro.sim.shard import ShardedSystem
from repro.workloads.pingpong import echo_server, pinger
from repro.workloads.results import ResultsBoard
from tests.conftest import make_system

MACHINES = 4


def parked(ctx):
    while True:
        yield ctx.receive()


def run_classic(seed: int, crash_at: int, partition_at: int):
    """A crash + healing partition over parked processes; returns the
    gated observables."""
    system = make_system(machines=MACHINES, seed=seed)
    for m in (1, 2):
        system.spawn(parked, machine=m, name=f"sleeper-{m}")
    scenario = Scenario(
        name="prop-classic", machines=MACHINES, seed=seed,
        actions=(
            ActionSpec(kind="crash", at=crash_at, machine=1, executor=3),
            ActionSpec(
                kind="partition", at=partition_at,
                until=partition_at + 15_000,
                group_a=(0, 1), group_b=(2, 3),
            ),
        ),
    )
    engine = ChaosEngine(system, scenario, [])
    engine.install()
    system.run(max_events=2_000_000)
    counters = dict(engine.counts)
    counters["recovered"] = sum(
        len(r.recovered) for r in engine.crash_reports
    )
    counters["packets"] = system.network.stats.packets_sent
    return scenario, engine.ledger(), counters


def run_storm(seed: int, wave_times: tuple[int, ...], shards: int):
    """An echo/pinger torus under a forced storm; returns the gated
    observables."""
    system = ShardedSystem(SystemConfig(
        machines=MACHINES, topology="torus", latency=1_000,
        shards=shards, seed=seed,
        trace_categories=(), metrics_enabled=False,
    ))
    boards = [ResultsBoard() for _ in system.shards]
    pids = []
    for m in range(MACHINES):
        name = f"prop-echo-{m}"
        pids.append(system.spawn(
            lambda ctx, _n=name: echo_server(ctx, service_name=_n),
            machine=m, name=name,
        ))
    for m in range(MACHINES):
        client = (m + 1) % MACHINES
        board = boards[system.plan.shard_of(client)]
        system.schedule_spawn(
            5_000 + 500 * m, client,
            lambda ctx, _m=m, _b=board: pinger(
                ctx, service_name=f"prop-echo-{_m}", rounds=3,
                gap=6_000, board=_b, key=f"prop-ping-{_m}",
            ),
            name="pinger",
        )
    half = MACHINES // 2
    # Server m starts on machine m; each wave moves it half the torus
    # on, so it leaves the home the previous wave gave it.
    storms = tuple(
        ActionSpec(
            kind="storm", at=at,
            moves=tuple(
                (m, (m + (wave + 1) * half) % MACHINES)
                for m in range(MACHINES)
            ),
        )
        for wave, at in enumerate(wave_times)
    )
    scenario = Scenario(
        name="prop-storm", machines=MACHINES, seed=seed,
        servers=tuple(range(MACHINES)), actions=storms,
    )
    engine = ChaosEngine(system, scenario, pids)
    engine.install()
    system.drain()
    kernels = system.kernels
    counters = dict(engine.counts)
    counters["delivered"] = sum(
        k.stats.messages_delivered for k in kernels
    )
    counters["forwarded"] = sum(
        k.stats.messages_forwarded for k in kernels
    )
    counters["link_updates"] = sum(
        k.stats.link_updates_applied for k in kernels
    )
    counters["entries"] = sum(len(k.forwarding) for k in kernels)
    return engine.ledger(), counters


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    crash_at=st.integers(min_value=5_000, max_value=40_000),
    partition_at=st.integers(min_value=5_000, max_value=40_000),
)
def test_classic_ledger_is_the_schedule_and_repeats(
    seed, crash_at, partition_at
):
    scenario, ledger, counters = run_classic(
        seed, crash_at, partition_at
    )
    # No storms → nothing can skip: the runtime ledger IS the static
    # schedule, verbatim.
    assert ledger == [
        FaultEvent(*entry) for entry in scenario.fault_schedule([])
    ]
    _, ledger2, counters2 = run_classic(seed, crash_at, partition_at)
    assert ledger2 == ledger
    assert counters2 == counters


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    wave_times=st.lists(
        st.integers(min_value=8_000, max_value=150_000),
        min_size=1, max_size=2, unique=True,
    ).map(lambda ts: tuple(sorted(ts))),
)
def test_storm_repeats_and_matches_across_shard_counts(
    seed, wave_times
):
    ledger_1, counters_1 = run_storm(seed, wave_times, shards=1)
    ledger_1b, counters_1b = run_storm(seed, wave_times, shards=1)
    assert ledger_1b == ledger_1
    assert counters_1b == counters_1
    ledger_2, counters_2 = run_storm(seed, wave_times, shards=2)
    assert ledger_2 == ledger_1
    assert counters_2 == counters_1
