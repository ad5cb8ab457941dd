"""Property test: frozen time never counts against a timer.

A process blocked in ``sleep(d)`` or ``receive(timeout=d)`` can be frozen
twice over: suspended by a DELIVERTOKERNEL stop/start pair (§2.2), and
in migration between steps 1 and 8 (§3).  Both freezes turn the wake
deadline into the remaining duration and the thaw rearms it, so the
process wakes exactly ``d`` of *unfrozen* time after it blocked, plus the
one syscall charge of its resume — whether the migration is disjoint
from the suspension window, nested inside it, or overlapping it.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kernel.ids import ProcessAddress
from repro.kernel.kernel import SYSCALL_CPU_COST
from repro.kernel.ops import OP_START_PROCESS, OP_STOP_PROCESS
from tests.conftest import drain, make_bare_system

BOUNDED = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: a program blocks at t=10 (its first resume); control traffic is sent
#: no earlier than this
FIRST = 20

#: where the migration falls against the stop/start window
RELATIONS = (
    "none",
    "window",
    "migration",
    "disjoint",
    "nested",
    "overlapping",
)


def union_length(intervals):
    """Total time covered by closed intervals [a, b]."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


@st.composite
def scenarios(draw):
    duration = draw(st.integers(min_value=20_000, max_value=80_000))
    kind = draw(st.sampled_from(["sleep", "receive"]))
    window = None
    migration = None
    relation = draw(st.sampled_from(RELATIONS))
    if relation not in ("none", "migration"):
        stop_at = draw(st.integers(min_value=FIRST, max_value=duration // 2))
        low = 20_000 if relation == "nested" else 1_000
        length = draw(st.integers(min_value=low, max_value=40_000))
        window = (stop_at, stop_at + length)
    if relation == "migration":
        migration = draw(
            st.integers(min_value=FIRST, max_value=duration // 2)
        )
    elif relation == "disjoint":
        # After the start is sent; the remaining sleep (>= duration / 2)
        # outlasts the gap, so the move lands while still blocked.
        migration = window[1] + draw(st.integers(1_000, 5_000))
    elif relation == "nested":
        # A move takes ~12 ms, well inside a >= 20 ms window.
        migration = window[0] + draw(st.integers(500, 2_000))
    elif relation == "overlapping":
        edge = draw(st.sampled_from(window))
        migration = max(FIRST, edge - draw(st.integers(0, 5_000)))
    return duration, kind, window, migration, relation


class TestFrozenTime:
    @BOUNDED
    @given(scenario=scenarios())
    def test_wake_time_is_duration_plus_time_frozen(self, scenario):
        duration, kind, window, migrate_at, relation = scenario
        system = make_bare_system()
        seen = {}

        def subject(ctx):
            seen["t0"] = ctx.now
            if kind == "sleep":
                yield ctx.sleep(duration)
            else:
                seen["message"] = yield ctx.receive(timeout=duration)
            seen["woke"] = ctx.now

        pid = system.spawn(subject, machine=0)
        address = ProcessAddress(pid, 0)
        control = system.kernel(2)

        def send(op):
            control.send_to_process(address, op, {}, deliver_to_kernel=True)

        if window is not None:
            system.loop.call_at(window[0], lambda: send(OP_STOP_PROCESS))
            system.loop.call_at(window[1], lambda: send(OP_START_PROCESS))
        tickets = []
        if migrate_at is not None:
            system.loop.call_at(
                migrate_at, lambda: tickets.append(system.migrate(pid, 1))
            )
        drain(system)

        frozen = []
        marks = {
            record.event: record.time
            for record in system.tracer
            if record.event in ("suspended", "resumed")
        }
        if window is not None:
            frozen.append((marks["suspended"], marks["resumed"]))
        if migrate_at is not None:
            (ticket,) = tickets
            assert ticket.success
            moved = (ticket.record.started_at, ticket.record.restarted_at)
            frozen.append(moved)
            if relation == "disjoint":
                assert moved[1] < window[0] or moved[0] > window[1]
            elif relation == "nested":
                assert window[0] < moved[0] and moved[1] < window[1]
            elif relation == "overlapping":
                assert any(moved[0] <= edge < moved[1] for edge in window)
        if kind == "receive":
            assert seen["message"] is None  # timed out
        cost = SYSCALL_CPU_COST
        assert seen["woke"] - seen["t0"] == (
            duration + union_length(frozen) + cost
        )
