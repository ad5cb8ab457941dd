"""Property-based tests for the simulation substrate."""

from hypothesis import given
from hypothesis import strategies as st

from repro.net.network import Network
from repro.net.packet import Packet, PacketKind
from repro.net.topology import Topology
from repro.sim.barrier import HopRecord
from repro.sim.loop import EventLoop, KeyedEventLoop, MACHINE_ID_BITS
from repro.sim.rng import RandomStreams


class TestEventQueueProperties:
    @given(
        times=st.lists(
            st.integers(min_value=0, max_value=10_000), max_size=60,
        ),
    )
    def test_pop_order_is_time_then_fifo(self, times):
        loop = EventLoop()
        popped = []
        for index, time in enumerate(times):
            # the FIFO key call_at files under is the call's index
            entry = loop.call_at(
                time, lambda i: popped.append((loop.now, i)), index
            )
            assert entry[:2] == [time, index]
        loop.run()
        assert all(times[index] == now for now, index in popped)
        assert popped == sorted(popped)
        assert len(popped) == len(times)

    @given(
        times=st.lists(
            st.integers(min_value=0, max_value=1_000),
            min_size=1, max_size=40,
        ),
        cancel_mask=st.lists(st.booleans(), min_size=1, max_size=40),
    )
    def test_cancelled_events_never_fire(self, times, cancel_mask):
        loop = EventLoop()
        fired = []
        entries = [
            loop.call_at(t, fired.append, i) for i, t in enumerate(times)
        ]
        padded_mask = (cancel_mask * len(entries))[: len(entries)]
        expected = []
        for index, (entry, cancel) in enumerate(zip(entries, padded_mask)):
            if cancel:
                loop.cancel(entry)
            else:
                expected.append(index)
        assert loop.pending_events == len(expected)
        assert loop.run() == len(expected)
        assert sorted(fired) == expected
        assert loop.pending_events == 0


GRID = 1_000
MACHINE_MAX = (1 << MACHINE_ID_BITS) - 1
COUNTER_MAX = (1 << 80) - 1
WIRE_SEQ_MAX = (1 << 40) - 1


def _noop():
    pass


def packed_key(rank):
    """The heap key a keyed loop gives the event ranked *rank*: a
    local ``(g, 0, n)`` or a hop ``(g, 1, src, dst, wire_seq)``."""
    loop = KeyedEventLoop(GRID)
    if rank[1] == 0:
        g, _, n = rank
        loop.advance_to(g * GRID + GRID - 1)
        loop._seq = n
        return loop.call_soon(_noop)[1]
    g, _, src, dst, wire_seq = rank
    record = HopRecord(g * GRID, src, dst, wire_seq, None, g)
    return loop.schedule_record(record, _noop)[1]


def ranks(window):
    local = st.tuples(window, st.just(0), st.integers(0, COUNTER_MAX))
    machine = st.integers(0, MACHINE_MAX)
    hop = st.tuples(
        window, st.just(1), machine, machine, st.integers(0, WIRE_SEQ_MAX)
    )
    return st.one_of(local, hop)


class TestPackedKeyProperties:
    """The keyed loop's int keys sort exactly like the rank tuples its
    docstring defines, in one window and across adjacent ones."""

    @given(
        base=st.sampled_from([0, 1, 7, 10**9]),
        offsets=st.lists(ranks(st.integers(0, 1)), min_size=2, max_size=12),
    )
    def test_packed_keys_sort_like_rank_tuples(self, base, offsets):
        ranked = sorted(
            {(base + rank[0], *rank[1:]) for rank in offsets}
        )
        keys = [packed_key(rank) for rank in ranked]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_every_field_at_its_width_limit(self):
        ranked = [
            (0, 0, 0),
            (0, 0, COUNTER_MAX),
            (0, 1, 0, 0, 0),
            (0, 1, 0, 0, WIRE_SEQ_MAX),
            (0, 1, 0, MACHINE_MAX, WIRE_SEQ_MAX),
            (0, 1, MACHINE_MAX, 0, 0),
            (0, 1, MACHINE_MAX, MACHINE_MAX, WIRE_SEQ_MAX),
            (1, 0, 0),
            (1, 0, COUNTER_MAX),
            (1, 1, MACHINE_MAX, MACHINE_MAX, WIRE_SEQ_MAX),
        ]
        keys = [packed_key(rank) for rank in ranked]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


    def test_a_shard_internal_hop_lands_under_its_hop_key(self):
        # A hop born on this loop (hop_lander) and the same hop
        # arriving as a record (schedule_record) get one key.
        loop = KeyedEventLoop(GRID)
        network = Network(loop, Topology.line(3))
        loop.advance_to(2 * GRID + 17)
        for src, dst in ((0, 1), (2, 1), (0, 1)):
            network._channel(src, dst).transmit(
                Packet(src, dst, PacketKind.DATA, 0, None, 8)
            )
        # An arrival's args start with its wire and the wire's counter.
        landed = {entry[3][:3]: entry[1] for entry in loop._heap}
        assert sorted(landed) == [(0, 1, 1), (0, 1, 2), (2, 1, 1)]
        reference = KeyedEventLoop(GRID)
        for (src, dst, wire_seq), key in landed.items():
            record = HopRecord(2 * GRID, src, dst, wire_seq, None, 2)
            assert key == reference.schedule_record(record, _noop)[1]


class TestLoopProperties:
    @given(
        delays=st.lists(
            st.integers(min_value=0, max_value=5_000), max_size=40,
        ),
    )
    def test_clock_monotone_through_any_schedule(self, delays):
        loop = EventLoop()
        observed = []
        for delay in delays:
            loop.call_after(delay, lambda: observed.append(loop.now))
        loop.run()
        assert observed == sorted(observed)
        assert loop.events_fired == len(delays)

    @given(
        delays=st.lists(
            st.integers(min_value=0, max_value=5_000),
            min_size=1, max_size=30,
        ),
        deadline=st.integers(min_value=0, max_value=5_000),
    )
    def test_run_until_partitions_events_exactly(self, delays, deadline):
        loop = EventLoop()
        fired = []
        for delay in delays:
            loop.call_after(delay, fired.append, delay)
        loop.run_until(deadline)
        assert sorted(fired) == sorted(d for d in delays if d <= deadline)
        loop.run()
        assert sorted(fired) == sorted(delays)


class TestRngProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        names=st.lists(
            st.text(min_size=1, max_size=8),
            min_size=1, max_size=6, unique=True,
        ),
    )
    def test_streams_reproducible_regardless_of_order(self, seed, names):
        forward = RandomStreams(seed)
        values_forward = {
            name: forward.stream(name).random() for name in names
        }
        backward = RandomStreams(seed)
        values_backward = {
            name: backward.stream(name).random()
            for name in reversed(names)
        }
        assert values_forward == values_backward
