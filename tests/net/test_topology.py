"""Tests for machine topology and routing."""

import pytest

from repro.errors import NetworkError, NoRouteError, UnknownMachineError
from repro.net.network import Network
from repro.net.topology import Topology, Wire
from repro.sim.loop import EventLoop


class TestWire:
    def test_transfer_time_includes_serialization(self):
        wire = Wire(0, 1, latency=100, bandwidth=1_000)  # 1000 B/ms
        assert wire.transfer_time(0) == 100
        assert wire.transfer_time(1_000) == 100 + 1_000

    def test_transfer_time_scales_with_size(self):
        wire = Wire(0, 1, latency=0, bandwidth=2_000)
        assert wire.transfer_time(2_000) == 1_000


class TestBuilders:
    def test_full_mesh_connects_all_pairs(self):
        topo = Topology.full_mesh(4)
        for a in range(4):
            for b in range(4):
                if a != b:
                    assert b in topo.neighbors(a)

    def test_line_connects_adjacent_only(self):
        topo = Topology.line(4)
        assert topo.neighbors(0) == [1]
        assert topo.neighbors(1) == [0, 2]
        assert topo.neighbors(3) == [2]

    def test_ring_closes_the_loop(self):
        # Hand-wired shapes are plain graphs: the last wire of a ring
        # makes its two ends neighbours both ways.
        topo = Topology()
        for m in range(4):
            topo.connect(m, (m + 1) % 4)
        assert topo.neighbors(3) == [0, 2]
        assert topo.neighbors(0) == [1, 3]
        assert topo.path(0, 3) == [0, 3]

    def test_star_hub_and_spokes(self):
        topo = Topology()
        for m in range(1, 5):
            topo.connect(0, m)
        assert topo.neighbors(0) == [1, 2, 3, 4]
        assert topo.neighbors(3) == [0]
        assert topo.path(3, 4) == [3, 0, 4]

    def test_machines_sorted(self):
        assert Topology.full_mesh(3).machines == [0, 1, 2]


class TestRouting:
    def test_next_hop_direct(self):
        topo = Topology.full_mesh(3)
        assert topo.next_hop(0, 2) == 2

    def test_next_hop_on_line(self):
        topo = Topology.line(4)
        assert topo.next_hop(0, 3) == 1
        assert topo.next_hop(3, 0) == 2

    def test_path_on_line(self):
        topo = Topology.line(4)
        assert topo.path(0, 3) == [0, 1, 2, 3]

    def test_path_to_self(self):
        topo = Topology.line(3)
        assert topo.path(1, 1) == [1]

    def test_shortest_path_prefers_low_latency(self):
        topo = Topology()
        topo.connect(0, 1, latency=10)
        topo.connect(1, 2, latency=10)
        topo.connect(0, 2, latency=100)
        assert topo.path(0, 2) == [0, 1, 2]

    def test_unknown_machine_rejected(self):
        topo = Topology.line(2)
        with pytest.raises(UnknownMachineError):
            topo.next_hop(0, 9)
        with pytest.raises(UnknownMachineError):
            topo.next_hop(9, 0)

    def test_no_route_between_islands(self):
        topo = Topology()
        topo.add_machine(0)
        topo.add_machine(1)
        with pytest.raises(NoRouteError):
            topo.next_hop(0, 1)

    def test_no_wire_error(self):
        topo = Topology.line(3)
        with pytest.raises(NoRouteError):
            topo.wire(0, 2)

    def test_routes_recomputed_after_change(self):
        topo = Topology.line(3)
        assert topo.next_hop(0, 2) == 1
        topo.connect(0, 2, latency=1)
        assert topo.next_hop(0, 2) == 2

    def test_topology_freezes_once_a_network_is_built_on_it(self):
        topo = Topology.line(3)
        network = Network(EventLoop(), topo)
        with pytest.raises(NetworkError, match="frozen"):
            topo.connect(0, 2, latency=1)
        with pytest.raises(NetworkError, match="frozen"):
            topo.add_machine(3)
        # Nothing half-applied: the routes the network uses still hold.
        assert topo.path(0, 2) == [0, 1, 2]
        assert not topo.has_machine(3)
        assert network.topology is topo


class TestRouteCacheLru:
    def test_evicted_source_recomputed_correctly(self):
        topo = Topology.line(4)
        assert topo.next_hop(0, 3) == 1
        assert topo.next_hop(3, 0) == 2
        del topo._routes[0]  # as a wire change would drop it
        # Source 0 routes identically after recomputation.
        assert topo.next_hop(0, 3) == 1
        assert topo.path(0, 3) == [0, 1, 2, 3]

    def test_wire_change_still_invalidates_all(self):
        topo = Topology.line(3)
        topo.next_hop(0, 2)
        topo.next_hop(1, 2)
        topo.connect(0, 2, latency=1)
        assert not topo._routes
        assert topo.next_hop(0, 2) == 2

    def test_default_limit_adapts_to_machine_count(self):
        # Every machine on a multi-hop path becomes a routing source
        # when it forwards, so the cache keeps one table per machine —
        # nothing is evicted however many sources route, and a second
        # route from a source reuses its table.
        topo = Topology()
        for m in range(8):
            topo.connect(m, (m + 1) % 8)
        for src in range(8):
            topo.next_hop(src, (src + 3) % 8)
        assert len(topo._routes) == 8
        table = topo._routes[5]
        topo.next_hop(5, 1)
        assert topo._routes[5] is table
