"""Property tests for on-demand per-source routing.

The eager all-pairs precomputation was replaced with per-source Dijkstra
computed on first use and cached until a wire changes.  These tests pit
the new path against a reference copy of the retired all-pairs
computation on random sparse topologies: every next-hop (and every
no-route outcome) must be identical, including after the cache has been
invalidated by adding or re-weighting wires.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NoRouteError
from repro.net.topology import Topology


def reference_routes(
    topo: Topology,
) -> dict[tuple[int, int], int]:
    """The retired eager algorithm, verbatim: Dijkstra from every source
    over adjacency lists built in wire-insertion order.  Serves as the
    tie-breaking oracle the on-demand path must reproduce exactly."""
    adjacency: dict[int, list[tuple[int, int]]] = {
        m: [] for m in topo._machines
    }
    for (a, b), wire in topo._wires.items():
        adjacency[a].append((b, wire.latency))
    routes: dict[tuple[int, int], int] = {}
    for source in topo._machines:
        dist = {source: 0}
        first: dict[int, int] = {}
        heap = [(0, source)]
        while heap:
            d, here = heapq.heappop(heap)
            if d > dist.get(here, d):
                continue
            for b, latency in adjacency[here]:
                nd = d + latency
                if nd < dist.get(b, nd + 1):
                    dist[b] = nd
                    first[b] = first.get(here, b) if here != source else b
                    heapq.heappush(heap, (nd, b))
        for dst, hop in first.items():
            routes[(source, dst)] = hop
    return routes


#: (a, b, latency) triples; self-loops are filtered at build time and
#: repeated pairs exercise the reconnect/re-weight path.
edge_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=11),
        st.integers(min_value=0, max_value=11),
        st.integers(min_value=1, max_value=500),
    ),
    min_size=1,
    max_size=30,
)


def build(n: int, edge_list) -> Topology:
    topo = Topology()
    for m in range(n):
        topo.add_machine(m)  # isolated machines exercise no-route paths
    for a, b, latency in edge_list:
        if a != b:
            topo.connect(a, b, latency=latency)
    return topo


def assert_matches_reference(topo: Topology) -> None:
    expected = reference_routes(topo)
    for src in topo.machines:
        for dst in topo.machines:
            if src == dst:
                assert topo.next_hop(src, dst) == dst
            elif (src, dst) in expected:
                assert topo.next_hop(src, dst) == expected[(src, dst)]
            else:
                with pytest.raises(NoRouteError):
                    topo.next_hop(src, dst)


class TestRoutingEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(min_value=2, max_value=12), edge_list=edge_lists)
    def test_next_hop_matches_all_pairs_reference(self, n, edge_list):
        topo = build(n, edge_list)
        assert_matches_reference(topo)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=10),
        first=edge_lists,
        second=edge_lists,
    )
    def test_wire_changes_invalidate_cached_routes(self, n, first, second):
        topo = build(n, first)
        assert_matches_reference(topo)  # warms every per-source cache
        for a, b, latency in second:
            # New wires extend the graph; repeated pairs re-weight an
            # existing wire in place.  Both must flush stale routes.
            if a != b:
                topo.connect(a, b, latency=latency)
        assert_matches_reference(topo)


class TestSparseBuilders:
    """The cluster-scale torus routes identically to the reference too,
    and has the degrees/machine counts its docstring promises."""

    def test_torus_matches_reference(self):
        topo = Topology.torus2d(4, 5)
        assert len(topo.machines) == 20
        assert all(len(topo.neighbors(m)) == 4 for m in topo.machines)
        assert_matches_reference(topo)

    def test_degenerate_torus_rows(self):
        ring = Topology.torus2d(1, 6)  # single row degenerates to a ring
        assert sorted(ring.neighbors(0)) == [1, 5]
        assert_matches_reference(ring)
        pair = Topology.torus2d(2, 2)  # no wrap wires at length two
        assert all(len(pair.neighbors(m)) == 2 for m in pair.machines)
        assert_matches_reference(pair)
