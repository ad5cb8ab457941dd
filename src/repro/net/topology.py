"""Machine topology and routing.

A topology is a set of machines joined by point-to-point wires, each with a
latency and a bandwidth.  Routing uses latency-weighted shortest paths
(Dijkstra).  Routes are computed per *source*, on demand, and cached until
a wire changes: eager all-pairs precomputation was fine for DEMOS/MP-sized
networks (2..64 machines) but is O(V * E log V) up front, which dominates
start-up once clusters reach hundreds of machines where each kernel only
ever routes from its own seat.  The cache holds one table per source
and evicts nothing: every routing source is a machine, and packet
forwarding makes every machine on a multi-hop path one, so the
steady-state working set IS one table per machine — any bound below
that would recompute a full Dijkstra per forwarded hop.

Builders are provided for the three shapes the workloads run on: full
mesh (the default, matching a shared bus/LAN), line, and the 2-D torus
used at cluster scale, whose edge count grows linearly with machine
count instead of quadratically.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.errors import NetworkError, NoRouteError, UnknownMachineError

#: Machines are identified by small integers, like DEMOS/MP processor ids.
MachineId = int


@dataclass(frozen=True)
class Wire:
    """A unidirectional point-to-point connection between two machines."""

    src: MachineId
    dst: MachineId
    latency: int  #: propagation delay, microseconds
    bandwidth: int  #: bytes per millisecond

    def transfer_time(self, size_bytes: int) -> int:
        """Microseconds to push *size_bytes* onto this wire and propagate."""
        serialization = (size_bytes * 1_000) // max(self.bandwidth, 1)
        return self.latency + serialization


class Topology:
    """The set of machines and wires, plus shortest-path routing."""

    def __init__(self) -> None:
        self._machines: set[MachineId] = set()
        self._wires: dict[tuple[MachineId, MachineId], Wire] = {}
        # Per-machine out-edges, maintained incrementally in wire-insertion
        # order.  Reconnecting an existing pair replaces its entry in place,
        # mirroring how dict reassignment keeps a key's position — so edge
        # scan order (and hence equal-cost tie-breaking) is exactly what a
        # fresh walk of _wires.items() would produce.
        self._adjacency: dict[MachineId, list[tuple[MachineId, int]]] = {}
        # Routing tables keyed by source, filled on first route from that
        # source and discarded wholesale whenever a wire changes.
        self._routes: dict[MachineId, dict[MachineId, MachineId]] = {}
        #: set once a network is built on this topology (see freeze)
        self._frozen = False

    @property
    def machines(self) -> list[MachineId]:
        """All machine ids, sorted."""
        return sorted(self._machines)

    def freeze(self) -> None:
        """Refuse every later :meth:`add_machine` and :meth:`connect`.

        A :class:`~repro.net.network.Network` calls this when it is
        built on the topology: its channel and forwarding tables are
        filled from the wires and routes of that moment and would
        silently keep stale routes if a wire changed later.
        """
        self._frozen = True

    def add_machine(self, machine: MachineId) -> None:
        """Register a machine.  Idempotent."""
        if self._frozen:
            raise NetworkError(
                "topology is frozen: a network is built on it, so its "
                "machines and wires can no longer change"
            )
        if machine not in self._machines:
            self._machines.add(machine)
            self._adjacency[machine] = []
            self._routes.clear()

    def has_machine(self, machine: MachineId) -> bool:
        """Whether *machine* exists in this topology."""
        return machine in self._machines

    def connect(
        self,
        a: MachineId,
        b: MachineId,
        latency: int = 100,
        bandwidth: int = 1_000,
    ) -> None:
        """Join machines *a* and *b* with a bidirectional wire."""
        self.add_machine(a)
        self.add_machine(b)
        self._insert_edge(a, b, latency, bandwidth)
        self._insert_edge(b, a, latency, bandwidth)
        self._routes.clear()

    def _insert_edge(
        self, a: MachineId, b: MachineId, latency: int, bandwidth: int
    ) -> None:
        if (a, b) in self._wires:
            adjacency = self._adjacency[a]
            for i, (m, _) in enumerate(adjacency):
                if m == b:
                    adjacency[i] = (b, latency)
                    break
        else:
            self._adjacency[a].append((b, latency))
        self._wires[(a, b)] = Wire(a, b, latency, bandwidth)

    def wires(self) -> list[Wire]:
        """Every directed wire, in insertion order (deterministic).

        The sharded engine walks this to derive per-shard-pair minimum
        latencies — how often each pair has to rendezvous
        (:mod:`repro.sim.barrier`).
        """
        return list(self._wires.values())

    def min_latency(self) -> int | None:
        """The smallest wire latency, or None on a wireless topology.

        This is the conservative lookahead of the sharded executor: a
        packet put on any wire at time ``t`` cannot influence another
        machine before ``t + min_latency()``, whatever the partition.
        """
        if not self._wires:
            return None
        return min(wire.latency for wire in self._wires.values())

    def wire(self, a: MachineId, b: MachineId) -> Wire:
        """The wire from *a* to *b* (adjacent machines only)."""
        try:
            return self._wires[(a, b)]
        except KeyError:
            raise NoRouteError(f"no wire {a} -> {b}") from None

    def neighbors(self, machine: MachineId) -> list[MachineId]:
        """Machines directly wired to *machine*, sorted."""
        return sorted(m for m, _ in self._adjacency.get(machine, ()))

    def next_hop(self, src: MachineId, dst: MachineId) -> MachineId:
        """First machine on the shortest path from *src* to *dst*."""
        routes = self._routes.get(src)
        if routes is None:
            routes = self._routes_from(src)
        hop = routes.get(dst)
        if hop is not None:
            return hop
        # Miss: tell apart self-delivery, an unknown destination, and a
        # partitioned one (src was validated by _routes_from).
        if dst not in self._machines:
            raise UnknownMachineError(f"unknown machine {dst}")
        if src == dst:
            return dst
        raise NoRouteError(f"no route {src} -> {dst}")

    def path(self, src: MachineId, dst: MachineId) -> list[MachineId]:
        """Full machine sequence from *src* to *dst*, inclusive."""
        hops = [src]
        here = src
        while here != dst:
            here = self.next_hop(here, dst)
            hops.append(here)
        return hops

    def _routes_from(self, source: MachineId) -> dict[MachineId, MachineId]:
        """Dijkstra from one source, weighted by wire latency.

        The relaxation loop (strict ``<``, ``(dist, machine)`` heap
        entries, adjacency scanned in wire-insertion order) is kept
        identical to the retired all-pairs precomputation so every
        next-hop it produced is reproduced bit for bit — only *when*
        routes are computed changed, not *what* they are.
        """
        if source not in self._machines:
            raise UnknownMachineError(f"unknown machine {source}")
        adjacency = self._adjacency
        dist: dict[MachineId, int] = {source: 0}
        first: dict[MachineId, MachineId] = {}
        heap: list[tuple[int, MachineId]] = [(0, source)]
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
        self._routes[source] = first
        return first

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------

    @classmethod
    def full_mesh(
        cls,
        n: int,
        latency: int = 100,
        bandwidth: int = 1_000,
    ) -> "Topology":
        """Every machine wired to every other (a LAN)."""
        topo = cls()
        for m in range(n):
            topo.add_machine(m)
        for a in range(n):
            for b in range(a + 1, n):
                topo.connect(a, b, latency, bandwidth)
        return topo

    @classmethod
    def line(
        cls,
        n: int,
        latency: int = 100,
        bandwidth: int = 1_000,
    ) -> "Topology":
        """Machines in a chain: 0 - 1 - ... - (n-1)."""
        topo = cls()
        for m in range(n):
            topo.add_machine(m)
        for m in range(n - 1):
            topo.connect(m, m + 1, latency, bandwidth)
        return topo

    @classmethod
    def torus2d(
        cls,
        rows: int,
        cols: int,
        latency: int = 100,
        bandwidth: int = 1_000,
        backbone_latency: int | None = None,
    ) -> "Topology":
        """A rows x cols grid with wrap-around edges (degree <= 4).

        Machine ``(r, c)`` is id ``r * cols + c``.  Wrap wires are only
        added when a dimension exceeds two, since at length two the wrap
        would duplicate the existing neighbour wire.

        With *backbone_latency* set, the vertical (inter-row) wires and
        the column wraps carry that latency while intra-row wires keep
        *latency* — short links inside a rack row, slower links between
        rows.  Rows are the shard-alignment unit, so every wire that can
        cross a shard boundary is a backbone wire, which is what lets
        shard pairs rendezvous less often than the global window grid.
        """
        backbone = latency if backbone_latency is None else backbone_latency
        topo = cls()
        for m in range(rows * cols):
            topo.add_machine(m)
        for r in range(rows):
            for c in range(cols):
                m = r * cols + c
                if c + 1 < cols:
                    topo.connect(m, m + 1, latency, bandwidth)
                if r + 1 < rows:
                    topo.connect(m, m + cols, backbone, bandwidth)
            if cols > 2:
                topo.connect(r * cols + cols - 1, r * cols, latency, bandwidth)
        if rows > 2:
            for c in range(cols):
                topo.connect((rows - 1) * cols + c, c, backbone, bandwidth)
        return topo
