"""Which layer a source file belongs to, and profile attribution by it.

Layers are named after this repo's modules and a file belongs to exactly
one.  Attribution is by *file*, not by function name, so the refactors
ROADMAP plans (folding `_transmit_hop` into `Channel.transmit`, deleting
the lock-step runners) move time between functions without breaking the
map; the self-test checks that every file under ``src/repro`` matches a
rule here rather than falling through.
"""

from __future__ import annotations

import cProfile
from pathlib import Path, PurePosixPath

#: every layer, in report order; ``python`` is everything outside the
#: repo — the standard library and builtins (heapq, pickle, random,
#: multiprocessing)
LAYERS = (
    "sim.loop", "sim.barrier", "net.wire", "net.transport", "net.route",
    "kernel.ipc", "kernel.migration", "core", "servers", "policy",
    "workloads", "obs", "python",
)

#: first match wins: (path under src/repro, matched as a whole or as a
#: directory prefix) -> layer
_RULES = (
    ("sim/barrier.py", "sim.barrier"),
    ("sim/shard.py", "sim.barrier"),
    ("sim", "sim.loop"),  # loop, events, clock, rng, trace
    ("net/reliable.py", "net.transport"),
    ("net/topology.py", "net.route"),
    ("net", "net.wire"),  # network, channel, packet, stats
    ("kernel/migration.py", "kernel.migration"),
    ("kernel/datamove.py", "kernel.migration"),
    ("kernel/forwarding.py", "kernel.migration"),
    ("kernel/linkupdate.py", "kernel.migration"),
    ("kernel", "kernel.ipc"),
    ("core", "core"),
    ("chaos", "core"),
    ("__init__.py", "core"),
    ("__main__.py", "core"),
    ("errors.py", "core"),
    ("servers", "servers"),
    ("policy", "policy"),
    ("workloads", "workloads"),
    ("obs", "obs"),
    ("stats", "obs"),
)

_BENCH_DIR = Path(__file__).resolve().parent


def repo_layer(relative: str) -> str | None:
    """The layer of a file given its path under ``src/repro``, or None
    when no rule names it."""
    path = PurePosixPath(relative)
    for prefix, layer in _RULES:
        if path == PurePosixPath(prefix) or PurePosixPath(prefix) in (
            path.parents
        ):
            return layer
    return None


def layer_of(filename: str) -> str:
    """The layer profiled code from *filename* is charged to.

    Files under ``src/repro`` go by :func:`repo_layer`; the benchmark's
    own scenario code drives the system the way ``workloads/`` does and
    is charged there; everything else (builtins show up as
    ``<built-in ...>`` strings, the standard library as paths elsewhere)
    is ``python``.
    """
    marker = "/src/repro/"
    at = filename.rfind(marker)
    if at >= 0:
        return repo_layer(filename[at + len(marker):]) or "python"
    if Path(filename).parent == _BENCH_DIR:
        return "workloads"
    return "python"


def attribute(profile: cProfile.Profile) -> dict:
    """Self-time and call counts of a finished profile, summed by layer.

    Returns ``{"self_s": {layer: seconds}, "calls": {layer: count},
    "heap_pushes": count}``.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    heap_pushes = 0
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str):
            layer = "python"
            if code == "<built-in method _heapq.heappush>":
                heap_pushes = entry.callcount
        else:
            layer = layer_of(code.co_filename)
        self_s[layer] += entry.inlinetime
        calls[layer] += entry.callcount
    return {"self_s": self_s, "calls": calls, "heap_pushes": heap_pushes}
