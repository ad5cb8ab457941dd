"""File-system client workloads (for the paper's own test case, E6).

"One of our test examples of process migration ... migrates a file system
process while several user processes are performing I/O."  These clients
perform verified read-after-write streams against the file system and
post a transcript; the E6 bench migrates the file server mid-stream and
asserts zero corruption and zero lost operations.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.core.registry import register_program
from repro.kernel.context import ProcessContext
from repro.servers.filesystem import FileClient
from repro.workloads.results import ResultsBoard


def _pattern(tag: int, index: int, size: int) -> bytes:
    """Deterministic, self-describing file contents."""
    seed = f"<{tag}:{index}>".encode()
    reps = size // len(seed) + 1
    return (seed * reps)[:size]


@register_program("file-io-client")
def file_io_client(
    ctx: ProcessContext,
    tag: int = 0,
    operations: int = 10,
    write_size: int = 600,
    gap: int = 500,
    board: ResultsBoard | None = None,
    key: str = "file-io",
) -> Generator[Any, Any, None]:
    """Create a private file and run verified write/read rounds.

    Each round appends a distinctive pattern, reads it back, and checks
    the bytes; every mismatch or error is recorded.  The summary posted
    at the end carries per-operation latencies and the verification
    verdict.
    """
    fs = FileClient(ctx)
    name = f"client-{tag}.dat"
    errors: list[str] = []
    latencies: list[int] = []

    yield from fs.create(name)
    handle = yield from fs.open(name)
    for index in range(operations):
        expected = _pattern(tag, index, write_size)
        offset = index * write_size
        started = ctx.now
        written = yield from fs.write(handle, offset, expected)
        if written != write_size:
            errors.append(f"op{index}: short write {written}")
        data = yield from fs.read(handle, offset, write_size)
        latencies.append(ctx.now - started)
        if data != expected:
            errors.append(
                f"op{index}: readback mismatch "
                f"({data[:16]!r} != {expected[:16]!r})"
            )
        if gap:
            yield ctx.sleep(gap)
    yield from fs.close(handle)
    if board is not None:
        board.post(key, {
            "pid": ctx.pid,
            "tag": tag,
            "operations": operations,
            "errors": errors,
            "latencies": latencies,
        })
    yield ctx.exit()


@register_program("file-reader")
def file_reader(
    ctx: ProcessContext,
    name: str = "shared.dat",
    reads: int = 10,
    length: int = 512,
    gap: int = 1_000,
    board: ResultsBoard | None = None,
    key: str = "file-reader",
) -> Generator[Any, Any, None]:
    """Repeatedly read the head of an existing file (cache-friendly)."""
    fs = FileClient(ctx)
    handle = yield from fs.open(name)
    latencies = []
    for _ in range(reads):
        started = ctx.now
        yield from fs.read(handle, 0, length)
        latencies.append(ctx.now - started)
        if gap:
            yield ctx.sleep(gap)
    yield from fs.close(handle)
    if board is not None:
        board.post(key, {"pid": ctx.pid, "latencies": latencies})
    yield ctx.exit()
