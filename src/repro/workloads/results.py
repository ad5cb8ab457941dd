"""A blackboard for workload outcomes.

Simulated processes cannot return values to the host — when they exit,
their state is reclaimed (that is rather the point of the paper).  Tests
and benchmarks therefore hand workloads a :class:`ResultsBoard` to post
their observations on: latencies, payload transcripts, error counts.

This is measurement harness, not part of the simulated OS.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any


class ResultsBoard:
    """Append-only per-key result collection."""

    def __init__(self) -> None:
        self._entries: dict[str, list[Any]] = defaultdict(list)

    def post(self, key: str, value: Any) -> None:
        """Append *value* under *key*."""
        self._entries[key].append(value)

    def get(self, key: str) -> list[Any]:
        """All values posted under *key* (empty list if none)."""
        return list(self._entries.get(key, []))

    def only(self, key: str) -> Any:
        """The single value posted under *key* (asserts exactly one)."""
        values = self._entries.get(key, [])
        if len(values) != 1:
            raise AssertionError(
                f"expected exactly one result under {key!r}, got {values!r}"
            )
        return values[0]

    def keys(self) -> list[str]:
        """All keys with at least one posting."""
        return sorted(self._entries)

    def clear(self) -> None:
        """Forget everything."""
        self._entries.clear()

    def __len__(self) -> int:
        return sum(len(v) for v in self._entries.values())
