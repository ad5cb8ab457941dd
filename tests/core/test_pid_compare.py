"""A pid is an int, so a pid compared with a machine number does not
fail: it silently compares numbers (``ProcessId(0, 3) == 3``).  This
file swaps a type-checking ``==``/``!=``/ordering onto ``ProcessId``,
drives the ``Cluster`` contract scenario on every engine, and fails if
any pid was ever compared with an int that is not a pid.
"""

import traceback

import pytest

from repro.kernel.ids import ProcessId
from tests.core.test_cluster import drive_everything, fingerprint

COMPARISONS = ("__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__")


@pytest.fixture
def mixed_compares():
    """Every pid-vs-plain-int comparison made while the fixture is live,
    as the source line that made it."""
    seen = []

    def checked(name):
        compare = getattr(int, name)

        def method(self, other):
            if isinstance(other, int) and not isinstance(other, ProcessId):
                caller = traceback.extract_stack(limit=2)[0]
                seen.append(
                    f"{self!s} {name} {other!r} at "
                    f"{caller.filename}:{caller.lineno}"
                )
            return compare(self, other)

        return method

    for name in COMPARISONS:
        setattr(ProcessId, name, checked(name))
    # A class that sets __eq__ loses its inherited hash: keep int's.
    ProcessId.__hash__ = int.__hash__
    try:
        yield seen
    finally:
        for name in (*COMPARISONS, "__hash__"):
            delattr(ProcessId, name)


def test_the_check_sees_a_mixed_compare(mixed_compares):
    assert ProcessId(0, 3) == 3  # the hazard: equal as numbers
    assert ProcessId(0, 3) == ProcessId(0, 3)
    assert len(mixed_compares) == 1


@pytest.mark.parametrize("engine", ["system", "shards=1", "shards=2"])
def test_no_pid_is_compared_with_a_plain_int(engine, mixed_compares):
    cluster, extras = drive_everything(engine)
    fingerprint(cluster, extras)
    assert mixed_compares == []
