"""Violations the fuzzer finds today, pinned until their fix lands.

``python -m repro fuzz --seed 7 --runs 150`` reports two draws.  Their
shrunk repro files live in ``known_violations/``, not ``regressions/``:
every file there must replay clean.  Each test here is a strict xfail,
so the change that fixes its bug turns it into a failure, and that
change moves the file into ``regressions/`` and deletes the test.
"""

from pathlib import Path

import pytest

from repro.chaos.fuzz import replay

KNOWN = Path(__file__).parent / "known_violations"


def replays_clean(name: str) -> None:
    outcome = replay(KNOWN / name)
    assert outcome.ok, "\n".join(outcome.problems)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 23: crash recovery resurrects a process its"
    " migration source also restores (p1.5 resident on two machines)",
)
def test_fuzz_7_17_keeps_one_residence():
    replays_clean("fuzz-7-17.json")


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the classic and sharded engines send"
    " different packet counts (packets_sent 214 vs 212)",
)
def test_fuzz_7_101_engines_agree():
    replays_clean("fuzz-7-101.json")
