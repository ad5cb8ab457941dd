"""Tests for the time helpers and the event loop's clock."""

import pytest

from repro.errors import ClockError
from repro.sim.clock import (
    MSEC,
    SEC,
    USEC,
    format_time,
    msec,
    sec,
    usec,
)
from repro.sim.loop import EventLoop


class TestUnits:
    def test_microsecond_is_base_unit(self):
        assert USEC == 1
        assert MSEC == 1_000
        assert SEC == 1_000_000

    def test_usec_rounds(self):
        assert usec(1.4) == 1
        assert usec(1.6) == 2

    def test_msec_converts(self):
        assert msec(2) == 2_000
        assert msec(0.5) == 500

    def test_sec_converts(self):
        assert sec(3) == 3_000_000
        assert sec(0.001) == 1_000


class TestFormatTime:
    def test_microseconds(self):
        assert format_time(999) == "999us"

    def test_milliseconds(self):
        assert format_time(1_500) == "1.500ms"

    def test_seconds(self):
        assert format_time(2_000_000) == "2.000s"

    def test_zero(self):
        assert format_time(0) == "0us"

    def test_negative_rejected(self):
        with pytest.raises(ClockError):
            format_time(-1)


class TestSimClock:
    def test_starts_at_zero(self):
        assert EventLoop().now == 0

    def test_starts_at_given_time(self):
        assert EventLoop(42).now == 42

    def test_negative_start_rejected(self):
        with pytest.raises(ClockError):
            EventLoop(-1)

    def test_advances(self):
        loop = EventLoop()
        loop.advance_to(100)
        assert loop.now == 100

    def test_advance_to_same_time_is_noop(self):
        loop = EventLoop(50)
        loop.advance_to(50)
        assert loop.now == 50

    def test_never_runs_backwards(self):
        loop = EventLoop(100)
        with pytest.raises(ClockError):
            loop.advance_to(99)

    def test_repr_mentions_time(self):
        assert repr(EventLoop(1_000)) == (
            "EventLoop(now=1000, pending=0, fired=0)"
        )
