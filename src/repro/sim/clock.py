"""Simulated time units.

All simulated time in this library is an integer count of *microseconds*.
Integers keep the event heap deterministic (no float rounding) and make
trace output exact.  The helpers here convert between human units and the
internal representation; the clock itself is
:class:`~repro.sim.loop.EventLoop`'s own state.
"""

from __future__ import annotations

from repro.errors import ClockError

#: One microsecond, the base unit of simulated time.
USEC: int = 1
#: One millisecond in simulated time units.
MSEC: int = 1_000
#: One second in simulated time units.
SEC: int = 1_000_000


def usec(n: float) -> int:
    """Return *n* microseconds as a simulated-time integer."""
    return int(round(n))


def msec(n: float) -> int:
    """Return *n* milliseconds as a simulated-time integer."""
    return int(round(n * MSEC))


def sec(n: float) -> int:
    """Return *n* seconds as a simulated-time integer."""
    return int(round(n * SEC))


def format_time(t: int) -> str:
    """Render a simulated time as a human-readable string.

    >>> format_time(1_500)
    '1.500ms'
    >>> format_time(2_000_000)
    '2.000s'
    """
    if t < 0:
        raise ClockError(f"negative simulated time: {t}")
    if t < MSEC:
        return f"{t}us"
    if t < SEC:
        return f"{t / MSEC:.3f}ms"
    return f"{t / SEC:.3f}s"

