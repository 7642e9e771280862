"""A simulated clock.

All time in the reproduction is *simulated*: the miner advances the clock by
the configured block interval instead of sleeping, so a benchmark can model a
12-second public-Ethereum block time (§IV.1) in microseconds of real time
while still reporting latencies in simulated seconds.
"""

from __future__ import annotations


class SimClock:
    """A monotonically non-decreasing simulated clock."""

    def __init__(self, start: float = 0.0):
        if start < 0:
            raise ValueError("start time must be non-negative")
        self._now = float(start)

    def now(self) -> float:
        """The current simulated time, in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` and return the new time."""
        if seconds < 0:
            raise ValueError("cannot advance the clock backwards")
        self._now += seconds
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Advance the clock to ``timestamp`` (no-op if already past it)."""
        if timestamp > self._now:
            self._now = timestamp
        return self._now

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:.3f})"
