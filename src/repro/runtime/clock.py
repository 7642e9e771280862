"""Cross-process coordination of simulated time.

Inside one process every component shares a single
:class:`~repro.ledger.clock.SimClock`.  Across processes that is no longer
possible, so the runtime splits the clock into:

:class:`WorkerClock`
    A :class:`SimClock` subclass that additionally remembers the highest
    simulated time it has reached, for reporting to the coordinator.

:class:`ClockCoordinator`
    Lives in the coordinator process.  Workers report their local
    simulated time (a ``clock.report`` envelope in the fleet protocol);
    the coordinator merges reports with ``max`` — simulated time is
    monotone, so the merged value is the earliest instant consistent with
    everything any worker has already done.  The merge is deterministic:
    it depends only on the multiset of reported times, never on arrival
    order, which is what keeps fleet runs reproducible even though forked
    workers finish in a different order on every run.
"""

from __future__ import annotations

from typing import Dict

from repro.ledger.clock import SimClock

__all__ = ["WorkerClock", "ClockCoordinator"]


class WorkerClock(SimClock):
    """A worker-local simulated clock that can seed from, and report to,
    a :class:`ClockCoordinator`."""

    def __init__(self, start: float = 0.0, worker: str = "worker"):
        super().__init__(start=start)
        self.worker = worker

    def report(self) -> "Dict[str, float | str]":
        """The payload of a ``clock.report`` envelope."""
        return {"worker": self.worker, "now": self.now()}


class ClockCoordinator:
    """Merges per-worker simulated clocks into one authoritative time.

    The coordinator is itself backed by a :class:`SimClock` so
    single-process callers can pass it anywhere a plain clock is expected.
    """

    def __init__(self, start: float = 0.0):
        self._clock = SimClock(start=start)
        self._reports: Dict[str, float] = {}

    @property
    def clock(self) -> SimClock:
        return self._clock

    def now(self) -> float:
        return self._clock.now()

    def observe(self, worker: str, reported_now: float) -> float:
        """Fold one worker report into the authoritative clock.

        Returns the merged time.  ``max``-merging makes the result
        independent of report order: any interleaving of the same reports
        converges to the same time.
        """
        if reported_now < 0:
            raise ValueError("reported time must be non-negative")
        if reported_now > self._reports.get(worker, 0.0):
            self._reports[worker] = reported_now
        return self._clock.advance_to(reported_now)

    def seed_for(self, worker: str) -> float:
        """The start time a (re)spawned worker should resume from.

        A worker that crashed and is restarted must not re-live simulated
        time it already reported — its durable state (WAL) may already
        reflect events up to that instant.
        """
        return self._reports.get(worker, self._clock.now())

    def reports(self) -> Dict[str, float]:
        """Last reported time per worker (for metrics and tests)."""
        return dict(self._reports)

    def __repr__(self) -> str:
        return f"ClockCoordinator(now={self.now():.3f}, workers={len(self.reports())})"
