"""Latency-aware admission control for the gateway's write path.

Queue-depth shedding (the PR 4 behaviour) bounds *memory*, not *latency*: a
deep-but-under-capacity queue still drags every admitted write's commit
latency with it.  The :class:`LatencyShedder` closes that gap with two
complementary signals, both in simulated seconds over a sliding window:

* **observed p99** — the latencies of writes committed within the window
  (the values the gateway's per-tenant ``gateway_request_latency``
  histograms also observe), by the registry's one
  :func:`~repro.obs.registry.percentile`; while it exceeds the target, new
  writes are shed;
* **predicted queueing delay** — the current queue depth times the windowed
  mean per-write service time.  This is the signal that makes the bound
  *hold*: p99 alone reacts only after slow writes have already committed,
  by which time the queue may have grown unboundedly.

Both estimators are deterministic functions of (workload, seed), so shed
decisions replay bit-for-bit.  Fair queueing is a third, orthogonal check
done against the scheduler's live per-tenant counts (see
:meth:`fair_share_exceeded`).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple

from repro.obs.registry import percentile


class LatencyShedder:
    """Sliding-window p99 + service-time-prediction admission control.

    ``target`` is the committed-write p99 bound in simulated seconds
    (``None`` disables latency shedding entirely — every decision is
    ``None``).
    """

    def __init__(self, clock, target: Optional[float],
                 window: float = 30.0, min_samples: int = 5):
        if target is not None and target <= 0:
            raise ValueError("latency target must be positive (or None)")
        if window <= 0:
            raise ValueError("window must be positive")
        if min_samples < 1:
            raise ValueError("min_samples must be at least 1")
        self.clock = clock
        self.target = target
        self.window = window
        self.min_samples = min_samples
        #: (recorded_at, end-to-end latency) of each committed write.
        self._latencies: Deque[Tuple[float, float]] = deque()
        #: (recorded_at, per-write service seconds) of each batch commit.
        self._services: Deque[Tuple[float, float]] = deque()
        self._lock = threading.Lock()
        self.shed_p99 = 0
        self.shed_predicted = 0
        self.shed_cold_start = 0

    # ------------------------------------------------------------- recording

    def record_latency(self, latency: float) -> None:
        """One committed write's end-to-end latency."""
        if self.target is None:
            return
        with self._lock:
            self._latencies.append((self.clock.now(), latency))
            self._trim_locked()

    def record_service(self, seconds: float, writes: int) -> None:
        """One batch commit's duration, amortised over its writes."""
        if self.target is None or writes <= 0:
            return
        with self._lock:
            self._services.append((self.clock.now(), seconds / writes))
            self._trim_locked()

    def _trim_locked(self) -> None:
        horizon = self.clock.now() - self.window
        while self._latencies and self._latencies[0][0] < horizon:
            self._latencies.popleft()
        while self._services and self._services[0][0] < horizon:
            self._services.popleft()

    # ------------------------------------------------------------- estimates

    @property
    def p99(self) -> Optional[float]:
        """Windowed p99 of committed-write latency (None below min samples)."""
        with self._lock:
            self._trim_locked()
            values = [latency for _, latency in self._latencies]
        if len(values) < self.min_samples:
            return None
        return percentile(values, 99.0)

    @property
    def mean_service(self) -> Optional[float]:
        with self._lock:
            self._trim_locked()
            if not self._services:
                return None
            return (sum(seconds for _, seconds in self._services)
                    / len(self._services))

    def predicted_delay(self, queue_depth: int) -> Optional[float]:
        """Expected queueing delay of a write admitted at this depth."""
        service = self.mean_service
        if service is None:
            return None
        return queue_depth * service

    # -------------------------------------------------------------- decision

    def decision(self, queue_depth: int) -> Optional[str]:
        """The shed reason for a write arriving now, or None to admit."""
        if self.target is None:
            return None
        p99 = self.p99
        if p99 is not None and p99 > self.target:
            self.shed_p99 += 1
            return (f"commit-latency p99 {p99:.3f}s exceeds the "
                    f"{self.target:.3f}s target")
        if p99 is None:
            # Cold start: below min_samples the p99 estimate is withheld
            # (None — an empty/thin window must not read as "0.0 s, fast").
            # But unanimous early evidence still counts: if *every* latency
            # observed so far blows the target, shed now instead of waving
            # writes through until the estimator warms up.
            with self._lock:
                self._trim_locked()
                observed = [latency for _, latency in self._latencies]
            if observed and min(observed) > self.target:
                self.shed_cold_start += 1
                return (f"cold start: all {len(observed)} committed writes "
                        f"in the window exceed the {self.target:.3f}s target")
        predicted = self.predicted_delay(queue_depth)
        if predicted is not None and predicted > self.target:
            self.shed_predicted += 1
            return (f"predicted queueing delay {predicted:.3f}s at depth "
                    f"{queue_depth} exceeds the {self.target:.3f}s target")
        return None

    @property
    def healthy(self) -> bool:
        """Whether the commit path currently meets its latency target."""
        if self.target is None:
            return True
        p99 = self.p99
        return p99 is None or p99 <= self.target

    def statistics(self) -> Dict[str, Any]:
        return {
            "target": self.target,
            "window": self.window,
            "p99": self.p99,
            "mean_service": self.mean_service,
            "shed_p99": self.shed_p99,
            "shed_predicted": self.shed_predicted,
            "shed_cold_start": self.shed_cold_start,
        }


def fair_share_exceeded(scheduler, tenant: str) -> Optional[str]:
    """Max-min fair-queueing check against a bounded write queue.

    A tenant may hold up to ``ceil(capacity / active queued tenants)``
    queued writes (counting itself as active).  A lone tenant gets the whole
    queue; when the queue is contended, a hot tenant is shed at its share so
    the remaining capacity stays available to everyone else.  Returns the
    shed reason, or None to admit.  Unbounded queues never shed.
    """
    capacity = scheduler.queue_capacity
    if capacity is None:
        return None
    queued = scheduler.queued_for(tenant)
    if queued == 0:
        return None
    # queued > 0, so this tenant is already counted among the active ones.
    active = scheduler.active_tenants
    share = -(-capacity // max(1, active))  # ceil division
    if queued >= share:
        return (f"tenant {tenant!r} holds {queued} of {capacity} queued "
                f"writes (fair share {share} across {active} tenants)")
    return None
