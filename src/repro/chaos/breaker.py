"""Circuit breakers: closed → open → half-open, on the sim clock.

A :class:`CircuitBreaker` trips after ``failure_threshold`` *consecutive*
failures, rejects while open, and after ``reset_timeout`` simulated seconds
admits ``half_open_probes`` trial calls; one success closes it, one failure
re-opens it.  All transitions are timestamped on the sim clock and kept in
:attr:`CircuitBreaker.transitions`, so identical seeds and workloads yield
identical breaker timelines.

A :class:`BreakerBoard` lazily creates breakers by name (``tenant:<peer>``,
``lane:<n>``, ``commit``), registering each one's state as a registry gauge
(0 = closed, 1 = open, 2 = half-open).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import CircuitOpenError
from repro.obs.tracer import NULL_TRACER

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half-open"

#: Gauge encoding of breaker states.
STATE_CODES = {STATE_CLOSED: 0, STATE_OPEN: 1, STATE_HALF_OPEN: 2}


class CircuitBreaker:
    """One breaker protecting one dependency (a peer, a lane, the commit
    path).  Time comes from the shared sim clock."""

    def __init__(self, name: str, clock, failure_threshold: int = 3,
                 reset_timeout: float = 10.0, half_open_probes: int = 1,
                 tracer=NULL_TRACER) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if reset_timeout <= 0:
            raise ValueError("reset_timeout must be positive")
        if half_open_probes < 1:
            raise ValueError("half_open_probes must be at least 1")
        self.name = name
        self.clock = clock
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.half_open_probes = half_open_probes
        self.tracer = tracer
        self._state = STATE_CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_left = 0
        self.rejections = 0
        self.transitions: List[Tuple[float, str, str]] = []

    # ------------------------------------------------------------- internals

    def _transition(self, new_state: str) -> None:
        old_state = self._state
        if old_state == new_state:
            return
        self._state = new_state
        now = round(self.clock.now(), 9)
        self.transitions.append((now, old_state, new_state))
        with self.tracer.span("chaos.breaker", breaker=self.name,
                              from_state=old_state, to_state=new_state):
            pass
        if new_state == STATE_OPEN:
            self._opened_at = self.clock.now()
        elif new_state == STATE_HALF_OPEN:
            self._probes_left = self.half_open_probes
        elif new_state == STATE_CLOSED:
            self._consecutive_failures = 0

    # ------------------------------------------------------------------ API

    def allow(self) -> bool:
        """May a call proceed?  In half-open, each ``True`` consumes one
        probe slot; further calls are rejected until a probe reports back."""
        if self._state == STATE_OPEN:
            if self.clock.now() - self._opened_at >= self.reset_timeout:
                self._transition(STATE_HALF_OPEN)
            else:
                self.rejections += 1
                return False
        if self._state == STATE_HALF_OPEN:
            if self._probes_left <= 0:
                self.rejections += 1
                return False
            self._probes_left -= 1
            return True
        return True

    def guard(self) -> None:
        """:meth:`allow`, but rejections raise the typed
        :class:`~repro.errors.CircuitOpenError` instead of returning False —
        for callers on exception-based paths (retriers treat it as
        terminal, never retryable)."""
        if not self.allow():
            raise CircuitOpenError(
                f"circuit breaker {self.name!r} is {self.state}; call rejected")

    def record_success(self) -> None:
        if self._state == STATE_HALF_OPEN:
            self._transition(STATE_CLOSED)
        self._consecutive_failures = 0

    def record_failure(self) -> None:
        if self._state == STATE_HALF_OPEN:
            self._transition(STATE_OPEN)
            return
        self._consecutive_failures += 1
        if (self._state == STATE_CLOSED
                and self._consecutive_failures >= self.failure_threshold):
            self._transition(STATE_OPEN)

    def record(self, ok: bool) -> None:
        if ok:
            self.record_success()
        else:
            self.record_failure()

    @property
    def state(self) -> str:
        # An expired open window reads as half-open: the next allow()
        # would admit a probe, and gauges should say so.
        if (self._state == STATE_OPEN
                and self.clock.now() - self._opened_at >= self.reset_timeout):
            return STATE_HALF_OPEN
        return self._state

    @property
    def state_code(self) -> int:
        return STATE_CODES[self.state]

    def statistics(self) -> Dict[str, Any]:
        return {
            "state": self.state,
            "consecutive_failures": self._consecutive_failures,
            "rejections": self.rejections,
            "transitions": len(self.transitions),
        }


class BreakerBoard:
    """Get-or-create breakers by name, with registry gauges per breaker."""

    def __init__(self, clock, failure_threshold: int = 3,
                 reset_timeout: float = 10.0, half_open_probes: int = 1,
                 tracer=NULL_TRACER, registry=None) -> None:
        self.clock = clock
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.half_open_probes = half_open_probes
        self.tracer = tracer
        self.registry = registry
        self._breakers: Dict[str, CircuitBreaker] = {}

    def get(self, name: str) -> CircuitBreaker:
        breaker = self._breakers.get(name)
        if breaker is None:
            breaker = CircuitBreaker(
                name, self.clock,
                failure_threshold=self.failure_threshold,
                reset_timeout=self.reset_timeout,
                half_open_probes=self.half_open_probes,
                tracer=self.tracer)
            self._breakers[name] = breaker
            if self.registry is not None:
                self.registry.gauge("circuit_breaker_state",
                                    fn=lambda b=breaker: b.state_code,
                                    breaker=name)
        return breaker

    def peek(self, name: str) -> Optional[CircuitBreaker]:
        return self._breakers.get(name)

    def allow(self, name: str) -> bool:
        return self.get(name).allow()

    def record(self, name: str, ok: bool) -> None:
        self.get(name).record(ok)

    def states(self) -> Dict[str, str]:
        items = sorted(self._breakers.items())
        return {name: breaker.state for name, breaker in items}

    def statistics(self) -> Dict[str, Any]:
        items = sorted(self._breakers.items())
        return {name: breaker.statistics() for name, breaker in items}
