"""The asyncio gateway transport: open-loop admission over batched commits.

The synchronous :class:`~repro.gateway.gateway.SharingGateway` requires its
caller to interleave ``submit`` and ``commit_once``/``drain`` by hand, so an
open-loop driver stops admitting arrivals while a batch is mining and the
consensus lanes sit idle between batches.  :class:`AsyncSharingGateway` puts
an event loop in front of the same gateway:

* :meth:`AsyncSharingGateway.submit_nowait` admits a request and returns an
  :class:`asyncio.Future` that resolves when the response turns terminal —
  the caller keeps submitting (open loop) instead of waiting;
* a **commit pump** task seals batches when the queue is deep enough
  (``seal_depth``), when the oldest queued write has waited ``max_delay``
  simulated seconds (deadline), or when arrivals go quiet for
  ``idle_timeout`` real seconds — no explicit ``drain()`` calls;
* the batch itself runs in an executor thread while the event loop keeps
  admitting arrivals, so admission genuinely overlaps the consensus rounds
  (the gateway's commit lock, not its admission lock, covers the mining).

Both transports share one :class:`~repro.gateway.scheduler.WriteScheduler`
(the batch planner), one :class:`~repro.gateway.cache.ViewCache` and one
response store, so everything the sync path guarantees — per-tenant
same-table order, fold rules, conflict serialisation — holds unchanged
under the async transport.
"""

from __future__ import annotations

import asyncio
import functools
from typing import Dict, List, Optional, Union

from repro.core.system import MedicalDataSharingSystem
from repro.gateway.gateway import SharingGateway
from repro.gateway.requests import (
    STATUS_QUEUED,
    GatewayRequest,
    GatewayResponse,
)
from repro.gateway.session import GatewaySession
from repro.metrics.collectors import PeakGauge

#: Why the commit pump sealed a batch.
TRIGGER_DEPTH = "depth"        # queue depth reached seal_depth
TRIGGER_DEADLINE = "deadline"  # oldest queued write waited max_delay sim-seconds
TRIGGER_IDLE = "idle"          # no arrivals for idle_timeout real seconds
TRIGGER_FLUSH = "flush"        # explicit drain()/stop() flush


class AsyncSharingGateway:
    """An asyncio front end over one :class:`SharingGateway`.

    ``seal_depth`` defaults to the scheduler's ``max_batch_size``;
    ``max_delay`` (simulated seconds, 0 disables) bounds how long a queued
    write waits for its batch to fill; ``idle_timeout`` (real seconds) seals
    pending work when the arrival stream goes quiet, so no write ever hangs
    waiting for traffic that never comes.
    """

    def __init__(self, target: Union[SharingGateway, MedicalDataSharingSystem],
                 *, seal_depth: Optional[int] = None, max_delay: float = 0.0,
                 idle_timeout: float = 0.02, **gateway_kwargs):
        if isinstance(target, SharingGateway):
            if gateway_kwargs:
                raise ValueError("gateway keyword arguments are only accepted "
                                 "when building the gateway from a system")
            self.gateway = target
        else:
            self.gateway = SharingGateway(target, **gateway_kwargs)
        if seal_depth is not None and seal_depth < 1:
            raise ValueError("seal_depth must be at least 1 (or None)")
        if max_delay < 0:
            raise ValueError("max_delay must be non-negative")
        if idle_timeout <= 0:
            raise ValueError("idle_timeout must be positive")
        self.seal_depth = seal_depth or self.gateway.scheduler.max_batch_size
        self.max_delay = max_delay
        self.idle_timeout = idle_timeout
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pump_task: Optional[asyncio.Task] = None
        self._wake: Optional[asyncio.Event] = None
        self._terminal_event: Optional[asyncio.Event] = None
        self._stopping = False
        self._subscribed = False
        #: request_id → future of a queued write awaiting its batch commit.
        self._pending: Dict[str, asyncio.Future] = {}
        self._in_flight = PeakGauge()
        self._reads_in_flight = PeakGauge()
        self.commits = 0
        self.commit_errors: List[str] = []
        self.sealed_by: Dict[str, int] = {TRIGGER_DEPTH: 0, TRIGGER_DEADLINE: 0,
                                          TRIGGER_IDLE: 0, TRIGGER_FLUSH: 0}

    # ----------------------------------------------------------------- lifecycle

    @property
    def running(self) -> bool:
        return self._pump_task is not None and not self._pump_task.done()

    async def start(self) -> "AsyncSharingGateway":
        if self.running:
            raise RuntimeError("async gateway is already running")
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._terminal_event = asyncio.Event()
        self._stopping = False
        if not self._subscribed:
            self.gateway.subscribe_terminal(self._on_terminal)
            self._subscribed = True
        self._pump_task = self._loop.create_task(self._commit_pump(),
                                                 name="gateway-commit-pump")
        return self

    async def stop(self, flush: bool = True) -> None:
        """Stop the pump; with ``flush`` (default) first drain queued writes
        so every accepted request leaves with a terminal response.  A durable
        response journal (gateway ``state_dir``) is fsynced on the way out so
        a clean shutdown never leaves terminal responses buffered."""
        if flush:
            await self.drain()
        self._stopping = True
        if self._wake is not None:
            self._wake.set()
        if self._pump_task is not None:
            await self._pump_task
            self._pump_task = None
        self.gateway.flush_journal()

    async def __aenter__(self) -> "AsyncSharingGateway":
        return await self.start()

    async def __aexit__(self, *_exc) -> None:
        await self.stop()

    # ------------------------------------------------------------------ sessions

    def open_session(self, peer_name: str, rate: Optional[float] = None,
                     burst: Optional[float] = None) -> GatewaySession:
        return self.gateway.open_session(peer_name, rate=rate, burst=burst)

    def close_session(self, session: GatewaySession) -> None:
        self.gateway.close_session(session)

    # -------------------------------------------------------------------- submit

    def submit_nowait(self, session: GatewaySession,
                      request: GatewayRequest) -> "asyncio.Future[GatewayResponse]":
        """Admit a request now; return a future for its terminal response.

        Admission (rate limit, authorisation, load shedding, enqueue) runs
        inline on the event loop under the gateway's admission lock only, so
        it never blocks behind an in-flight commit.  Writes resolve when the
        batch containing them commits; reads are served on an executor
        thread (a cache miss waits for any in-flight commit there, not
        here); throttled/shed/rejected requests resolve immediately.
        """
        if not self.running:
            raise RuntimeError("async gateway is not running; use 'async with' "
                               "or await start() first")
        loop = self._loop
        future: "asyncio.Future[GatewayResponse]" = loop.create_future()
        response, read_pending = self.gateway._admit(session, request)
        if read_pending:
            self._reads_in_flight.increment()
            served = loop.run_in_executor(
                None, self.gateway._serve_read, session, request, response)
            served.add_done_callback(lambda task: self._read_done(task, future))
        elif response.status == STATUS_QUEUED:
            self._pending[response.request_id] = future
            self._in_flight.increment()
            self._wake.set()
        else:
            future.set_result(response)
        return future

    async def submit(self, session: GatewaySession,
                     request: GatewayRequest) -> GatewayResponse:
        """Admit a request and await its terminal response."""
        return await self.submit_nowait(session, request)

    def _read_done(self, task: "asyncio.Future", future: "asyncio.Future") -> None:
        self._reads_in_flight.decrement()
        if self._terminal_event is not None:
            self._terminal_event.set()
        if future.done():
            return
        if task.cancelled():
            future.cancel()
        elif task.exception() is not None:
            future.set_exception(task.exception())
        else:
            future.set_result(task.result())

    # The gateway calls this on whichever thread finalised the response
    # (event loop for admission-time terminals, executor for batch commits);
    # the future itself is always resolved on the event loop.
    def _on_terminal(self, response: GatewayResponse) -> None:
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        loop.call_soon_threadsafe(self._resolve_future, response)

    def _resolve_future(self, response: GatewayResponse) -> None:
        if self._terminal_event is not None:
            self._terminal_event.set()
        future = self._pending.pop(response.request_id, None)
        if future is None:
            return
        self._in_flight.decrement()
        if not future.done():
            future.set_result(response)

    # --------------------------------------------------------------- commit pump

    def _seal_trigger(self, idle_expired: bool = False) -> Optional[str]:
        """Which trigger (if any) says the pump should seal a batch now."""
        gateway = self.gateway
        if gateway.queue_depth == 0:
            return None
        if self._stopping:
            return TRIGGER_FLUSH
        if gateway.queue_depth >= self.seal_depth:
            return TRIGGER_DEPTH
        if self.max_delay > 0:
            oldest = gateway.scheduler.oldest_enqueued_at
            if (oldest is not None
                    and gateway.system.simulator.clock.now() - oldest >= self.max_delay):
                return TRIGGER_DEADLINE
        if idle_expired:
            return TRIGGER_IDLE
        return None

    async def _commit_pump(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            trigger = self._seal_trigger()
            if trigger is None:
                if self._stopping and self.gateway.queue_depth == 0:
                    return
                # Clear-then-recheck so a wake between the check and the wait
                # is never lost.
                self._wake.clear()
                trigger = self._seal_trigger()
                if trigger is None:
                    if self._stopping and self.gateway.queue_depth == 0:
                        return
                    timeout = self.idle_timeout if self.gateway.queue_depth else None
                    try:
                        await asyncio.wait_for(self._wake.wait(), timeout)
                    except asyncio.TimeoutError:
                        trigger = self._seal_trigger(idle_expired=True)
                    if trigger is None:
                        continue
            await self._commit_in_executor(loop, trigger)

    async def _commit_in_executor(self, loop: asyncio.AbstractEventLoop,
                                  trigger: str) -> None:
        """Run one batch commit off-loop; survive (and record) its failures.

        ``sealed_by`` counts the trigger only when a batch was actually
        planned — a racing drain()/pump pair may both answer one queue
        build-up, and the loser's commit_once is a no-op that must not
        inflate the stats.  A blown-up commit still counts: it consumed (and
        terminal-failed) a planned batch.  The gateway terminal-fails every
        member before re-raising, so the pump only notes the error.
        """
        try:
            result = await loop.run_in_executor(
                None, functools.partial(self.gateway.commit_once,
                                        trigger=trigger))
        except Exception as exc:  # noqa: BLE001 - the pump must survive
            self.commit_errors.append(f"{type(exc).__name__}: {exc}")
            self.sealed_by[trigger] += 1
            return
        if result is not None:
            self.commits += 1
            self.sealed_by[trigger] += 1

    async def drain(self) -> None:
        """Seal until no write is queued or awaiting its terminal response."""
        loop = asyncio.get_running_loop()
        while True:
            if self.gateway.queue_depth > 0:
                await self._commit_in_executor(loop, TRIGGER_FLUSH)
                continue
            if (self.gateway.outstanding_writes == 0
                    and self._reads_in_flight.value == 0):
                return
            self._terminal_event.clear()
            if (self.gateway.outstanding_writes == 0
                    and self._reads_in_flight.value == 0):
                return
            await self._terminal_event.wait()

    # ------------------------------------------------------------------- metrics

    def statistics(self) -> Dict[str, object]:
        """Transport-level stats: sealing triggers, pump health, in-flight."""
        return {
            "transport": "async",
            "running": self.running,
            "seal_depth": self.seal_depth,
            "max_delay": self.max_delay,
            "commits": self.commits,
            "commit_errors": len(self.commit_errors),
            "sealed_by": dict(self.sealed_by),
            "pending_futures": self._in_flight.value,
            "pending_futures_peak": self._in_flight.peak,
            "reads_in_flight": self._reads_in_flight.value,
            "reads_in_flight_peak": self._reads_in_flight.peak,
            "commit_path_unhealthy": self.gateway.commit_path_unhealthy(),
            "breaker_states": self.gateway.breakers.states(),
        }

    def metrics(self) -> Dict[str, object]:
        """The shared gateway metrics plus this transport's own section."""
        merged = self.gateway.metrics()
        merged["async_transport"] = self.statistics()
        return merged
