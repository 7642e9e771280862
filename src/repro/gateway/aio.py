"""The asyncio gateway transport: open-loop admission over batched commits.

The synchronous :class:`~repro.gateway.gateway.SharingGateway` requires its
caller to interleave ``submit`` and ``commit_once``/``drain`` by hand, so an
open-loop driver stops admitting arrivals while a batch is mining and the
consensus lanes sit idle between batches.  :class:`AsyncSharingGateway` puts
an event loop in front of the same gateway:

* :meth:`AsyncSharingGateway.submit_nowait` admits a request and returns an
  :class:`asyncio.Future` that resolves when the response turns terminal —
  the caller keeps submitting (open loop) instead of waiting;
* a **commit pump** task asks the gateway's seal rule
  (:meth:`~repro.gateway.gateway.SharingGateway.seal_trigger`) after every
  admission and when arrivals go quiet — no explicit ``drain()`` calls;
* the batch itself runs in an executor thread while the event loop keeps
  admitting arrivals, so admission genuinely overlaps the consensus rounds
  (the gateway's commit lock, not its admission lock, covers the mining).

Everything else — planner, cache, response store, pump record, end-of-run
quiesce — is the gateway's own, so what the sync path guarantees (per-tenant
same-table order, fold rules, conflict serialisation) holds unchanged.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Union

from repro.core.system import MedicalDataSharingSystem
from repro.gateway.gateway import SharingGateway
from repro.gateway.requests import STATUS_QUEUED, GatewayRequest, GatewayResponse
from repro.gateway.session import GatewaySession
from repro.metrics.collectors import PeakGauge


class AsyncSharingGateway:
    """An asyncio front end over one :class:`SharingGateway`.

    ``seal_depth`` defaults to the scheduler's ``max_batch_size``;
    ``max_delay`` (simulated seconds, 0 disables) bounds how long a queued
    write waits for its batch to fill; ``idle_timeout`` (real seconds) seals
    pending work when the arrival stream goes quiet, so no write ever hangs
    waiting for traffic that never comes.  ``sealed_by`` / ``commits`` /
    ``commit_errors`` read the gateway's pump record.
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
        #: request_id → future of a queued write awaiting its batch commit.
        self._pending: Dict[str, asyncio.Future] = {}
        self._in_flight = PeakGauge()
        self._reads_in_flight = PeakGauge()
        # The hook outlives the pump; it is a no-op while no loop is attached.
        self.gateway.subscribe_terminal(self._on_terminal)

    @property
    def sealed_by(self) -> Dict[str, int]:
        return self.gateway.pump_record()["triggers"]

    @property
    def commits(self) -> int:
        return self.gateway.pump_record()["commits"]

    @property
    def commit_errors(self) -> List[str]:
        return self.gateway.pump_record()["errors"]

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
        self._pump_task = self._loop.create_task(self._commit_pump(),
                                                 name="gateway-commit-pump")
        return self

    async def stop(self) -> None:
        """Stop the pump, then :meth:`drain`: every accepted request leaves
        with a terminal response on stable storage and the replicas equal the
        primary, so a clean shutdown ends like every other run."""
        self._stopping = True
        if self._pump_task is not None:
            self._wake.set()
            await self._pump_task
            self._pump_task = None
        await self.drain()

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

        Every admission wakes the pump, whatever its outcome: the caller
        advanced the simulated clock to get here, so a shed write or a read
        turns the seal rule's deadline answer as a queued write its depth one.
        """
        if not self.running:
            raise RuntimeError("async gateway is not running; use 'async with' "
                               "or await start() first")
        response, read_pending = self.gateway._admit(session, request)
        self._wake.set()
        if read_pending:
            self._reads_in_flight.increment()
            served = self._loop.run_in_executor(
                None, self.gateway._serve_read, session, request, response)
            served.add_done_callback(self._read_done)
            return served
        future: "asyncio.Future[GatewayResponse]" = self._loop.create_future()
        if response.status == STATUS_QUEUED:
            self._pending[response.request_id] = future
            self._in_flight.increment()
        else:
            future.set_result(response)
        return future

    async def submit(self, session: GatewaySession,
                     request: GatewayRequest) -> GatewayResponse:
        """Admit a request and await its terminal response."""
        return await self.submit_nowait(session, request)

    def _read_done(self, _served: "asyncio.Future") -> None:
        self._reads_in_flight.decrement()
        self._terminal_event.set()

    # The gateway calls this on whichever thread finalised the response
    # (event loop for admission-time terminals, executor for batch commits);
    # the future itself is always resolved on the event loop.
    def _on_terminal(self, response: GatewayResponse) -> None:
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self._resolve_future, response)

    def _resolve_future(self, response: GatewayResponse) -> None:
        self._terminal_event.set()
        future = self._pending.pop(response.request_id, None)
        if future is None:
            return
        self._in_flight.decrement()
        if not future.done():
            future.set_result(response)

    # --------------------------------------------------------------- commit pump

    async def _commit_pump(self) -> None:
        loop = asyncio.get_running_loop()
        idle = False
        while not self._stopping:
            # Clear-then-check-then-wait: a wake after the check is kept.
            self._wake.clear()
            trigger = self.gateway.seal_trigger(self.seal_depth, self.max_delay, idle)
            idle = False
            if trigger is not None:
                # Off-loop, so admission overlaps the consensus rounds.
                await loop.run_in_executor(None, self.gateway.pump_once, trigger)
                continue
            timeout = self.idle_timeout if self.gateway.queue_depth else None
            try:
                await asyncio.wait_for(self._wake.wait(), timeout)
            except asyncio.TimeoutError:
                idle = True

    async def drain(self) -> None:
        """Flush until no write is queued or awaiting its terminal response
        and no read is in flight, then finish through
        :meth:`SharingGateway.drain` like every front end."""
        loop = asyncio.get_running_loop()

        def quiet() -> bool:
            return (self.gateway.outstanding_writes == 0
                    and self._reads_in_flight.value == 0)

        while not quiet():  # a queued write is an outstanding one
            trigger = self.gateway.seal_trigger(flushing=True)
            if trigger is not None:
                await loop.run_in_executor(None, self.gateway.pump_once, trigger)
                continue
            self._terminal_event.clear()
            if not quiet():
                await self._terminal_event.wait()
        await loop.run_in_executor(None, self.gateway.drain)

    # ------------------------------------------------------------------- metrics

    def statistics(self) -> Dict[str, object]:
        """Transport-level stats: sealing triggers, pump health, in-flight."""
        record = self.gateway.pump_record()  # one snapshot, so the three agree
        return {
            "transport": "async",
            "running": self.running,
            "seal_depth": self.seal_depth,
            "max_delay": self.max_delay,
            "commits": record["commits"],
            "commit_errors": len(record["errors"]),
            "sealed_by": record["triggers"],
            "pending_futures": self._in_flight.value,
            "pending_futures_peak": self._in_flight.peak,
            "reads_in_flight": self._reads_in_flight.value,
            "reads_in_flight_peak": self._reads_in_flight.peak,
            "commit_path_unhealthy": self.gateway.commit_path_unhealthy(),
            "breaker_states": self.gateway.breakers.states(),
        }

    def metrics(self) -> Dict[str, object]:
        """The shared gateway metrics plus this transport's own section."""
        return {**self.gateway.metrics(), "async_transport": self.statistics()}
