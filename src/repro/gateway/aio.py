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
* :meth:`AsyncSharingGateway.replay` replays a timed arrival trace, and
  admission overlaps a commit in *simulated* time: before each consensus
  round of a commit mines, the coordinator's ``before_round`` hook admits
  every replayed arrival whose arrival time the clock has reached.  What is
  admitted during a commit is therefore a function of the seed alone.

Everything runs on the event loop's thread.  Everything else — planner,
cache, response store, pump record, end-of-run quiesce — is the gateway's
own, so what the sync path guarantees (per-tenant same-table order, fold
rules, conflict serialisation) holds unchanged.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Mapping, Optional, Tuple, Union

from repro.core.system import MedicalDataSharingSystem
from repro.gateway.gateway import SharingGateway
from repro.gateway.requests import STATUS_QUEUED, GatewayRequest, GatewayResponse
from repro.gateway.session import GatewaySession
from repro.obs.registry import Gauge

if TYPE_CHECKING:
    from repro.workloads.traffic import TimedRequest


class AsyncSharingGateway:
    """An asyncio front end over one :class:`SharingGateway`.

    ``seal_depth`` defaults to the scheduler's ``max_batch_size``;
    ``max_delay`` (simulated seconds, 0 disables) bounds how long a queued
    write waits for its batch to fill; ``idle_timeout`` (real seconds) seals
    pending work when the arrival stream goes quiet, so no write ever hangs
    waiting for traffic that never comes.  A replay never goes quiet — it
    wakes the pump at every arrival and flushes at its end — so the idle
    timer decides no replayed seal.  ``sealed_by`` / ``commits`` /
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
        self._pump_task: Optional[asyncio.Task] = None
        self._wake: Optional[asyncio.Event] = None
        self._stopping = False
        #: request_id → future of a queued write awaiting its batch commit.
        self._pending: Dict[str, asyncio.Future] = {}
        #: Replayed arrivals not yet admitted, oldest first.
        self._arrivals: Deque["TimedRequest"] = deque()
        #: Reads admitted inside a commit, served once it has finished.
        self._deferred_reads: List[Tuple] = []
        self._in_flight = Gauge()
        self._reads_in_flight = Gauge()
        self.gateway.subscribe_terminal(self._resolve_future)

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
        self._wake = asyncio.Event()
        self._stopping = False
        self._pump_task = asyncio.get_running_loop().create_task(
            self._commit_pump(), name="gateway-commit-pump")
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

        Writes resolve when the batch containing them commits; reads are
        served at once, except a read admitted inside a commit (at a round
        boundary), which is served when that commit has finished installing;
        throttled/shed/rejected requests resolve immediately.

        Every admission wakes the pump, whatever its outcome: the caller
        advanced the simulated clock to get here, so a shed write or a read
        turns the seal rule's deadline answer as a queued write its depth one.
        """
        if not self.running:
            raise RuntimeError("async gateway is not running; use 'async with' "
                               "or await start() first")
        response, read_pending = self.gateway._admit(session, request)
        self._wake.set()
        future: "asyncio.Future[GatewayResponse]" = (
            asyncio.get_running_loop().create_future())
        if read_pending:
            if self.gateway.commits_in_flight:
                self._reads_in_flight.add(1)
                self._deferred_reads.append((future, session, request, response))
            else:
                self._serve_read(future, session, request, response)
        elif response.status == STATUS_QUEUED:
            self._pending[response.request_id] = future
            self._in_flight.add(1)
        else:
            future.set_result(response)
        return future

    async def submit(self, session: GatewaySession,
                     request: GatewayRequest) -> GatewayResponse:
        """Admit a request and await its terminal response."""
        return await self.submit_nowait(session, request)

    async def replay(self, arrivals: "List[TimedRequest]",
                     sessions: Mapping[str, GatewaySession]) -> List[asyncio.Future]:
        """Replay a timed trace open-loop, then flush what is still queued.

        For each arrival the simulated clock is advanced to its arrival time
        and the request is admitted (through ``sessions[tenant]``) *without
        awaiting its future* — an open-loop tenant sends on schedule whether
        or not earlier requests have finished — and the pump gets one turn.
        A commit that mines meanwhile admits, before each of its consensus
        rounds, every arrival the clock has reached.  Returns the response
        futures in arrival order.
        """
        clock = self.gateway.system.simulator.clock
        coordinator = self.gateway.system.coordinator
        self._arrivals = deque(arrivals)
        futures: List[asyncio.Future] = []

        def admit(timed: "TimedRequest") -> None:
            futures.append(self.submit_nowait(sessions[timed.tenant], timed.request))

        def admit_due() -> None:
            while self._arrivals and self._arrivals[0].arrival_time <= clock.now():
                admit(self._arrivals.popleft())

        coordinator.before_round = admit_due
        try:
            while self._arrivals:
                timed = self._arrivals.popleft()
                clock.advance_to(timed.arrival_time)
                admit(timed)
                await asyncio.sleep(0)
        finally:
            coordinator.before_round = None
            self._arrivals.clear()
        self._flush()
        return futures

    def _serve_read(self, future: asyncio.Future, session: GatewaySession,
                    request: GatewayRequest, response: GatewayResponse) -> None:
        try:
            future.set_result(self.gateway._serve_read(session, request, response))
        except Exception as exc:  # noqa: BLE001 - the reader gets the failure
            future.set_exception(exc)

    # The gateway calls this whenever a response turns terminal.
    def _resolve_future(self, response: GatewayResponse) -> None:
        future = self._pending.pop(response.request_id, None)
        if future is None:
            return
        self._in_flight.add(-1)
        if not future.done():
            future.set_result(response)

    # --------------------------------------------------------------- commit pump

    def _pump(self, trigger: str) -> None:
        """Commit the batch ``trigger`` sealed, then serve the reads
        admitted inside that commit."""
        self.gateway.pump_once(trigger)
        reads, self._deferred_reads = self._deferred_reads, []
        for read in reads:
            self._reads_in_flight.add(-1)
            self._serve_read(*read)

    async def _commit_pump(self) -> None:
        idle = False
        while not self._stopping:
            # Clear-then-check-then-wait: a wake after the check is kept.
            self._wake.clear()
            trigger = self.gateway.seal_trigger(self.seal_depth, self.max_delay, idle)
            idle = False
            if trigger is not None:
                self._pump(trigger)
                continue
            # A replay never goes quiet: no real-time timer may seal it.
            timeout = (self.idle_timeout
                       if self.gateway.queue_depth and not self._arrivals else None)
            try:
                await asyncio.wait_for(self._wake.wait(), timeout)
            except asyncio.TimeoutError:
                idle = True

    def _flush(self) -> None:
        while True:
            trigger = self.gateway.seal_trigger(flushing=True)
            if trigger is None:
                return
            self._pump(trigger)

    async def drain(self) -> None:
        """Flush until no write is queued, then finish through
        :meth:`SharingGateway.drain` like every front end."""
        self._flush()
        self.gateway.drain()

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
