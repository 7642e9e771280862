"""The gateway facade: sessions in front, batched ledger commits behind.

:class:`SharingGateway` is the serving layer of the reproduction.  Tenants
open sessions, submit typed requests and get typed responses; behind the
facade the gateway

* serves reads through the invalidation-correct :class:`ViewCache`;
* queues writes into the :class:`WriteScheduler`, which folds compatible
  updates into :class:`~repro.core.workflow.BatchGroup`'s;
* commits each planned batch through
  :meth:`~repro.core.workflow.UpdateCoordinator.commit_entry_batch`, i.e. one
  consensus round for all requests and one for all acknowledgements;
* sheds writes with a typed ``shed`` response when the queue is at capacity
  (``max_queue_depth``), when the commit-latency target is blown (windowed
  p99 or predicted queueing delay — :class:`LatencyShedder`), when a tenant
  exceeds its fair share of a bounded queue, or when a circuit breaker on
  the commit path / tenant / consensus lane is open (:class:`BreakerBoard`);
* optionally serves ``read_view`` requests *degraded* — straight from the
  cache with an explicit bounded-staleness marker — while the commit path
  is unhealthy (``resilience.degraded_reads``);
* journals terminal responses to an on-disk WAL when ``state_dir`` is set
  (before terminal listeners fire), so a restarted gateway answers old
  ``get_response`` lookups and the in-memory response store can be capped
  (``max_responses``) with journaled entries evicted, not lost;
* tracks serving metrics: queue depth, batch sizes, cache hit rate,
  interleaving (requests admitted while a commit round was in flight) and
  per-tenant latency percentiles.

All methods are thread-safe.  Two locks split the serving path so admission
can overlap a commit round:

* ``_lock`` guards admission state (sessions, responses, counters, the write
  queue) and is only held for quick bookkeeping;
* ``_commit_lock`` serialises batch commits and read-through view loads; it
  is held across the consensus rounds, during which ``_lock`` is *released*
  — so new arrivals are admitted (and reads served from cache) while a batch
  is mining.

The full lock order is ``_commit_lock`` → {``_lock``, the cache lock}, and
``_lock`` → the cache lock where both are taken: a commit takes the admission
lock for its bookkeeping and the :class:`ViewCache` lock when the diff hook
patches entries or a failed group's views are dropped (the latter under
``_lock``), never the reverse — the cache lock is not
held while acquiring either gateway lock (:meth:`ViewCache.get` runs the
read-through loader, which takes ``_commit_lock``, outside it).  The
:class:`WriteScheduler`'s internal lock and the :class:`ResponseJournal`'s
lock (with its WAL backend's lock beneath it) are leaves: they guard only
their own structure, and no gateway, cache or scheduler lock is ever acquired
under them.  Every ``commit_once`` caller — :meth:`drain`, the load test's
sync loop, the worker pool in :mod:`repro.gateway.worker`, the asyncio pump in
:mod:`repro.gateway.aio` — drains the same queue and serialises on
``_commit_lock``; the pumps ask :meth:`SharingGateway.seal_trigger` *when* to
commit, commit through ``pump_once`` and quiesce through :meth:`drain`.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.chaos import NULL_INJECTOR, STATE_CLOSED, BreakerBoard, Retrier
from repro.core.system import MedicalDataSharingSystem
from repro.core.workflow import BatchCommitResult
from repro.errors import (
    GatewayError,
    ReproError,
    SessionError,
    SharingError,
    WalCorruptionError,
)
from repro.gateway.admission import LatencyShedder, fair_share_exceeded
from repro.gateway.cache import ViewCache
from repro.gateway.requests import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_QUEUED,
    STATUS_REJECTED,
    STATUS_SHED,
    STATUS_THROTTLED,
    AuditQueryRequest,
    GatewayRequest,
    GatewayResponse,
    ReadViewRequest,
)
from repro.gateway.scheduler import BatchPlan, PendingWrite, WriteScheduler
from repro.gateway.session import DEFAULT_BURST, GatewaySession
from repro.metrics.collectors import LatencyCollector, PeakGauge
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.relational.durability import JsonlWalBackend, checkpoint_database
from repro.relational.replication import (
    ReadReplica,
    ReplicaRouter,
    SegmentShipper,
)
from repro.relational.wal import WalEntry


class ResponseJournal:
    """A durable journal of terminal gateway responses.

    One JSONL WAL (see :class:`~repro.relational.durability.JsonlWalBackend`)
    holding every response that reached a terminal status, so a restarted
    gateway can answer ``get_response(request_id)`` for requests that were
    terminal before the crash — and so in-memory responses can be evicted
    under a retention cap without losing answerability.

    Appends are ordered under one lock (the backend refuses out-of-order
    sequences on read), so concurrent finalisations from the event loop and
    executor threads interleave safely.
    """

    TABLE = "responses"

    def __init__(self, directory: Union[str, pathlib.Path],
                 fsync_policy: str = "batch", segment_max_bytes: int = 1_000_000):
        self.backend = JsonlWalBackend(directory, fsync_policy=fsync_policy,
                                       segment_max_bytes=segment_max_bytes)
        self._lock = threading.Lock()
        #: request_id → (segment_path, offset, length) of its latest
        #: journaled response — lookups seek straight to the line instead of
        #: rescanning the whole journal (which only ever grows).  ~100 bytes
        #: per id, vs. keeping whole responses in memory.
        self._locations: Dict[str, Tuple[pathlib.Path, int, int]] = {}
        started = time.perf_counter()
        highest_request = 0
        last_sequence = 0
        # One pass over the segment bytes builds the location index and
        # finds the tail sequence (torn tails were amputated when the
        # backend opened, so every remaining line must decode).
        segments = self.backend.segment_paths()
        for segment_index, segment in enumerate(segments):
            lines = segment.read_bytes().split(b"\n")
            offset = 0
            for line_index, raw in enumerate(lines):
                if not raw:
                    offset += 1
                    continue
                try:
                    record = json.loads(raw.decode("utf-8"))
                    response_payload = record["payload"]
                    last_sequence = max(last_sequence, int(record["sequence"]))
                except (ValueError, KeyError, UnicodeDecodeError) as exc:
                    if (segment_index == len(segments) - 1
                            and line_index == len(lines) - 1):
                        break  # a concurrent writer's torn flush; ignore
                    raise WalCorruptionError(
                        f"undecodable response-journal entry at "
                        f"{segment.name}:{line_index + 1}") from exc
                request_id = response_payload.get("request_id", "")
                self._locations[request_id] = (segment, offset, len(raw))
                highest_request = max(highest_request, _request_number(request_id))
                offset += len(raw) + 1
        self.recovered_responses = len(self._locations)
        self.highest_request_number = highest_request
        self._next_sequence = last_sequence + 1
        self.recovery_seconds = time.perf_counter() - started

    def record(self, response: GatewayResponse) -> None:
        """Append one terminal response (ordered, crash-safe, indexed)."""
        with self._lock:
            entry = WalEntry(self._next_sequence, "response", self.TABLE,
                             response.to_dict())
            self._next_sequence += 1
            self._locations[response.request_id] = self.backend.append(entry)

    def sync(self) -> None:
        self.backend.sync()

    def close(self) -> None:
        self.backend.close()

    def compact(self, keep: Optional[int] = None) -> Dict[str, int]:
        """Fold the journal down to the latest response per request id.

        The journal only ever appends, so torn lines, superseded rewrites
        and — under a retention cap — responses older than the newest
        ``keep`` ids accumulate as dead weight that every restart re-scans.
        Compaction rewrites the kept responses (chronological order,
        sequences continuing past the current tail) into one fresh segment
        and drops everything else; the location index is rebuilt so lookups
        keep seeking.  Crash-safe via the backend's atomic segment swap.
        """
        with self._lock:
            self.backend.flush()
            bytes_before = self.backend.wal_bytes()
            segment_order = {path: index for index, path
                             in enumerate(self.backend.segment_paths())}
            ordered = sorted(
                self._locations.items(),
                key=lambda item: (segment_order.get(item[1][0], -1), item[1][1]))
            if keep is not None:
                ordered = ordered[-keep:]
            payloads = []
            for request_id, (path, offset, length) in ordered:
                try:
                    with open(path, "rb") as handle:
                        handle.seek(offset)
                        record = json.loads(handle.read(length).decode("utf-8"))
                    payloads.append((request_id, record["payload"]))
                except (OSError, ValueError, KeyError):
                    continue  # segment vanished or line torn; drop the id
            first_sequence = self._next_sequence
            lines = []
            for index, (_request_id, payload) in enumerate(payloads):
                lines.append(json.dumps(
                    {"sequence": first_sequence + index, "operation": "response",
                     "table": self.TABLE, "payload": payload},
                    separators=(",", ":"), default=str).encode("utf-8") + b"\n")
            self._next_sequence = first_sequence + len(payloads)
            target = self.backend.replace_segments(lines, first_sequence)
            self._locations = {}
            offset = 0
            for (request_id, _payload), line in zip(payloads, lines):
                self._locations[request_id] = (target, offset, len(line) - 1)
                offset += len(line)
            return {
                "responses_kept": len(payloads),
                "bytes_reclaimed": max(0, bytes_before - self.backend.wal_bytes()),
            }

    def lookup(self, request_id: str) -> Optional[GatewayResponse]:
        """The journaled terminal response for ``request_id``, by seek."""
        location = self._locations.get(request_id)
        if location is None:
            return None
        path, offset, length = location
        self.backend.flush()  # a batched append may still be buffered
        try:
            with open(path, "rb") as handle:
                handle.seek(offset)
                record = json.loads(handle.read(length).decode("utf-8"))
        except (OSError, ValueError):
            return None  # segment vanished or tail lost to a crash
        return GatewayResponse.from_dict(record["payload"])

    def statistics(self) -> Dict[str, object]:
        stats = self.backend.statistics()
        stats["recovered_responses"] = self.recovered_responses
        stats["recovery_seconds"] = self.recovery_seconds
        return stats


def _request_number(request_id: str) -> int:
    """The numeric part of a ``req-N`` id (0 when unparseable)."""
    try:
        return int(request_id.rsplit("-", 1)[-1])
    except (ValueError, IndexError):
        return 0


class SharingGateway:
    """Concurrent multi-tenant request-serving layer over one sharing system."""

    def __init__(self, system: MedicalDataSharingSystem,
                 max_batch_size: int = 16, max_edits_per_group: int = 8,
                 default_rate: float = 0.0,
                 fold_cross_peer: bool = True,
                 max_queue_depth: Optional[int] = None,
                 state_dir: Optional[Union[str, pathlib.Path]] = None,
                 fsync_policy: Optional[str] = None,
                 max_responses: Optional[int] = None,
                 tracer: Optional[Tracer] = None,
                 registry: Optional[MetricsRegistry] = None,
                 latency_target: Optional[float] = None,
                 degraded_reads: Optional[bool] = None):
        self.system = system
        # Tracing defaults to the shared no-op tracer; passing a real one
        # also attaches it downstream (coordinator, miners, peer WALs) so a
        # request's spans link across the whole pipeline.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if tracer is not None:
            system.attach_tracer(tracer)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.scheduler = WriteScheduler(max_batch_size=max_batch_size,
                                        max_edits_per_group=max_edits_per_group,
                                        fold_cross_peer=fold_cross_peer,
                                        max_queue_depth=max_queue_depth)
        self.cache = ViewCache()
        self.cache.tracer = self.tracer
        #: Diff-driven cache pre-warming: when a commit's TableDiff names a
        #: view no reader has pulled yet, materialise and install it at the
        #: commit boundary instead of waiting for the next read-through miss.
        self.prewarm_cache = system.config.replication.prewarm_cache
        # The diff-aware hook patches cached views row by row when the
        # coordinator hands over the change's TableDiff (and pre-warms the
        # untouched ones), dropping views only when it cannot patch them
        # (half-installed failures).
        system.coordinator.subscribe_shared_diff(self._on_shared_diff)
        # Resilience: commit-latency-driven admission shedding, per-tenant /
        # per-lane / commit-path circuit breakers, fair queueing and (opt-in)
        # bounded-staleness degraded reads.  Defaults come from
        # ``SystemConfig.resilience``; ``latency_target`` / ``degraded_reads``
        # are per-gateway overrides.
        resilience = system.config.resilience
        self.resilience = resilience
        clock = system.simulator.clock
        if clock is None:
            # The degraded-read path's bounded-staleness guarantee measures
            # entry ages on the simulated clock; without one, every age is
            # unknown and degraded reads would always refuse.  Fail loudly
            # at construction instead of silently never serving degraded.
            raise GatewayError(
                "the system's simulator carries no clock; the gateway's "
                "cache cannot measure view staleness without one")
        self.cache.clock = clock
        self.latency_target = (resilience.latency_target_p99
                               if latency_target is None else latency_target)
        self.shedder = LatencyShedder(clock, self.latency_target)
        self.breakers = BreakerBoard(
            clock, failure_threshold=resilience.breaker_failure_threshold,
            reset_timeout=resilience.breaker_reset_timeout,
            tracer=self.tracer, registry=self.registry)
        self.degraded_reads = (resilience.degraded_reads
                               if degraded_reads is None else degraded_reads)
        self.max_staleness = resilience.max_staleness
        self.default_rate = default_rate
        self._sessions: Dict[str, GatewaySession] = {}
        self._responses: Dict[str, GatewayResponse] = {}
        self._latency_by_tenant: Dict[str, LatencyCollector] = {}
        self._status_counts: Dict[str, int] = {}
        self._kind_counts: Dict[str, int] = {}
        self._request_ids = itertools.count(1)
        self._batch_ids = itertools.count(1)
        self._outstanding = PeakGauge()
        self.batch_sizes: List[int] = []
        # Serving counters live in the unified registry; ``metrics()`` reads
        # their values into its tree.
        self._batch_blocks = self.registry.counter("gateway_batch_blocks")
        self._batch_consensus_rounds = self.registry.counter(
            "gateway_batch_consensus_rounds")
        self._writes_committed = self.registry.counter("gateway_writes_committed")
        self._writes_rejected = self.registry.counter("gateway_writes_rejected")
        self._shed_requests = self.registry.counter("gateway_shed_requests")
        #: Shed decisions by cause, so overload diagnoses name the mechanism
        #: (queue capacity vs. latency target vs. fairness vs. open breaker).
        self._shed_by_reason = {
            reason: self.registry.counter("gateway_shed_by_reason",
                                          reason=reason)
            for reason in ("capacity", "latency", "fair_share", "breaker")}
        self._degraded_reads_served = self.registry.counter(
            "gateway_degraded_reads")
        #: Requests (reads and writes) admitted while a batch commit's
        #: consensus rounds were in flight — the open-loop interleaving the
        #: async transport exists to produce.
        self._admitted_during_commit = self.registry.counter(
            "gateway_admitted_during_commit")
        self._commits_in_flight = PeakGauge()
        #: Callbacks fired when a response reaches a terminal status, and
        #: when a write is enqueued.  Listeners run under the admission lock:
        #: they must be cheap, thread-safe and must not call back into the
        #: gateway (the async transport resolves futures, the worker pool
        #: wakes idle workers).
        self._terminal_listeners: List[Callable[[GatewayResponse], None]] = []
        self._enqueue_listeners: List[Callable[[int], None]] = []
        self._lock = threading.RLock()
        self._commit_lock = threading.RLock()
        #: The commit pump's one record (every ``commit_once`` call, whichever
        #: driver made it; updated under ``_lock``): the front ends' counters
        #: are views of it, ``metrics()["transport"]["pump"]`` renders it.
        self._pump_stats: Dict[str, Any] = {
            "commits": 0, "writes": 0, "empty_plans": 0, "deferred": 0, "errors": [],
            "triggers": dict.fromkeys(("flush", "depth", "deadline", "idle"), 0)}
        # Durability: terminal responses are journaled to an on-disk WAL
        # (before terminal listeners fire), so a restarted gateway answers
        # old request-id lookups and in-memory responses can be evicted
        # under the retention cap without losing answerability.
        durability = system.config.durability
        if state_dir is None:
            state_dir = durability.state_dir
        self.state_dir = pathlib.Path(state_dir) if state_dir is not None else None
        self.fsync_policy = fsync_policy or durability.fsync_policy
        self.max_responses = (durability.response_retention
                              if max_responses is None else max_responses)
        if self.max_responses is not None and self.max_responses < 1:
            raise ValueError("max_responses must be at least 1 (or None)")
        self._responses_evicted = self.registry.counter("gateway_responses_evicted")
        self._responses_journaled = self.registry.counter(
            "gateway_responses_journaled")
        self._journaled_ids: set = set()
        self.journal: Optional[ResponseJournal] = None
        if self.state_dir is not None:
            self.journal = ResponseJournal(
                self.state_dir / "responses", fsync_policy=self.fsync_policy,
                segment_max_bytes=durability.segment_max_bytes)
            self.journal.backend.tracer = self.tracer
            # Continue request ids past the recovered journal so a restarted
            # gateway never reissues an id that is already answerable.
            self._request_ids = itertools.count(
                self.journal.highest_request_number + 1)
            self._wire_journal_chaos()
        #: Background durability maintenance (run inline at commit
        #: boundaries — deterministic, no real background threads): WAL-size
        #: and sim-time triggered peer-database checkpoints, and response-
        #: journal compaction past a byte threshold.
        self.checkpoint_wal_bytes = durability.checkpoint_wal_bytes
        self.checkpoint_interval = durability.checkpoint_interval
        self.journal_compact_bytes = durability.journal_compact_bytes
        self._checkpoints = self.registry.counter("gateway_checkpoints")
        self._checkpoint_segments_removed = self.registry.counter(
            "gateway_checkpoint_segments_removed")
        self._journal_compactions = self.registry.counter(
            "gateway_journal_compactions")
        self._journal_bytes_reclaimed = self.registry.counter(
            "gateway_journal_bytes_reclaimed")
        self._last_checkpoint_at: Dict[str, float] = {}
        #: WAL-shipping read replicas: N followers replaying the durable
        #: peers' WALs continuously, a router fanning ``ReadViewRequest``s
        #: across them at bounded measured staleness, writes staying on the
        #: primary.  ``replication.replicas == 0`` (the default) keeps the
        #: single-writer behaviour byte-identical.
        replication = system.config.replication
        self.shipper: Optional[SegmentShipper] = None
        self.replica_router: Optional[ReplicaRouter] = None
        self._replica_reads_served = self.registry.counter("gateway_replica_reads")
        if replication.replicas > 0:
            if system.config.durability.state_dir is None:
                raise GatewayError(
                    "read replicas require durable peers: set "
                    "durability.state_dir (replicas bootstrap from the "
                    "checkpoint manifest and replay shipped WAL segments)")
            self.shipper = SegmentShipper(
                system, clock, ship_interval=replication.ship_interval,
                tracer=self.tracer, registry=self.registry)
            system.coordinator.subscribe_shared_diff(self.shipper.on_shared_diff)

            def _view_name_for(peer: str, metadata_id: str) -> str:
                return system.peer(peer).agreement(metadata_id).view_name_for(peer)

            for index in range(replication.replicas):
                replica_cache = ViewCache()
                replica_cache.tracer = self.tracer
                self.shipper.attach(ReadReplica(
                    f"replica-{index}", clock, _view_name_for,
                    read_service_time=replication.read_service_time,
                    tracer=self.tracer,
                    cache=replica_cache if replication.prewarm_cache else None))
            self.replica_router = ReplicaRouter(
                self.shipper, clock, max_lag=replication.max_lag,
                registry=self.registry)
        self._register_gauges()

    def _wire_journal_chaos(self) -> None:
        """Give the response journal the system's fault injector and retry
        policy (no-op unless chaos was attached before the gateway was
        built), so ``wal.append``/``wal.fsync`` faults reach the journal's
        WAL exactly like the peer WALs — and are survived the same way."""
        injector = self.system.injector
        if injector is NULL_INJECTOR:
            return
        backend = self.journal.backend
        backend.injector = injector
        backend.fault_target = "journal"
        if self.system.retry_policy is not None:
            backend.retrier = Retrier(
                self.system.retry_policy, self.system.simulator.clock,
                seed=injector.seed + 307, name="wal:journal",
                tracer=self.tracer, registry=self.registry)

    def _register_gauges(self) -> None:
        """Expose live serving state through the unified registry."""
        reg = self.registry
        reg.gauge("gateway_queue_depth", fn=lambda: self.scheduler.queue_depth)
        reg.gauge("gateway_enqueued_total",
                  fn=lambda: self.scheduler.enqueued_total)
        reg.gauge("gateway_outstanding_writes",
                  fn=lambda: self._outstanding.value)
        reg.gauge("gateway_outstanding_writes_peak",
                  fn=lambda: self._outstanding.peak)
        reg.gauge("gateway_commits_in_flight",
                  fn=lambda: self._commits_in_flight.value)
        reg.gauge("gateway_commits_in_flight_peak",
                  fn=lambda: self._commits_in_flight.peak)
        reg.gauge("gateway_sessions_open", fn=lambda: len(self._sessions))
        reg.gauge("gateway_batches_committed", fn=lambda: len(self.batch_sizes))
        reg.gauge("gateway_folded_writes",
                  fn=lambda: self.scheduler.folded_writes_total)
        reg.gauge("gateway_fold_rounds_saved",
                  fn=lambda: self.scheduler.fold_rounds_saved)
        self.cache.register_metrics(reg)
        if self.journal is not None:
            backend = self.journal.backend
            reg.gauge("journal_wal_bytes", fn=backend.wal_bytes)
            reg.gauge("journal_appends", fn=lambda: backend.appends)
            reg.gauge("journal_syncs", fn=lambda: backend.syncs)

    # ---------------------------------------------------------------- sessions

    def open_session(self, peer_name: str, rate: Optional[float] = None,
                     burst: Optional[float] = None) -> GatewaySession:
        """Authenticate ``peer_name`` and open a rate-limited session."""
        with self._lock:
            session = GatewaySession(
                self.system, peer_name,
                rate=self.default_rate if rate is None else rate,
                burst=DEFAULT_BURST if burst is None else burst,
            )
            self._sessions[session.session_id] = session
            return session

    def close_session(self, session: GatewaySession) -> None:
        with self._lock:
            session.close()
            self._sessions.pop(session.session_id, None)

    @property
    def session_count(self) -> int:
        return len(self._sessions)

    # --------------------------------------------------------------- listeners

    def subscribe_terminal(self, listener: Callable[[GatewayResponse], None]) -> None:
        """Register a callback fired whenever a response turns terminal.

        Listeners may run under the admission lock and on whichever thread
        finalised the response (an executor thread for batch commits): they
        must be cheap, thread-safe, and must not call back into the gateway.
        The async transport resolves its response futures through this hook;
        the worker pool's ``join_idle`` waits on it instead of sleeping.
        """
        with self._lock:
            self._terminal_listeners.append(listener)

    def subscribe_enqueue(self, listener: Callable[[int], None]) -> None:
        """Register a callback fired with the queue depth after every write
        is enqueued (same constraints as :meth:`subscribe_terminal`).  Used
        to wake idle drainers without sleep-polling."""
        with self._lock:
            self._enqueue_listeners.append(listener)

    # ------------------------------------------------------------------ submit

    def _new_response(self, session: GatewaySession, request: GatewayRequest,
                      status: str, **fields) -> GatewayResponse:
        now = self.system.simulator.clock.now()
        response = GatewayResponse(
            request_id=f"req-{next(self._request_ids)}",
            tenant=session.peer_name,
            kind=request.kind,
            status=status,
            enqueued_at=now,
            completed_at=now,
            **fields,
        )
        self._responses[response.request_id] = response
        self._kind_counts[request.kind] = self._kind_counts.get(request.kind, 0) + 1
        if (self.max_responses is not None
                and len(self._responses) > self.max_responses):
            self._evict_responses_locked()
        return response

    def _evict_responses_locked(self) -> None:
        """Drop the oldest evictable responses until the cap is respected.

        Only *terminal* responses are evictable (queued ones are still owned
        by the scheduler), and with a journal attached only ones already
        journaled — an evicted id then stays answerable via
        :meth:`get_response`'s WAL fallback.  Without a journal the cap is a
        plain memory bound: evicted ids return None.
        """
        excess = len(self._responses) - self.max_responses
        if excess <= 0:
            return
        evicted = []
        for request_id, response in self._responses.items():
            if len(evicted) >= excess:
                break
            if not response.terminal:
                continue
            if self.journal is not None and request_id not in self._journaled_ids:
                continue
            evicted.append(request_id)
        for request_id in evicted:
            del self._responses[request_id]
            self._journaled_ids.discard(request_id)
        if evicted:
            self._responses_evicted.inc(len(evicted))

    def _finalize(self, response: GatewayResponse, session: Optional[GatewaySession],
                  status: str) -> GatewayResponse:
        with self._lock:
            response.status = status
            response.completed_at = self.system.simulator.clock.now()
            self._status_counts[status] = self._status_counts.get(status, 0) + 1
            if session is not None:
                session.count(status)
            if status in (STATUS_OK, STATUS_REJECTED, STATUS_ERROR):
                collector = self._latency_by_tenant.get(response.tenant)
                if collector is None:
                    collector = LatencyCollector()
                    self._latency_by_tenant[response.tenant] = collector
                    self.registry.histogram("gateway_request_latency",
                                            collector=collector,
                                            tenant=response.tenant)
                collector.record_value(response.latency)
            listeners = tuple(self._terminal_listeners)
        # Journal happens-before the terminal listeners (matching the lock
        # order of the async transport): by the time anything a listener
        # wakes runs, the response is appended to the WAL — durable
        # immediately under the ``always`` policy, at the next commit
        # boundary (``journal.sync()`` in commit_once / drain) under
        # ``batch``.  The append is outside the admission lock so an
        # fsync-per-append policy never stalls admission.
        if self.journal is not None:
            self.journal.record(response)
            self._responses_journaled.inc()
            with self._lock:
                self._journaled_ids.add(response.request_id)
        for listener in listeners:
            listener(response)
        return response

    def submit(self, session: GatewaySession, request: GatewayRequest) -> GatewayResponse:
        """Serve a read immediately; queue a write for the next batch.

        The returned response object is *live*: for queued writes its status
        flips to a terminal one when the batch containing the write commits.
        """
        response, read_pending = self._admit(session, request)
        if read_pending:
            return self._serve_read(session, request, response)
        return response

    def _admit(self, session: GatewaySession,
               request: GatewayRequest) -> "tuple[GatewayResponse, bool]":
        """Admission control under the state lock only (never blocks on an
        in-flight commit): rate limit, authorisation, load shedding, then
        either enqueue the write or hand the read back for serving.

        Returns ``(response, read_pending)``; when ``read_pending`` is true
        the caller must still run :meth:`_serve_read` (outside the lock).
        The async transport calls this directly so admission never blocks
        the event loop behind a mining commit.
        """
        # Admission-time terminal statuses are finalized *after* the lock
        # block: _finalize journals to the durable WAL (an fsync under the
        # 'always' policy), which must never run inside the admission
        # critical section — _lock is re-entrant, so calling _finalize here
        # would hold it across the disk write.
        terminal_status = None
        with self.tracer.span("gateway.admit", kind=request.kind,
                              tenant=session.peer_name) as span:
            with self._lock:
                response = self._new_response(session, request, STATUS_QUEUED)
                # The response's request id doubles as the trace id linking
                # every span this request produces across the pipeline.
                request.assign_trace_id(response.request_id)
                response.trace_id = response.request_id
                span.set_trace_id(response.request_id)
                span.annotate(request_id=response.request_id)
                if self._commits_in_flight.value > 0:
                    self._admitted_during_commit.inc()
                if not session.try_admit():
                    response.error = (
                        f"tenant {session.peer_name!r} exceeded its request rate; retry later"
                    )
                    terminal_status = STATUS_THROTTLED
                else:
                    try:
                        session.authorize(request)
                    except SessionError as exc:
                        response.error = str(exc)
                        terminal_status = STATUS_REJECTED
                if terminal_status is None:
                    if not request.is_write:
                        return response, True
                    shed = self._shed_reason_locked(session.peer_name, request)
                    if shed is not None:
                        reason, detail = shed
                        self._shed_requests.inc()
                        self._shed_by_reason[reason].inc()
                        span.annotate(shed_reason=reason)
                        response.error = f"{detail}; request shed — retry later"
                        terminal_status = STATUS_SHED
                    else:
                        self.scheduler.enqueue(PendingWrite(
                            request_id=response.request_id,
                            tenant=session.peer_name,
                            peer=session.peer_name,
                            request=request,
                            enqueued_at=response.enqueued_at,
                            session=session,
                        ))
                        self._outstanding.increment()
                        session.count(STATUS_QUEUED)
                        depth = self.scheduler.queue_depth
                        listeners = tuple(self._enqueue_listeners)
            if terminal_status is not None:
                span.annotate(status=terminal_status)
                self._finalize(response, session, terminal_status)
                return response, False
        for listener in listeners:
            listener(depth)
        return response, False

    def _shed_reason_locked(self, tenant: str,
                            request: GatewayRequest) -> Optional[Tuple[str, str]]:
        """Why this write must be shed, as ``(reason, detail)`` — or None to
        admit.  Checked under the admission lock, cheapest-first:

        1. an open circuit breaker on the commit path, this tenant, or the
           write's consensus lane (a half-open breaker admits its probes);
        2. queue capacity (the PR 4 depth bound);
        3. the commit-latency target — windowed p99 over target, or the
           predicted queueing delay at the current depth over target;
        4. fair queueing — this tenant already holds its fair share of a
           bounded queue.
        """
        lane = self.system.simulator.router.shard_of(request.metadata_id)
        for name in ("commit", f"tenant:{tenant}", f"lane:{lane}"):
            # peek, not get: breakers materialise on first outcome record,
            # and a breaker that never saw traffic cannot reject anything.
            breaker = self.breakers.peek(name)
            if breaker is not None and not breaker.allow():
                return ("breaker",
                        f"circuit breaker {name!r} is {breaker.state} after "
                        f"repeated commit failures")
        if self.scheduler.at_capacity:
            return ("capacity", f"gateway write queue is at capacity "
                    f"({self.scheduler.queue_capacity})")
        decision = self.shedder.decision(self.scheduler.queue_depth)
        if decision is not None:
            return ("latency", decision)
        fair = fair_share_exceeded(self.scheduler, tenant)
        if fair is not None:
            return ("fair_share", fair)
        return None

    def _load_view(self, peer_name: str, metadata_id: str):
        """Materialise a shared view for the cache, serialised with commits.

        A read-through load must not observe a half-installed batch, so it
        waits for any in-flight commit; cache *hits* stay lock-free against
        commits (the diff hook patches entries atomically under the cache
        lock).
        """
        with self._commit_lock:
            return self.system.coordinator.read_shared_data(peer_name, metadata_id)

    def _on_shared_diff(self, metadata_id: str, operation: str,
                        peers: Tuple[str, ...], diff=None) -> None:
        """The coordinator's diff listener: patch cached views in place,
        then pre-warm the views the commit touched but no reader has pulled
        yet, so a fresh commit is immediately servable without a
        read-through miss.

        Fires from inside the commit (possibly on a cascade executor thread
        under parallel cascades), so the pre-warm load reads the
        just-committed table directly — it must NOT take ``_commit_lock``,
        which the committing thread already holds.  A failed commit carries
        no diff; nothing half-installed is ever pre-warmed.
        """
        self.cache.on_shared_diff(metadata_id, operation, peers, diff)
        if (not self.prewarm_cache or not self.cache.enabled
                or diff is None or diff.is_empty):
            return
        for peer in peers:
            if self.cache.peek(peer, metadata_id) is not None:
                continue  # present entries were just patched in place
            try:
                view = self.system.coordinator.read_shared_data(peer, metadata_id)
            except ReproError:
                continue
            self.cache.prewarm(peer, metadata_id, view)

    def _serve_read(self, session: GatewaySession, request: GatewayRequest,
                    response: GatewayResponse) -> GatewayResponse:
        with self.tracer.span("gateway.read", trace_id=response.trace_id,
                              kind=request.kind, tenant=session.peer_name) as span:
            try:
                if isinstance(request, ReadViewRequest):
                    # Replica fan-out first: a follower within its staleness
                    # bound serves the read without touching the primary's
                    # locks at all; writes (and replica-ineligible reads)
                    # stay on the primary.
                    if self.replica_router is not None:
                        routed = self.replica_router.route(session.peer_name,
                                                           request.metadata_id)
                        if routed is not None:
                            span.annotate(replica=routed.replica,
                                          staleness=routed.staleness)
                            self._replica_reads_served.inc()
                            response.payload = {
                                "metadata_id": request.metadata_id,
                                "rows": len(routed.view),
                                "table": routed.view.to_dict(),
                                "replica": routed.replica,
                                "staleness": routed.staleness,
                                "latency": routed.latency,
                            }
                            return self._finalize(response, session, STATUS_OK)
                    stale = self._degraded_view(session.peer_name,
                                                request.metadata_id)
                    if stale is not None:
                        view, age = stale
                        span.annotate(degraded=True, staleness=age)
                        response.payload = {
                            "metadata_id": request.metadata_id,
                            "rows": len(view), "table": view.to_dict(),
                            "degraded": True, "staleness": age,
                        }
                        self._degraded_reads_served.inc()
                        return self._finalize(response, session, STATUS_OK)
                    view = self.cache.get(
                        session.peer_name, request.metadata_id,
                        lambda: self._load_view(session.peer_name,
                                                request.metadata_id),
                    )
                    response.payload = {"metadata_id": request.metadata_id,
                                        "rows": len(view), "table": view.to_dict()}
                elif isinstance(request, AuditQueryRequest):
                    with self._commit_lock:
                        trail = self.system.audit_trail(via_peer=session.peer_name)
                        records = trail.records(request.metadata_id)
                    response.payload = {"count": len(records),
                                        "records": [record.to_dict()
                                                    for record in records]}
                else:
                    raise SharingError(f"cannot serve request kind {request.kind!r}")
            except SharingError as exc:
                response.error = str(exc)
                return self._finalize(response, session, STATUS_REJECTED)
            return self._finalize(response, session, STATUS_OK)

    def commit_path_unhealthy(self) -> bool:
        """Whether the commit path is currently degraded: the ``commit``
        breaker is not closed, or the windowed p99 is over target."""
        commit = self.breakers.peek("commit")
        if commit is not None and commit.state != STATE_CLOSED:
            return True
        return not self.shedder.healthy

    def _degraded_view(self, peer: str,
                       metadata_id: str) -> Optional[Tuple]:
        """A ``(view, age)`` pair for the degraded-read path, or None to take
        the normal read-through path.

        Degraded reads (when enabled) serve straight from the cache while
        the commit path is unhealthy — never touching the commit lock a
        failing or crawling batch may be holding — and mark the response
        with its bounded staleness.  A missing or over-age entry falls back
        to the normal path rather than failing the read.
        """
        if not self.degraded_reads or not self.commit_path_unhealthy():
            return None
        entry = self.cache.peek_entry(peer, metadata_id)
        if entry is None:
            return None
        view, age = entry
        if age is None or age > self.max_staleness:
            # An unmeasurable age (entry installed before a clock was
            # attached) is *unknown*, not zero: it must fail the bounded-
            # staleness cutoff, never pass it.
            return None
        return view, age

    def result(self, request_id: str) -> Optional[GatewayResponse]:
        """Look up the (possibly still queued) response for a request id.

        Alias of :meth:`get_response` — evicted and pre-restart ids are
        answered from the durable journal, not silently forgotten.
        """
        return self.get_response(request_id)

    def get_response(self, request_id: str) -> Optional[GatewayResponse]:
        """The response for a request id, falling back to the durable journal.

        In-memory responses (including still-queued ones) win; a miss — an
        evicted response, or a lookup on a gateway freshly recovered from
        ``state_dir`` — is answered from the on-disk WAL when one is
        attached.  Returns None only when the id was never journaled.
        """
        response = self._responses.get(request_id)
        if response is not None:
            return response
        if self.journal is not None:
            return self.journal.lookup(request_id)
        return None

    # ----------------------------------------------------------------- commits

    @property
    def queue_depth(self) -> int:
        return self.scheduler.queue_depth

    @property
    def outstanding_writes(self) -> int:
        """Writes accepted but not yet resolved by a batch commit."""
        return self._outstanding.value

    @property
    def commits_in_flight(self) -> int:
        """Batch commits currently running their consensus rounds (0 or 1)."""
        return self._commits_in_flight.value

    def seal_trigger(self, seal_depth: Optional[int] = None, max_delay: float = 0.0,
                     idle: bool = False, flushing: bool = False) -> Optional[str]:
        """The seal rule every pump driver asks: what says a batch should
        commit now (None: nothing — an empty queue never seals), first match:

        * ``"flush"`` — the caller is draining or stopping (``flushing``);
        * ``"depth"`` — the queue holds ``seal_depth`` writes (default: the
          scheduler's ``max_batch_size``) or is at capacity, whichever is
          lower: past its capacity a bounded queue only sheds;
        * ``"deadline"`` — the oldest queued write has waited ``max_delay``
          simulated seconds (0 disables);
        * ``"idle"`` — the caller saw arrivals go quiet (``idle``).
        """
        scheduler = self.scheduler
        depth = scheduler.queue_depth
        if depth == 0:
            return None
        if flushing:
            return "flush"
        if (depth >= (seal_depth or scheduler.max_batch_size)
                or scheduler.at_capacity):
            return "depth"
        if max_delay > 0:
            oldest = scheduler.oldest_enqueued_at
            if (oldest is not None and
                    self.system.simulator.clock.now() - oldest >= max_delay):
                return "deadline"
        return "idle" if idle else None

    def pump_once(self, trigger: str) -> None:
        """One pump step: commit the batch ``trigger`` sealed.  A pump must
        survive a blown-up commit (every member was terminal-failed before
        the re-raise), so the failure is kept in the pump record instead of
        dying with the driver's thread or task."""
        try:
            self.commit_once(trigger)
        except Exception as exc:  # noqa: BLE001 - the pump must survive
            with self._lock:
                self._pump_stats["errors"].append(f"{type(exc).__name__}: {exc}")

    def pump_record(self) -> Dict[str, Any]:
        """A snapshot of the commit pump's record (see ``_pump_stats``)."""
        pump = self._pump_stats
        with self._lock:
            return {**pump, "triggers": dict(pump["triggers"]),
                    "errors": list(pump["errors"])}

    def commit_once(self, trigger: Optional[str] = None) -> Optional[BatchCommitResult]:
        """Plan and commit one batch; None when the queue is empty.

        A failure inside the commit never strands queued responses: every
        member of the batch reaches a terminal status either way.

        The commit lock (not the admission lock) is held across the
        consensus rounds, so new requests keep being admitted — and queued
        for the *next* batch — while this one is mining.

        ``trigger`` is :meth:`seal_trigger`'s answer when a pump asked: it
        labels the trace span and is counted once per *planned* batch (not
        for a racing pump's empty plan; a commit that blows up still counts).
        """
        with self._commit_lock:
            with self.tracer.span("gateway.commit") as span:
                if trigger is not None:
                    span.annotate(trigger=trigger)
                with self._lock:
                    with self.tracer.span("scheduler.plan") as plan_span:
                        plan = self.scheduler.plan()
                        plan_span.annotate(groups=len(plan.groups),
                                           size=plan.size)
                    pump = self._pump_stats
                    if plan.is_empty:
                        pump["empty_plans"] += 1
                        span.annotate(empty=True)
                        return None
                    if trigger is not None:
                        pump["triggers"][trigger] = (
                            pump["triggers"].get(trigger, 0) + 1)
                    pump["commits"] += 1
                    pump["writes"] += plan.size
                    pump["deferred"] += plan.deferred
                    self._commits_in_flight.increment()
                    # Batches get their own trace id; the member request ids
                    # stitch each write's admission trace to the batch's
                    # consensus/delta/WAL spans.
                    batch_id = f"batch-{next(self._batch_ids)}"
                    span.set_trace_id(batch_id)
                    span.annotate(batch=batch_id, requests=[
                        pending.request_id for members in plan.members
                        for pending in members])
                commit_started = self.system.simulator.clock.now()
                try:
                    result = self.system.coordinator.commit_entry_batch(plan.groups)
                except ReproError as exc:
                    with self._lock:
                        self._resolve_all_failed(plan, str(exc))
                    raise
                finally:
                    self._commits_in_flight.decrement()
                with self._lock:
                    # Feed the shedder's service-time estimator with this
                    # batch's simulated commit cost per write — the signal
                    # behind its predicted-queueing-delay decision.
                    self.shedder.record_service(
                        self.system.simulator.clock.now() - commit_started,
                        plan.size)
                    self.batch_sizes.append(plan.size)
                    self._batch_blocks.inc(result.blocks_created)
                    self._batch_consensus_rounds.inc(result.consensus_rounds)
                    self._resolve(plan, result)
                # The batched fsync policy's commit boundary: one sync makes
                # the whole batch's terminal responses durable.
                if self.journal is not None:
                    self.journal.sync()
                self._run_durability_maintenance()
                # Ship the batch's WAL tail to the replica fleet (throttled
                # by ship_interval — skipped shipments are what replica
                # staleness measures).  After maintenance: a checkpoint that
                # truncated segments is visible to the shipper's covering
                # check before it reads the tail.
                if self.shipper is not None:
                    self.replica_router.record_commit(
                        self.system.simulator.clock.now())
                    self.shipper.ship()
                return result

    def _run_durability_maintenance(self) -> None:
        """Checkpoint durable peer databases and compact the response journal
        when their triggers fire (see :class:`~repro.config.DurabilityConfig`).

        Runs inline at every commit boundary under the commit lock, so
        maintenance is deterministic against the simulated clock: a peer is
        checkpointed when its WAL outgrew ``checkpoint_wal_bytes`` or at the
        first boundary at least ``checkpoint_interval`` simulated seconds
        after its previous checkpoint; the journal is folded to the latest
        response per request id (the newest ``max_responses`` under a
        retention cap) when it outgrew ``journal_compact_bytes``.
        """
        durability = self.system.config.durability
        if durability.state_dir is not None and (
                self.checkpoint_wal_bytes is not None
                or self.checkpoint_interval is not None):
            now = self.system.simulator.clock.now()
            for name in self.system.peer_names:
                database = self.system.peer(name).database
                if not database.wal.durable:
                    continue
                backend = database.wal.backend
                last = self._last_checkpoint_at.setdefault(name, now)
                due_bytes = (self.checkpoint_wal_bytes is not None
                             and backend.wal_bytes() > self.checkpoint_wal_bytes)
                due_time = (self.checkpoint_interval is not None
                            and now - last >= self.checkpoint_interval)
                if not (due_bytes or due_time):
                    continue
                peer_dir = pathlib.Path(durability.state_dir) / "peers" / name
                with self.tracer.span(
                        "durability.checkpoint", peer=name,
                        trigger="wal_bytes" if due_bytes else "interval") as span:
                    result = checkpoint_database(database, peer_dir)
                    span.annotate(sequence=result.checkpoint_sequence,
                                  segments_removed=result.segments_removed)
                self._checkpoints.inc()
                self._checkpoint_segments_removed.inc(result.segments_removed)
                self._last_checkpoint_at[name] = now
        if (self.journal is not None
                and self.journal_compact_bytes is not None
                and self.journal.backend.wal_bytes() > self.journal_compact_bytes):
            with self.tracer.span("durability.compact_journal") as span:
                stats = self.journal.compact(keep=self.max_responses)
                span.annotate(**stats)
            self._journal_compactions.inc()
            self._journal_bytes_reclaimed.inc(stats["bytes_reclaimed"])

    def drain(self, max_batches: int = 1_000) -> int:
        """Commit batches until the write queue is empty; returns batch count.

        The one end-of-run quiesce — every front end's drain / stop /
        ``join_idle`` finishes here: responses finalised outside a batch
        (reads, sheds) reach stable storage and a forced shipment converges
        every replica to the primary's exact state (the fingerprint oracle).
        """
        committed = 0
        while committed < max_batches and self.commit_once() is not None:
            committed += 1
        # Under the commit lock, as every shipment: a pump may still be committing.
        with self._commit_lock:
            if self.journal is not None:
                self.journal.sync()
            if self.shipper is not None:
                self.shipper.ship(force=True)
        return committed

    def close(self) -> None:
        """Flush and close the journal (idempotent; no-op without ``state_dir``)."""
        if self.journal is not None:
            self.journal.sync()
            self.journal.close()

    def _record_commit_outcome(self, plan: BatchPlan, ok: bool) -> None:
        """Feed one batch's fate to the commit-path circuit breakers.

        Contract-level rejections count as *successes* here: the
        infrastructure committed the batch and produced a verdict; only
        commit blow-ups (every member ``STATUS_ERROR``) open breakers.
        """
        router = self.system.simulator.router
        self.breakers.record("commit", ok)
        for tenant in sorted({pending.tenant for members in plan.members
                              for pending in members}):
            self.breakers.record(f"tenant:{tenant}", ok)
        for lane in sorted({router.shard_of(group.metadata_id)
                            for group in plan.groups}):
            self.breakers.record(f"lane:{lane}", ok)

    def _resolve(self, plan: BatchPlan, result: BatchCommitResult) -> None:
        self._record_commit_outcome(plan, ok=True)
        for index, (trace, members) in enumerate(zip(result.traces, plan.members)):
            group_status = STATUS_OK if trace.succeeded else STATUS_REJECTED
            edit_errors = (result.edit_errors[index]
                           if index < len(result.edit_errors) else [])
            payload = {
                "operation": trace.operation,
                "metadata_id": trace.metadata_id,
                "batched_with": len(members) - 1,
                "cascaded_metadata_ids": list(trace.cascaded_metadata_ids),
                "trace": trace.to_dict(),
            }
            for position, pending in enumerate(members):
                response = self._responses[pending.request_id]
                response.payload = payload
                edit_error = edit_errors[position] if position < len(edit_errors) else None
                if edit_error is not None:
                    # This member's edit was invalid on its own; the rest of
                    # the group committed (or failed) without it.
                    status = STATUS_REJECTED
                    response.error = edit_error
                else:
                    status = group_status
                    if trace.error:
                        response.error = trace.error
                # Gauge before listeners: anything woken by the terminal
                # hook (the async drain, join_idle) must already observe the
                # decremented outstanding count or it can re-sleep forever.
                self._outstanding.decrement()
                self._finalize(response, pending.session, status)
                if status == STATUS_OK:
                    self._writes_committed.inc()
                    self.shedder.record_latency(response.latency)
                else:
                    self._writes_rejected.inc()
        # Defensive coherence: successful groups were already patched row by
        # row through the coordinator's diff listener, so only the tables a
        # *failed* group may have half-touched are dropped wholesale.
        for trace in result.traces:
            if trace.succeeded:
                continue
            self.cache.invalidate(trace.metadata_id)
            for cascaded in trace.cascaded_metadata_ids:
                self.cache.invalidate(cascaded)

    def _resolve_all_failed(self, plan: BatchPlan, error: str) -> None:
        """Terminal-fail every member of a batch whose commit blew up."""
        self._record_commit_outcome(plan, ok=False)
        for members in plan.members:
            for pending in members:
                response = self._responses[pending.request_id]
                response.error = error
                self._outstanding.decrement()  # gauge before terminal listeners
                self._finalize(response, pending.session, STATUS_ERROR)
                self._writes_rejected.inc()
        for group in plan.groups:
            self.cache.invalidate(group.metadata_id)

    # ----------------------------------------------------------------- metrics

    def metrics(self) -> Dict[str, object]:
        """Gateway-level serving metrics (all times in simulated seconds)."""
        with self._lock:
            batches = len(self.batch_sizes)
            tenants = {
                tenant: {
                    "count": collector.count,
                    "mean": collector.mean,
                    "p95": collector.p95,
                    "p99": collector.p99,
                }
                for tenant, collector in sorted(self._latency_by_tenant.items())
            }
            return {
                "requests": {
                    "total": sum(self._kind_counts.values()),
                    "by_kind": dict(sorted(self._kind_counts.items())),
                    "by_status": dict(sorted(self._status_counts.items())),
                },
                "queue": {
                    "depth": self.scheduler.queue_depth,
                    "max_depth": self.scheduler.max_queue_depth,
                    "enqueued_total": self.scheduler.enqueued_total,
                    "outstanding_writes": self._outstanding.value,
                    "capacity": self.scheduler.queue_capacity,
                    "shed_requests": self._shed_requests.value,
                },
                "transport": {
                    "commits_in_flight": self._commits_in_flight.value,
                    "commits_in_flight_peak": self._commits_in_flight.peak,
                    "admitted_during_commit": self._admitted_during_commit.value,
                    "outstanding_writes_peak": self._outstanding.peak,
                    "pump": self.pump_record(),
                },
                "batches": {
                    "committed": batches,
                    "writes_committed": self._writes_committed.value,
                    "writes_rejected": self._writes_rejected.value,
                    "mean_size": (sum(self.batch_sizes) / batches) if batches else 0.0,
                    "max_size": max(self.batch_sizes) if self.batch_sizes else 0,
                    "consensus_rounds": self._batch_consensus_rounds.value,
                    "blocks_created": self._batch_blocks.value,
                    "folded_writes": self.scheduler.folded_writes_total,
                    "fold_rounds_saved": self.scheduler.fold_rounds_saved,
                },
                "shards": self._shard_metrics(),
                "resilience": {
                    "latency_target": self.latency_target,
                    "shedder": self.shedder.statistics(),
                    "breakers": self.breakers.statistics(),
                    "queued_by_tenant": self.scheduler.queued_by_tenant(),
                    "shed_by_reason": {
                        reason: counter.value
                        for reason, counter in sorted(self._shed_by_reason.items())},
                    "degraded_reads_enabled": self.degraded_reads,
                    "degraded_reads_served": self._degraded_reads_served.value,
                    "chaos_events": len(self.system.injector.events),
                },
                "cache": self.cache.statistics(),
                "replication": self._replication_metrics(),
                "durability": self._durability_metrics(),
                "tenants": tenants,
                "sessions_open": len(self._sessions),
            }

    def _replication_metrics(self) -> Dict[str, object]:
        """Replica-fleet health: shipments, per-replica lag, routed reads."""
        if self.replica_router is None:
            return {"enabled": False,
                    "prewarm_cache": self.prewarm_cache,
                    "cache_prewarms": self.cache.prewarms}
        metrics = {"enabled": True,
                   "prewarm_cache": self.prewarm_cache,
                   "cache_prewarms": self.cache.prewarms,
                   "reads_served": self._replica_reads_served.value}
        metrics.update(self.replica_router.statistics())
        return metrics

    def _durability_metrics(self) -> Dict[str, object]:
        """Response-journal health: WAL bytes, journaled/evicted counts,
        recovery cost of the last restart."""
        metrics: Dict[str, object] = {
            "enabled": self.journal is not None,
            "responses_in_memory": len(self._responses),
            "responses_evicted": self._responses_evicted.value,
            "max_responses": self.max_responses,
            "checkpoints": self._checkpoints.value,
            "checkpoint_segments_removed": self._checkpoint_segments_removed.value,
            "journal_compactions": self._journal_compactions.value,
            "journal_bytes_reclaimed": self._journal_bytes_reclaimed.value,
        }
        if self.journal is not None:
            journal = self.journal.statistics()
            metrics.update({
                "state_dir": str(self.state_dir),
                "fsync_policy": self.fsync_policy,
                "responses_journaled": self._responses_journaled.value,
                "wal_bytes": journal["wal_bytes"],
                "wal_segments": journal["segments"],
                "journal_syncs": journal["syncs"],
                "recovered_responses": journal["recovered_responses"],
                "recovery_seconds": journal["recovery_seconds"],
            })
        return metrics

    def _shard_metrics(self) -> Dict[str, object]:
        """Per-consensus-shard serving metrics: scheduler queue depth by
        shard, the miner node's mempool shard depths and lane production
        counters (single-entry when the pipeline is unsharded)."""
        router = self.system.simulator.router
        metrics: Dict[str, object] = {
            "count": router.num_shards,
            "queue_depth": self.scheduler.queue_depth_by_shard(router),
        }
        for node in self.system.simulator.nodes:
            if node.miner is None:
                continue
            depths = getattr(node.mempool, "shard_depths", None)
            metrics["mempool_depth"] = (list(depths()) if depths is not None
                                        else [len(node.mempool)])
            lanes = node.miner.lane_statistics()
            if lanes is not None:
                metrics["lanes"] = lanes
            break
        return metrics
