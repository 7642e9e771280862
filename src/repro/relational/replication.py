"""WAL-shipping read replicas.

The durability module (PR 5/8) already proves a JSONL WAL tail replays to
byte-identical state; this module turns that invariant into *live followers*:

* the :class:`SegmentShipper` sits on the writer.  At every commit boundary
  it reads the entries appended to each durable peer's WAL since the last
  shipment and publishes them — plus the commit's :class:`TableDiff` notices
  for cache pre-warming — to every attached replica.  Shipping is throttled
  by ``ship_interval`` (simulated seconds), which is the knob that creates
  *measurable* replica staleness;
* each :class:`ReadReplica` holds a follower :class:`Database` per primary
  peer, bootstrapped from the checkpoint manifest's snapshot and replayed
  forward with :func:`~repro.relational.durability.replay_entry` — exactly
  the recovery path, run continuously.  A replica knows the simulated time
  it has *replayed through*, so its staleness against the primary's last
  commit is a measured quantity, not an estimate;
* the :class:`ReplicaRouter` fans ``ReadViewRequest``\\ s across the fleet:
  each replica models a single-threaded service lane (deterministic queueing
  on the simulated clock), the router picks the least-loaded replica whose
  lag is within the configured bound, and falls back to the primary when no
  replica qualifies.  Writes never touch a replica.

Checkpoints on the primary truncate WAL segments; a replica whose cursor
trails the retained WAL (``backend.covers(cursor)`` is false) is
re-bootstrapped from the manifest instead of replaying a silently
incomplete tail — the segment-boundary edge that makes
``read_entries(since=...)`` load-bearing.

A shipment costs what was appended since the last one: the shipper, and only
the shipper, holds one tail position per peer, as handed back by the
backend's ``read_tail``, and the next ship seeks there.  The position goes
with the fleet's floor cursor — a replica attached late or re-bootstrapped
moves the floor and the backend reads from the cursor as before; a
re-bootstrap drops it — and a peer nothing was appended to is not read.
"""

from __future__ import annotations

import pathlib
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.obs.tracer import NULL_TRACER
from repro.relational.database import Database
from repro.relational.durability import (TailPosition, read_manifest,
                                         replay_entry)
from repro.relational.persistence import load_database
from repro.relational.wal import WalEntry


class ReplicationError(ReproError):
    """A replica observed an impossible shipment (gap, unknown peer)."""


@dataclass(frozen=True)
class DiffNotice:
    """One commit's shared-table change, shipped for cache pre-warming."""

    metadata_id: str
    operation: str
    peers: Tuple[str, ...]


@dataclass(frozen=True)
class ShippedBatch:
    """One peer's WAL tail as published by the shipper.

    ``committed_at`` is the primary's simulated time at the shipment — the
    replica's ``replayed_through`` watermark after applying the batch.
    """

    peer: str
    entries: Tuple[WalEntry, ...]
    committed_at: float


class ReadReplica:
    """A read-only follower of every durable primary peer.

    Not a :class:`~repro.core.peer.Peer`: it holds no ledger node, signs
    nothing and accepts no writes — it replays the primary peers' WAL
    entries into follower databases and serves view reads from them.
    """

    def __init__(self, name: str, clock,
                 view_name_for: Callable[[str, str], str],
                 read_service_time: float = 0.0,
                 tracer=None, cache=None):
        self.name = name
        self.clock = clock
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.read_service_time = read_service_time
        self._view_name_for = view_name_for
        #: Optional ViewCache pre-warmed from shipped diff notices.
        self.cache = cache
        if cache is not None:
            cache.clock = clock
        self._databases: Dict[str, Database] = {}
        self._applied: Dict[str, int] = {}
        #: Simulated time this replica has replayed the primary through.
        self.replayed_through = 0.0
        #: The service lane: when this replica next becomes free to serve.
        self.next_free_at = 0.0
        self.reads_served = 0
        self.entries_replayed = 0
        self.bootstraps = 0
        self._lock = threading.RLock()

    # --------------------------------------------------------------- replaying

    def applied_sequence(self, peer: str) -> int:
        with self._lock:
            return self._applied.get(peer, 0)

    @property
    def peer_names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._databases))

    def follows(self, peer: str) -> bool:
        """Whether this replica holds a follower database for ``peer``."""
        with self._lock:
            return peer in self._databases

    def bootstrap(self, peer: str, state_dir, backend=None,
                  now: float = 0.0) -> int:
        """(Re-)seed the follower for ``peer`` from its checkpoint manifest.

        Loads the manifest's snapshot (or starts empty when none exists)
        and, when the peer's live ``backend`` is given, replays the retained
        WAL tail past the checkpoint — the same recipe as
        :func:`~repro.relational.durability.recover`, against the primary's
        live segment files instead of a post-crash copy.  Returns the
        sequence the follower is caught up to.
        """
        state_path = pathlib.Path(state_dir)
        manifest = read_manifest(state_path)
        with self.tracer.span("replica.bootstrap", replica=self.name,
                              peer=peer) as span:
            if manifest is None:
                database = Database(f"{peer}_db")
                applied = 0
            else:
                snapshot_name = manifest.get("snapshot")
                if snapshot_name:
                    database = load_database(state_path / snapshot_name)
                else:
                    database = Database(manifest.get("name", f"{peer}_db"))
                applied = int(manifest.get("checkpoint_sequence", 0))
            replayed = 0
            if backend is not None:
                entries, _ = backend.read_entries(since=applied)
                with database.wal.suspended():
                    for entry in entries:
                        replay_entry(database, entry)
                        applied = entry.sequence
                        replayed += 1
            with self._lock:
                self._databases[peer] = database
                self._applied[peer] = applied
                self.entries_replayed += replayed
                self.bootstraps += 1
                self.replayed_through = max(self.replayed_through, now)
                if self.cache is not None:
                    # Anything cached for this peer predates the re-seed.
                    self.cache.invalidate_all()
            span.annotate(applied=applied, replayed=replayed)
        return applied

    def apply(self, batch: ShippedBatch) -> int:
        """Replay one shipped batch; returns how many entries were applied.

        Entries at or below the follower's applied sequence are skipped
        (shipments to a fleet share one WAL read, so a freshly bootstrapped
        replica may receive a prefix it already holds); a *gap* past the
        cursor means the shipper lost entries and raises.
        """
        with self._lock:
            database = self._databases.get(batch.peer)
            if database is None:
                raise ReplicationError(
                    f"replica {self.name!r} holds no follower for peer "
                    f"{batch.peer!r}; bootstrap it first")
            applied = self._applied[batch.peer]
            fresh = [entry for entry in batch.entries if entry.sequence > applied]
            if fresh and fresh[0].sequence != applied + 1:
                raise ReplicationError(
                    f"replica {self.name!r} gap on peer {batch.peer!r}: "
                    f"applied through {applied}, shipment starts at "
                    f"{fresh[0].sequence}")
            with self.tracer.span("replica.replay", replica=self.name,
                                  peer=batch.peer, entries=len(fresh)) as span:
                with database.wal.suspended():
                    for entry in fresh:
                        replay_entry(database, entry)
                if fresh:
                    self._applied[batch.peer] = fresh[-1].sequence
                    self.entries_replayed += len(fresh)
                self.replayed_through = max(self.replayed_through,
                                            batch.committed_at)
                span.annotate(applied_through=self._applied[batch.peer])
            return len(fresh)

    def prewarm(self, notices: Tuple[DiffNotice, ...]) -> int:
        """Materialise the views a shipment touched into the replica cache."""
        if self.cache is None or not notices:
            return 0
        warmed = 0
        with self._lock:
            for notice in notices:
                for peer in notice.peers:
                    database = self._databases.get(peer)
                    if database is None:
                        continue
                    try:
                        view_name = self._view_name_for(peer, notice.metadata_id)
                        view = database.table(view_name).snapshot()
                    except ReproError:
                        continue  # agreement or table not replayed yet
                    if self.cache.prewarm(peer, notice.metadata_id, view):
                        warmed += 1
        return warmed

    # ------------------------------------------------------------------- reads

    def lag(self, primary_committed_at: float) -> float:
        """Measured staleness: primary's last commit time minus the
        simulated time this replica has replayed through."""
        with self._lock:
            return max(0.0, primary_committed_at - self.replayed_through)

    def read_view(self, peer: str, metadata_id: str):
        """A snapshot of the follower's materialised shared view."""
        with self._lock:
            database = self._databases.get(peer)
            if database is None:
                raise ReplicationError(
                    f"replica {self.name!r} holds no follower for peer {peer!r}")
            if self.cache is not None:
                cached = self.cache.peek(peer, metadata_id)
                if cached is not None:
                    self.cache.hits += 1
                    self.reads_served += 1
                    return cached
                self.cache.misses += 1
            view_name = self._view_name_for(peer, metadata_id)
            view = database.table(view_name).snapshot()
            if self.cache is not None:
                self.cache.prewarm(peer, metadata_id, view)
            self.reads_served += 1
            return view

    def reserve(self, now: float) -> Tuple[float, float]:
        """Occupy the service lane for one read; returns (start, latency)."""
        with self._lock:
            start = max(now, self.next_free_at)
            self.next_free_at = start + self.read_service_time
            return start, (self.next_free_at - now)

    # --------------------------------------------------------------- integrity

    def fingerprints(self) -> Dict[str, Dict[str, str]]:
        """Per-peer per-table content fingerprints, shaped exactly like
        :meth:`MedicalDataSharingSystem.state_fingerprints` for byte-identity
        checks against the primary."""
        with self._lock:
            return {
                peer: {table: database.table(table).fingerprint()
                       for table in sorted(database.table_names)}
                for peer, database in sorted(self._databases.items())
            }

    def statistics(self) -> Dict[str, object]:
        with self._lock:
            return {
                "name": self.name,
                "peers": len(self._databases),
                "applied": dict(sorted(self._applied.items())),
                "replayed_through": self.replayed_through,
                "entries_replayed": self.entries_replayed,
                "reads_served": self.reads_served,
                "bootstraps": self.bootstraps,
                "cache": (self.cache.statistics()
                          if self.cache is not None else None),
            }


class SegmentShipper:
    """Publishes each durable peer's WAL tail to the replica fleet.

    Runs on the writer at commit boundaries.  One WAL read per peer per
    shipment is shared by every replica (they almost always hold the same
    cursor); a replica whose cursor fell behind the retained WAL — a
    checkpoint truncated segments it still needed — is re-bootstrapped from
    the manifest snapshot before the tail is applied.
    """

    def __init__(self, system, clock, ship_interval: float = 0.0,
                 tracer=None, registry=None):
        self.system = system
        self.clock = clock
        self.ship_interval = ship_interval
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.registry = registry
        self.replicas: List[ReadReplica] = []
        self._last_ship: Optional[float] = None
        self._pending_notices: List[DiffNotice] = []
        self.shipments = 0
        self.entries_shipped = 0
        #: Entries decoded while shipping (== appended, when no read fell back).
        self.entries_read = 0
        self.rebootstraps = 0
        #: peer → where the last shipment stopped reading its WAL.
        self._positions: Dict[str, Optional[TailPosition]] = {}
        self._lock = threading.Lock()
        state_dir = system.config.durability.state_dir
        if state_dir is None:
            raise ReplicationError(
                "WAL shipping requires durable peers: set "
                "durability.state_dir before enabling replicas")
        self._peers_root = pathlib.Path(state_dir) / "peers"

    def peer_state_dir(self, peer: str) -> pathlib.Path:
        return self._peers_root / peer

    # ------------------------------------------------------------------- fleet

    def attach(self, replica: ReadReplica) -> ReadReplica:
        """Add a replica and bootstrap it to the primary's current state."""
        now = self.clock.now()
        for peer_name in self.system.peer_names:
            backend = self.system.peer(peer_name).database.wal.backend
            if backend is None:
                continue
            replica.bootstrap(peer_name, self.peer_state_dir(peer_name),
                              backend=backend, now=now)
            # The bootstrap read everything: its cursor stands at the end.
            self._positions.setdefault(peer_name, backend.tail_position())
        with self._lock:
            if replica not in self.replicas:
                self.replicas.append(replica)
        return replica

    def detach(self, replica: ReadReplica) -> None:
        with self._lock:
            if replica in self.replicas:
                self.replicas.remove(replica)

    # ---------------------------------------------------------------- shipping

    def on_shared_diff(self, metadata_id: str, operation: str,
                       peers: Tuple[str, ...], diff=None) -> None:
        """The :meth:`UpdateCoordinator.subscribe_shared_diff` listener:
        queue the touched view for pre-warming at the next shipment.  May
        fire from executor threads under parallel cascades."""
        with self._lock:
            self._pending_notices.append(
                DiffNotice(metadata_id=metadata_id, operation=operation,
                           peers=tuple(peers)))

    def ship(self, force: bool = False) -> int:
        """Publish new WAL entries to every replica; returns entries shipped.

        Throttled by ``ship_interval`` unless ``force``d (quiesce/drain
        ships unconditionally so the fleet converges).
        """
        with self._lock:
            replicas = list(self.replicas)
            if not replicas:
                self._pending_notices.clear()
                return 0
        now = self.clock.now()
        if (not force and self.ship_interval > 0.0
                and self._last_ship is not None
                and now - self._last_ship < self.ship_interval):
            return 0
        self._last_ship = now
        with self._lock:
            notices = tuple(dict.fromkeys(self._pending_notices))
            self._pending_notices.clear()
        shipped = 0
        with self.tracer.span("replica.ship", replicas=len(replicas)) as span:
            for peer_name in self.system.peer_names:
                wal = self.system.peer(peer_name).database.wal
                backend = wal.backend
                if backend is None:
                    continue
                cursors = []
                for replica in replicas:
                    cursor = replica.applied_sequence(peer_name)
                    # A fully-truncated WAL trivially "covers" every cursor
                    # (no retained segments to miss); the log's checkpoint
                    # sequence then says whether a cursor lost entries.
                    if (not replica.follows(peer_name)
                            or not backend.covers(cursor)
                            or (backend.first_sequence() is None
                                and cursor < wal.checkpoint_sequence)):
                        # The cursor trails the retained WAL (segments it
                        # needed were truncated at a checkpoint): replaying
                        # the tail would silently skip (cursor, checkpoint].
                        replica.bootstrap(peer_name,
                                          self.peer_state_dir(peer_name),
                                          backend=backend, now=now)
                        self.rebootstraps += 1
                        self._positions.pop(peer_name, None)
                        cursor = replica.applied_sequence(peer_name)
                    cursors.append(cursor)
                floor = min(cursors)
                entries: List[WalEntry] = []
                if floor != wal.last_sequence:  # an idle peer costs no read
                    decoded = backend.decoded
                    entries, _, self._positions[peer_name] = backend.read_tail(
                        floor, self._positions.get(peer_name))
                    self.entries_read += backend.decoded - decoded
                batch = ShippedBatch(peer=peer_name, entries=tuple(entries),
                                     committed_at=now)
                for replica in replicas:
                    shipped += replica.apply(batch)
            for replica in replicas:
                replica.prewarm(notices)
            span.annotate(entries=shipped, notices=len(notices))
        self.shipments += 1
        self.entries_shipped += shipped
        return shipped

    def statistics(self) -> Dict[str, object]:
        return {
            "replicas": len(self.replicas),
            "ship_interval": self.ship_interval,
            "shipments": self.shipments,
            "entries_shipped": self.entries_shipped,
            "entries_read": self.entries_read,
            "rebootstraps": self.rebootstraps,
        }


@dataclass
class RoutedRead:
    """How one read was served by the router."""

    view: object
    source: str
    staleness: float
    latency: float
    replica: Optional[str] = None


class ReplicaRouter:
    """Bounded-staleness read fan-out across the replica fleet.

    Picks the least-loaded replica (earliest free service lane, name as the
    deterministic tie-break) whose measured lag against the primary's last
    commit is within ``max_lag``; returns ``None`` when no replica
    qualifies, and the caller serves from the primary instead.
    """

    def __init__(self, shipper: SegmentShipper, clock,
                 max_lag: float = 30.0, registry=None):
        self.shipper = shipper
        self.clock = clock
        self.max_lag = max_lag
        self.replica_reads = 0
        self.primary_fallbacks = 0
        #: Simulated time of the primary's newest commit — the staleness
        #: reference every routed read is measured against.
        self.last_commit_at = 0.0
        self._lock = threading.Lock()
        if registry is not None:
            registry.gauge("replica_fleet_size",
                           fn=lambda: len(self.shipper.replicas))
            registry.gauge("replica_reads", fn=lambda: self.replica_reads)
            registry.gauge("replica_primary_fallbacks",
                           fn=lambda: self.primary_fallbacks)
            registry.gauge("replica_max_lag",
                           fn=lambda: self.max_lag)
            registry.gauge(
                "replica_lag_max",
                fn=lambda: max((replica.lag(self.last_commit_at)
                                for replica in self.shipper.replicas),
                               default=0.0))

    def record_commit(self, committed_at: float) -> None:
        with self._lock:
            if committed_at > self.last_commit_at:
                self.last_commit_at = committed_at

    def route(self, peer: str, metadata_id: str) -> Optional[RoutedRead]:
        """Serve one view read from the fleet, or ``None`` to use the primary."""
        now = self.clock.now()
        with self._lock:
            reference = self.last_commit_at
        candidates = sorted(
            ((replica.next_free_at, replica.name, replica)
             for replica in self.shipper.replicas
             if replica.lag(reference) <= self.max_lag
             and replica.follows(peer)),
            key=lambda item: (item[0], item[1]))
        for _, _, replica in candidates:
            try:
                view = replica.read_view(peer, metadata_id)
            except ReproError:
                continue
            _, latency = replica.reserve(now)
            with self._lock:
                self.replica_reads += 1
            return RoutedRead(view=view, source="replica",
                              staleness=replica.lag(reference),
                              latency=latency, replica=replica.name)
        with self._lock:
            self.primary_fallbacks += 1
        return None

    def statistics(self) -> Dict[str, object]:
        return {
            "max_lag": self.max_lag,
            "replica_reads": self.replica_reads,
            "primary_fallbacks": self.primary_fallbacks,
            "last_commit_at": self.last_commit_at,
            "lags": {replica.name: replica.lag(self.last_commit_at)
                     for replica in self.shipper.replicas},
            "shipper": self.shipper.statistics(),
            "replicas": [replica.statistics()
                         for replica in self.shipper.replicas],
        }
