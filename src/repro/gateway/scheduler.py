"""The write scheduler: queueing, grouping, folding and conflict detection.

Write requests from every tenant land in one FIFO queue.  When the gateway
commits, the scheduler plans a batch:

* edits by the same peer on the same shared table are folded into one
  :class:`~repro.core.workflow.BatchGroup` (one diff, one on-chain request);
* groups on *different* shared tables ride the same two consensus rounds;
* **cross-peer folding**: updates by *different* peers on the same shared
  table join one group when their attribute (column) sets do not overlap and
  they touch different rows — the merged diff commits through a single
  ``request_folded_update``, so the cross-peer hot path costs one consensus
  round pair instead of one per peer (2·N → 2);
* conflicts serialise — overlapping column sets, mixed operation kinds and
  same ``(metadata_id, key)`` writes are deferred to later batches, so
  concurrent writes to the same shared key are applied in arrival order and
  no update is lost.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, FrozenSet, List, Optional, Tuple

from repro.core.workflow import BatchGroup, EntryEdit
from repro.gateway.requests import (
    DeleteEntryRequest,
    GatewayRequest,
    InsertEntryRequest,
    UpdateEntryRequest,
)


@dataclass
class PendingWrite:
    """One queued write request, waiting to be planned into a batch."""

    request_id: str
    tenant: str
    peer: str
    request: GatewayRequest
    enqueued_at: float
    #: The submitting session (opaque here), so the gateway can attribute the
    #: terminal status to the right session even after it closed.
    session: Optional[object] = None

    def to_edit(self) -> EntryEdit:
        request = self.request
        if isinstance(request, UpdateEntryRequest):
            return EntryEdit(op="update", key=request.key, values=request.updates)
        if isinstance(request, InsertEntryRequest):
            return EntryEdit(op="create", values=request.values)
        if isinstance(request, DeleteEntryRequest):
            return EntryEdit(op="delete", key=request.key)
        raise ValueError(f"request kind {request.kind!r} is not a write")

    def conflict_key(self) -> Optional[Tuple[str, Tuple]]:
        """The ``(metadata_id, row key)`` this write contends on, if keyed."""
        key = getattr(self.request, "key", None)
        if key is None:
            return None
        return (self.request.metadata_id, tuple(key))

    def column_set(self) -> Optional[FrozenSet[str]]:
        """The attributes this write declares, or None for "all of them".

        Updates name their columns exactly; creates and deletes touch the
        whole row, so they overlap with everything (None) and never take part
        in cross-peer folding.
        """
        request = self.request
        if isinstance(request, UpdateEntryRequest):
            return frozenset(request.updates)
        return None


@dataclass
class _GroupState:
    """Planner-internal bookkeeping for one group under construction."""

    operation: str
    #: Contributor -> union of declared column sets (None = whole row).
    columns_by_peer: Dict[str, Optional[set]] = field(default_factory=dict)


@dataclass
class BatchPlan:
    """A planned batch: the groups to commit plus their member writes."""

    groups: List[BatchGroup] = field(default_factory=list)
    #: Pending writes per group, aligned with ``groups``.
    members: List[List[PendingWrite]] = field(default_factory=list)
    #: How many queued writes were deferred to a later batch by a conflict.
    deferred: int = 0
    #: Writes that joined a group requested by a *different* peer.
    folded_writes: int = 0

    @property
    def size(self) -> int:
        """Total write requests folded into this batch."""
        return sum(len(member) for member in self.members)

    @property
    def is_empty(self) -> bool:
        return not self.groups


class WriteScheduler:
    """FIFO queue + batch planner for the gateway's write path.

    ``fold_cross_peer`` enables the cross-peer merge rule; with it off every
    shared table is owned by a single peer per batch (the pre-folding
    behaviour) and writes by a second peer always wait for the next batch.
    """

    def __init__(self, max_batch_size: int = 16, max_edits_per_group: int = 8,
                 fold_cross_peer: bool = True,
                 max_queue_depth: Optional[int] = None):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        if max_edits_per_group < 1:
            raise ValueError("max_edits_per_group must be at least 1")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be at least 1 (or None)")
        self.max_batch_size = max_batch_size
        self.max_edits_per_group = max_edits_per_group
        self.fold_cross_peer = fold_cross_peer
        #: Queue capacity for admission control: a write arriving while the
        #: queue holds this many is *shed* (typed terminal response) instead
        #: of queued.  None disables shedding (the pre-admission-control
        #: behaviour).
        self.queue_capacity = max_queue_depth
        self._queue: Deque[PendingWrite] = deque()
        #: Guards queue/tenant-count *iteration* against mutation.  Single
        #: deque operations are atomic under the GIL, but multi-item
        #: snapshots (``queue_depth_by_shard``, ``pending``,
        #: ``queued_by_tenant``) are read from threads that do not hold the
        #: gateway's admission lock — iterating while ``enqueue``/``plan``
        #: mutate raises ``RuntimeError: deque mutated during iteration``.
        self._lock = threading.Lock()
        #: Live queued-write count per tenant, for fair-queueing admission.
        self._tenant_counts: Dict[str, int] = {}
        self.enqueued_total = 0
        #: The deepest the queue has been (its capacity is ``queue_capacity``).
        self.peak_queue_depth = 0
        #: Cross-peer folds over this scheduler's lifetime.
        self.folded_writes_total = 0
        #: Estimated consensus rounds saved by folding: every time a peer's
        #: writes join a batch group another peer requested (instead of
        #: waiting for their own batch), the two rounds that batch would have
        #: cost are saved.
        self.fold_rounds_saved = 0

    # ---------------------------------------------------------------- queueing

    def enqueue(self, pending: PendingWrite) -> None:
        with self._lock:
            self._queue.append(pending)
            self._tenant_counts[pending.tenant] = (
                self._tenant_counts.get(pending.tenant, 0) + 1)
            self.enqueued_total += 1
            self.peak_queue_depth = max(self.peak_queue_depth, len(self._queue))

    def _count_down(self, pending: PendingWrite) -> None:
        remaining = self._tenant_counts.get(pending.tenant, 0) - 1
        if remaining > 0:
            self._tenant_counts[pending.tenant] = remaining
        else:
            self._tenant_counts.pop(pending.tenant, None)

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def queued_for(self, tenant: str) -> int:
        """Writes this tenant currently holds in the queue."""
        return self._tenant_counts.get(tenant, 0)

    @property
    def active_tenants(self) -> int:
        """Distinct tenants with at least one queued write."""
        return len(self._tenant_counts)

    def queued_by_tenant(self) -> Dict[str, int]:
        with self._lock:
            return dict(sorted(self._tenant_counts.items()))

    @property
    def at_capacity(self) -> bool:
        """True when the next write should be shed instead of queued."""
        return (self.queue_capacity is not None
                and len(self._queue) >= self.queue_capacity)

    @property
    def oldest_enqueued_at(self) -> Optional[float]:
        """Simulated enqueue time of the oldest queued write (None if empty).

        The gateway's seal rule uses this for its deadline trigger: a batch
        is sealed once the head of the queue has waited ``max_delay``
        simulated seconds, even if the depth trigger has not fired.  A pump
        asks the rule from its own thread while a commit plans on another,
        so an emptied-underneath-us queue is answered with None, not an
        IndexError.
        """
        try:
            return self._queue[0].enqueued_at
        except IndexError:
            return None

    def pending(self) -> Tuple[PendingWrite, ...]:
        with self._lock:
            return tuple(self._queue)

    def queue_depth_by_shard(self, router) -> Dict[int, int]:
        """Queued writes per consensus shard (``router`` maps metadata ids).

        Empty shards are included so dashboards see the full lane picture.
        Safe to call from any thread: the queue is snapshotted under the
        scheduler's lock before shard routing runs on the copy.
        """
        with self._lock:
            snapshot = tuple(self._queue)
        depths = {shard: 0 for shard in range(router.num_shards)}
        for pending in snapshot:
            depths[router.shard_of(pending.request.metadata_id)] += 1
        return depths

    # ---------------------------------------------------------------- planning

    def plan(self, limit: Optional[int] = None) -> BatchPlan:
        """Dequeue up to ``limit`` compatible writes and group them.

        The queue is scanned oldest-first; a write that conflicts with the
        batch under construction (overlapping columns with another peer on
        the same shared table, another operation kind, same row key already
        edited, or a full group) stays queued for the next batch — that
        deferral is exactly what serialises same-key writes.

        The scheduler's lock is held for the whole scan (callers already
        serialise ``plan`` against ``enqueue`` through the gateway's
        admission lock; this additionally keeps depth snapshots from racing
        the popleft/appendleft churn).
        """
        with self._lock:
            return self._plan_locked(limit)

    def _plan_locked(self, limit: Optional[int]) -> BatchPlan:
        limit = self.max_batch_size if limit is None else min(limit, self.max_batch_size)
        plan = BatchPlan()
        group_of_table: Dict[str, int] = {}
        states: List[_GroupState] = []
        claimed_keys = set()
        #: (peer, metadata_id) pairs with a write already deferred in this
        #: scan: later writes by that peer on that table must defer too, so a
        #: tenant's writes on one shared table commit in submission order.
        deferred_peer_tables = set()
        kept: List[PendingWrite] = []
        while self._queue and plan.size < limit:
            pending = self._queue.popleft()
            self._count_down(pending)
            metadata_id = pending.request.metadata_id
            edit = pending.to_edit()
            conflict = pending.conflict_key()
            columns = pending.column_set()
            if conflict is not None and conflict in claimed_keys:
                # Same-key write: strictly later batch, preserving order.
                plan.deferred += 1
                kept.append(pending)
                deferred_peer_tables.add((pending.peer, metadata_id))
                continue
            if (pending.peer, metadata_id) in deferred_peer_tables:
                # An earlier write by this peer on this table was deferred:
                # folding this one in would let it overtake on-chain.
                plan.deferred += 1
                kept.append(pending)
                if conflict is not None:
                    claimed_keys.add(conflict)
                continue
            index = group_of_table.get(metadata_id)
            if index is None:
                group_of_table[metadata_id] = len(plan.groups)
                plan.groups.append(BatchGroup(peer=pending.peer, metadata_id=metadata_id,
                                              edits=(edit,)))
                plan.members.append([pending])
                states.append(_GroupState(
                    operation=edit.op,
                    columns_by_peer={pending.peer: None if columns is None
                                     else set(columns)}))
            elif self._can_join(states[index], plan.groups[index], pending, edit, columns):
                group = plan.groups[index]
                state = states[index]
                cross_peer = pending.peer != group.peer
                plan.groups[index] = BatchGroup(
                    peer=group.peer, metadata_id=group.metadata_id,
                    edits=group.edits + (edit,),
                    edit_peers=group.edit_peers + (pending.peer,))
                plan.members[index].append(pending)
                existing = state.columns_by_peer.get(pending.peer)
                if columns is None:
                    state.columns_by_peer[pending.peer] = None
                elif existing is None and pending.peer in state.columns_by_peer:
                    pass  # already "whole row"
                else:
                    state.columns_by_peer.setdefault(pending.peer, set()).update(columns)
                if cross_peer:
                    plan.folded_writes += 1
                    self.folded_writes_total += 1
                    if pending.peer not in group.edit_peers:
                        # First write by this peer to ride another peer's
                        # group: its own batch (two rounds) is saved.
                        self.fold_rounds_saved += 2
            else:
                # Conflicting write: serialise to the next batch.  It still
                # claims its row key, so younger writes to the same key
                # cannot overtake it into this batch.
                plan.deferred += 1
                kept.append(pending)
                deferred_peer_tables.add((pending.peer, metadata_id))
                if conflict is not None:
                    claimed_keys.add(conflict)
                continue
            if conflict is not None:
                claimed_keys.add(conflict)
        # Deferred writes go back to the *front*, preserving arrival order.
        for pending in reversed(kept):
            self._queue.appendleft(pending)
            self._tenant_counts[pending.tenant] = (
                self._tenant_counts.get(pending.tenant, 0) + 1)
        return plan

    def _can_join(self, state: _GroupState, group: BatchGroup,
                  pending: PendingWrite, edit: EntryEdit,
                  columns: Optional[FrozenSet[str]]) -> bool:
        """Whether a write may join the batch group already claiming its table."""
        if len(group.edits) >= self.max_edits_per_group:
            return False
        if edit.op != state.operation:
            return False  # operations do not mix within a group
        cross_peer = pending.peer != group.peer or group.folded
        if pending.peer not in state.columns_by_peer:
            # A new contributor: only the cross-peer fold rule admits it.
            if not self.fold_cross_peer or edit.op != "update":
                return False
        if cross_peer or len(state.columns_by_peer) > 1:
            # Any group spanning peers needs pairwise-disjoint column sets:
            # creates/deletes (whole-row, columns None) never qualify.
            if columns is None:
                return False
            for peer, peer_columns in state.columns_by_peer.items():
                if peer == pending.peer:
                    continue
                if peer_columns is None or peer_columns & columns:
                    return False
        return True
