"""Cross-peer coordination of shared-data operations (Fig. 4 and Fig. 5).

The :class:`UpdateCoordinator` drives the paper's protocols end to end:

* the **CRUD procedure** of Fig. 4 — a user executes an operation locally,
  requests permission from the smart contract, sharing peers are notified,
  fetch the newest shared data, the metadata is updated, and every sharing
  peer runs its BX program to reflect the change into its complete data;
* the **11-step update workflow** of Fig. 5 — including step 6, where the
  peer that absorbed an update checks whether *other* shared pieces derived
  from the same base table changed and, if so, propagates to those peers too
  (the Researcher → Doctor → Patient cascade).

Every run produces a :class:`WorkflowTrace` whose steps mirror the numbered
steps of the figures, with simulated timestamps and block numbers, so the
benchmarks and the examples can print the exact choreography.

**One leg, three drivers.**  A *leg* carries one diff of one shared table
from its initiator to the counterpart.  It exists once, as stage methods over
a :class:`_Leg` record; each stage maps onto Fig. 5 (a cascaded leg repeats
steps 1–5 as steps 7–11):

* the entry points and ``_cascade`` — step 1: ``get`` / a local edit gives
  the view diff;
* ``_build_request`` — step 2: the signed permission request;
* ``_accept`` — step 2's verdict (``contract_request``): install the
  initiator's view; a direct edit is also ``put`` into the initiator's base;
* ``_middle`` — steps 3–5: ``notified``, ``fetch_data``, the counterpart's
  ``bx_put``; then the acknowledgement is built.  Ledger-free;
* ``_confirm`` — the metadata update (``acknowledge``) and step 6:
  ``check_dependencies`` → ``_cascade``, whose legs are steps 7–11.

Three drivers run the stages: ``_run_protocol`` (one leg, two mining rounds
of its own), :meth:`UpdateCoordinator.commit_entry_batch` (the gateway's
groups share one request round and one acknowledgement round) and
``_cascade_parallel`` (one cascade's legs share two rounds, their middles run
on executor threads).  Drivers may differ only in how transactions reach the
mempool (a single gossip, or local ingestion then one ``tx-batch`` flood), in
error policy (raise :class:`UpdateRejected` / :class:`WorkflowError`; record
the error on the group's trace, carry on and notify listeners without a diff;
or raise the first error after the ordered merge of buffered steps) and in
where the middle runs and where its steps go.  Those differences reach the
stages as data — a step-text suffix, a step sink — never as a mode a stage
branches on.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.crypto.hashing import hash_payload
from repro.errors import ReproError, UpdateRejected, WorkflowError
from repro.chaos import NULL_INJECTOR
from repro.obs.tracer import NULL_TRACER
from repro.relational.diff import TableDiff, diff_tables
from repro.relational.table import Table

#: Callback fired with the row-level view diff of the change (None when the
#: change is not describable as a diff, e.g. a failed half-installed commit):
#: ``(metadata_id, operation, peers, view_diff)``.
SharedDiffListener = Callable[[str, str, Tuple[str, str], Optional[TableDiff]], None]

#: Receives the steps a stage produces: ``(actor, action, description, **data)``.
StepSink = Callable[..., None]

#: Step-text suffix of the batched driver's shared request/ack rounds.
BATCHED_ROUND = " (batched round)"


@dataclass(frozen=True)
class WorkflowStep:
    """One numbered step of a workflow run."""

    index: int
    actor: str
    action: str
    description: str
    simulated_time: float
    block_number: Optional[int] = None
    data: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "actor": self.actor,
            "action": self.action,
            "description": self.description,
            "simulated_time": self.simulated_time,
            "block_number": self.block_number,
            "data": dict(self.data),
        }

    @staticmethod
    def from_dict(payload: dict) -> "WorkflowStep":
        return WorkflowStep(
            index=int(payload["index"]),
            actor=payload["actor"],
            action=payload["action"],
            description=payload["description"],
            simulated_time=float(payload["simulated_time"]),
            block_number=payload.get("block_number"),
            data=dict(payload.get("data", {})),
        )


@dataclass
class WorkflowTrace:
    """The full record of one shared-data operation and its propagation."""

    initiator: str
    metadata_id: str
    operation: str
    steps: List[WorkflowStep] = field(default_factory=list)
    succeeded: bool = False
    error: Optional[str] = None
    started_at: float = 0.0
    finished_at: float = 0.0
    blocks_created: int = 0
    cascaded_metadata_ids: List[str] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        """End-to-end simulated latency of the operation."""
        return self.finished_at - self.started_at

    @property
    def step_count(self) -> int:
        return len(self.steps)

    def add_step(self, actor: str, action: str, description: str, clock_now: float,
                 block_number: Optional[int] = None, **data: Any) -> WorkflowStep:
        step = WorkflowStep(
            index=len(self.steps) + 1,
            actor=actor,
            action=action,
            description=description,
            simulated_time=clock_now,
            block_number=block_number,
            data=dict(data),
        )
        self.steps.append(step)
        return step

    def to_dict(self) -> dict:
        return {
            "initiator": self.initiator,
            "metadata_id": self.metadata_id,
            "operation": self.operation,
            "steps": [step.to_dict() for step in self.steps],
            "succeeded": self.succeeded,
            "error": self.error,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "blocks_created": self.blocks_created,
            "cascaded_metadata_ids": list(self.cascaded_metadata_ids),
        }

    @staticmethod
    def from_dict(payload: dict) -> "WorkflowTrace":
        return WorkflowTrace(
            initiator=payload["initiator"],
            metadata_id=payload["metadata_id"],
            operation=payload["operation"],
            steps=[WorkflowStep.from_dict(step) for step in payload.get("steps", ())],
            succeeded=bool(payload.get("succeeded", False)),
            error=payload.get("error"),
            started_at=float(payload.get("started_at", 0.0)),
            finished_at=float(payload.get("finished_at", 0.0)),
            blocks_created=int(payload.get("blocks_created", 0)),
            cascaded_metadata_ids=list(payload.get("cascaded_metadata_ids", ())),
        )

    def pretty(self) -> str:
        """A plain-text rendering of the trace, step by step."""
        lines = [
            f"Workflow {self.operation!r} on {self.metadata_id!r} initiated by {self.initiator}",
            f"  succeeded={self.succeeded} elapsed={self.elapsed:.2f}s "
            f"blocks={self.blocks_created} steps={self.step_count}",
        ]
        for step in self.steps:
            block = f" [block #{step.block_number}]" if step.block_number is not None else ""
            lines.append(
                f"  {step.index:>2}. t={step.simulated_time:8.2f}s {step.actor:<12} "
                f"{step.action:<22} {step.description}{block}"
            )
        if self.error:
            lines.append(f"  ERROR: {self.error}")
        return "\n".join(lines)


@dataclass(frozen=True)
class EntryEdit:
    """One entry-level edit of a shared table, batchable with others.

    ``op`` is ``"update"``, ``"create"`` or ``"delete"``.  Updates and deletes
    identify their row by primary ``key``; updates and creates carry the new
    ``values``.
    """

    op: str
    key: Tuple[Any, ...] = ()
    values: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.op not in ("update", "create", "delete"):
            raise ValueError(f"unknown edit op {self.op!r}")
        object.__setattr__(self, "key", tuple(self.key))
        object.__setattr__(self, "values", dict(self.values))

    def to_dict(self) -> dict:
        return {"op": self.op, "key": list(self.key), "values": dict(self.values)}

    @staticmethod
    def from_dict(payload: dict) -> "EntryEdit":
        return EntryEdit(op=payload["op"], key=tuple(payload.get("key", ())),
                         values=dict(payload.get("values", {})))


@dataclass(frozen=True)
class BatchGroup:
    """A set of compatible edits on one shared table, folded into a single
    diff and a single on-chain request.

    Usually all edits come from ``peer``.  A *cross-peer folded* group also
    carries edits by the other party of the agreement on **disjoint**
    attribute sets and distinct rows — ``edit_peers`` records each edit's
    author, aligned with ``edits``; ``peer`` stays the requester who submits
    the merged diff on-chain (via ``request_folded_update``).
    """

    peer: str
    metadata_id: str
    edits: Tuple[EntryEdit, ...]
    #: Author of each edit, aligned with ``edits``; defaults to ``peer``.
    edit_peers: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "edits", tuple(self.edits))
        if not self.edits:
            raise ValueError("a batch group needs at least one edit")
        edit_peers = tuple(self.edit_peers) or (self.peer,) * len(self.edits)
        if len(edit_peers) != len(self.edits):
            raise ValueError("edit_peers must align with edits")
        object.__setattr__(self, "edit_peers", edit_peers)

    @property
    def contributors(self) -> Tuple[str, ...]:
        """Distinct edit authors, requester first, in first-edit order."""
        ordered = [self.peer]
        for peer in self.edit_peers:
            if peer not in ordered:
                ordered.append(peer)
        return tuple(ordered)

    @property
    def folded(self) -> bool:
        """True when edits from more than one peer were folded together."""
        return len(self.contributors) > 1

    @property
    def operation(self) -> str:
        """The contract operation the group maps to (homogeneous op, else update)."""
        ops = {edit.op for edit in self.edits}
        return self.edits[0].op if len(ops) == 1 else "update"


@dataclass
class BatchCommitResult:
    """Outcome of committing one batch of groups through shared consensus rounds.

    ``consensus_rounds`` counts the mining rounds the batch itself required
    (one for every request transaction together, one for every acknowledgement
    together); cascaded propagations mine their own rounds and account their
    blocks on the individual traces.
    """

    traces: List[WorkflowTrace] = field(default_factory=list)
    blocks_created: int = 0
    consensus_rounds: int = 0
    #: Per group (aligned with ``traces``), one entry per edit: None when the
    #: edit was folded into the group's diff, else why it was dropped.  An
    #: invalid edit is rejected alone — it never poisons its group mates.
    edit_errors: List[List[Optional[str]]] = field(default_factory=list)

    @property
    def accepted(self) -> int:
        return sum(1 for trace in self.traces if trace.succeeded)


@dataclass
class _Leg:
    """One Fig. 5 leg in flight: ``diff`` on ``metadata_id`` travelling from
    ``initiator`` to ``counterpart``.  The stages fill it in as it advances."""

    initiator: str
    counterpart: str
    metadata_id: str
    operation: str
    diff: TableDiff
    trace: WorkflowTrace
    #: Shared attributes the diff touches (what permission is checked on).
    changed: Tuple[str, ...]
    diff_hash: str
    #: Cascade depth of the protocol run this leg belongs to.
    depth: int = 0
    #: True for an edit of the shared table itself (Fig. 4), which the
    #: initiator must also ``put`` into its own base table; False when the
    #: diff came out of ``get`` (a propagation or a cascade leg).
    direct_edit: bool = False
    #: The edited snapshot full (non-delta) mode installs instead of the diff.
    candidate_view: Optional[Table] = None
    request_tx: Any = None
    update_id: Optional[int] = None
    #: Why the contract refused the request (set by ``_accept``).
    rejection: Optional[str] = None
    #: True once the initiator's stored shared table carries the change.
    installed: bool = False
    #: Base-table diff of the initiator's own ``put`` (direct edits only).
    initiator_source_diff: Optional[TableDiff] = None
    counterpart_diff: Optional[TableDiff] = None
    ack_tx: Any = None


class UpdateCoordinator:
    """Runs shared-data operations across the whole system."""

    def __init__(self, system: "MedicalDataSharingSystem"):  # noqa: F821 (forward ref)
        self.system = system
        self._diff_listeners: List[SharedDiffListener] = []
        #: When true, propagation legs push row-level diffs through lenses,
        #: indexes and caches instead of recomputing whole tables.
        self.delta_enabled = bool(getattr(system.config, "delta_propagation", True))
        #: When true and the ledger has more than one consensus lane, the
        #: legs of one cascade commit through *shared* request/ack rounds and
        #: their ledger-free middles run on executor threads grouped by lane
        #: (see :meth:`_cascade_parallel`).  Single-lane systems always take
        #: the sequential path, byte-identical to the seed.
        self.parallel_enabled = bool(getattr(system.config, "parallel_cascades", True))
        #: Set by :meth:`MedicalDataSharingSystem.attach_tracer`; spans cover
        #: consensus rounds and every delta-propagation leg.
        self.tracer = NULL_TRACER
        #: Chaos hooks, set by :meth:`MedicalDataSharingSystem.attach_chaos`:
        #: the injector can fail a whole batch (``commit.fail``), one group's
        #: contract step (``contract.fail``), or a mining round
        #: (``consensus.fail`` / ``consensus.slow``); the optional retrier
        #: re-runs failed mining rounds with deterministic backoff.
        self.injector = NULL_INJECTOR
        self.retrier = None

    # ------------------------------------------------------------ change hooks

    def subscribe_shared_diff(self, listener: SharedDiffListener) -> None:
        """Register a callback fired after every propagation of a
        shared-table change (including each cascaded Fig. 5 leg) with the
        row-level :class:`TableDiff` the shared table underwent — or None
        when the change cannot be described as a diff, e.g. a commit that
        failed after partially installing.

        The gateway's view cache uses this to *patch* cached views row by row
        instead of dropping them.
        """
        self._diff_listeners.append(listener)

    def _notify_change(self, leg: _Leg, view_diff: Optional[TableDiff] = None) -> None:
        for listener in self._diff_listeners:
            listener(leg.metadata_id, leg.operation,
                     (leg.initiator, leg.counterpart), view_diff)

    # --------------------------------------------------------------- utilities

    @property
    def _clock(self):
        return self.system.simulator.clock

    def _peer(self, name: str):
        return self.system.peer(name)

    def _app(self, name: str):
        return self.system.server_app(name)

    def _mine(self) -> int:
        """Mine pending transactions; returns how many blocks were produced.

        Fault probes run *before* the mining step, so a retried round never
        double-mines: an injected ``consensus.fail`` (a transient fault) is
        absorbed by the retrier when one is attached, and ``consensus.slow``
        stretches the round by advancing the sim clock.
        """
        def one_round() -> int:
            self.injector.maybe_fail("consensus.fail")
            slow = self.injector.delay("consensus.slow")
            if slow > 0:
                self._clock.advance(slow)
            return len(self.system.simulator.mine())

        if self.retrier is not None:
            return self.retrier.call(one_round, label="consensus.round")
        return one_round()

    def _mine_round(self, phase: str, submit: Callable[..., Any], *submission: Any,
                    **attrs: Any) -> int:
        """One consensus round: ``submit(*submission)`` hands the round's
        transactions to the network — the simulator's single gossip or its
        one ``tx-batch`` flood, the driver's choice — then everything pending
        is mined.  Returns the number of blocks produced."""
        with self.tracer.span("consensus.round", phase=phase, **attrs) as span:
            submit(*submission)
            blocks = self._mine()
            span.annotate(blocks=blocks)
        return blocks

    def _gossip_and_mine(self, app, tx) -> int:
        """Gossip one transaction from ``app``'s node and mine it in a round
        of its own; returns the number of blocks produced."""
        return self._mine_round("sequential", self.system.simulator.submit_transaction,
                                app.node.name, tx, method=tx.method)

    def _sink(self, trace: WorkflowTrace) -> StepSink:
        """A step sink that lands steps on ``trace`` at the current sim time."""
        def emit(actor: str, action: str, description: str, **data: Any) -> None:
            trace.add_step(actor, action, description, self._clock.now(), **data)
        return emit

    def _fold_contributions(self, group: BatchGroup, leg: _Leg,
                            edit_errors: Sequence[Optional[str]]) -> List[dict]:
        """Per-contributor ``{"peer": address, "changed_attributes": [...]}``
        entries of a cross-peer folded group.

        Each contributor's attributes are the columns its *applied* update
        edits declared, restricted to the columns the merged diff actually
        touched (a no-op edit contributes nothing, exactly as the diff-based
        attribute computation of the unfolded path).  The scheduler's fold
        rule guarantees the declared sets are disjoint between contributors.
        Contributors other than the requester sign an attestation over their
        attributes and the merged diff hash — the contract refuses a folded
        request whose foreign contributions are unattested, so the requester
        cannot write through another peer's permissions.
        """
        from repro.contracts.sharing_contract import fold_attestation_payload
        from repro.crypto.signatures import sign

        touched = set(leg.changed)
        columns_by_peer: Dict[str, List[str]] = {}
        for index, (edit, author) in enumerate(zip(group.edits, group.edit_peers)):
            if index < len(edit_errors) and edit_errors[index] is not None:
                continue
            collected = columns_by_peer.setdefault(author, [])
            for column in edit.values:
                if column in touched and column not in collected:
                    collected.append(column)
        contributions = []
        for peer_name, columns in columns_by_peer.items():
            if not columns:
                continue
            peer = self._peer(peer_name)
            contribution = {"peer": peer.address, "changed_attributes": columns}
            if peer_name != group.peer:
                payload = fold_attestation_payload(group.metadata_id, leg.diff_hash,
                                                   columns)
                contribution["public_key"] = hex(peer.keypair.public_key)
                contribution["attestation"] = sign(peer.keypair, payload).to_dict()
            contributions.append(contribution)
        return contributions

    # ------------------------------------------------------------ read (Fig. 4)

    def read_shared_data(self, peer_name: str, metadata_id: str) -> Table:
        """Read = query the local database directly (no blockchain involvement)."""
        return self._peer(peer_name).shared_table(metadata_id).snapshot()

    # -------------------------------------------------------- update entry-point

    def propagate_local_change(self, peer_name: str, metadata_id: str) -> WorkflowTrace:
        """Fig. 5, researcher-style: the peer already updated its *local base
        table* and now propagates the change through the shared view.

        Step 1 regenerates the shared view with ``get``; the remaining steps
        follow the contract/notification/put protocol.
        """
        trace = WorkflowTrace(initiator=peer_name, metadata_id=metadata_id, operation="update",
                              started_at=self._clock.now())
        app = self._app(peer_name)
        diff = app.manager.pending_view_diff(metadata_id)
        trace.add_step(peer_name, "bx_get",
                       f"regenerate shared view from local base table "
                       f"({len(diff)} row change(s))", self._clock.now(),
                       rows_changed=len(diff))
        self._finish(trace, diff)
        return trace

    def update_shared_entry(self, peer_name: str, metadata_id: str, key: Sequence[Any],
                            updates: Mapping[str, Any]) -> WorkflowTrace:
        """Fig. 4 entry-level update: the peer edits one row of the shared table.

        The change is validated locally, authorised on-chain, installed in the
        peer's stored shared table, reflected into the peer's own base table
        with ``put``, and propagated to the sharing peer.
        """
        return self._edit_shared_entry(
            peer_name, metadata_id, EntryEdit("update", key, updates),
            f"edit shared entry {tuple(key)!r}: {dict(updates)!r}")

    def create_shared_entry(self, peer_name: str, metadata_id: str,
                            values: Mapping[str, Any]) -> WorkflowTrace:
        """Fig. 4 entry-level create: add a row to the shared table."""
        return self._edit_shared_entry(
            peer_name, metadata_id, EntryEdit("create", values=values),
            f"create shared entry {dict(values)!r}")

    def delete_shared_entry(self, peer_name: str, metadata_id: str,
                            key: Sequence[Any]) -> WorkflowTrace:
        """Fig. 4 entry-level delete: remove a row from the shared table."""
        return self._edit_shared_entry(
            peer_name, metadata_id, EntryEdit("delete", key),
            f"delete shared entry {tuple(key)!r}")

    def _edit_shared_entry(self, peer_name: str, metadata_id: str, edit: EntryEdit,
                           description: str) -> WorkflowTrace:
        trace = WorkflowTrace(initiator=peer_name, metadata_id=metadata_id,
                              operation=edit.op, started_at=self._clock.now())
        stored = self._peer(peer_name).shared_table(metadata_id)
        diff, candidate = self._diff_of_edits(stored, (edit,))
        trace.add_step(peer_name, "local_edit", description, self._clock.now(),
                       rows_changed=len(diff))
        self._finish(trace, diff, direct_edit=True, candidate_view=candidate)
        return trace

    def _finish(self, trace: WorkflowTrace, diff: TableDiff, direct_edit: bool = False,
                candidate_view: Optional[Table] = None) -> None:
        """Run the protocol for a non-empty ``diff``, always stamping the trace
        end time; rejections carry the trace on the raised exception
        (``exc.trace``)."""
        if diff.is_empty:
            trace.succeeded = True
        else:
            leg = self._new_leg(trace.initiator, trace.metadata_id, trace.operation,
                                diff, trace, direct_edit=direct_edit,
                                candidate_view=candidate_view)
            try:
                self._run_protocol(leg)
            except UpdateRejected as exc:
                trace.finished_at = self._clock.now()
                exc.trace = trace  # type: ignore[attr-defined]
                raise
        trace.finished_at = self._clock.now()

    # ---------------------------------------------------------- edits → diff

    @staticmethod
    def _apply_edit(candidate: Table, edit: EntryEdit) -> None:
        if edit.op == "update":
            candidate.update_by_key(edit.key, edit.values)
        elif edit.op == "create":
            candidate.insert(edit.values)
        else:
            candidate.delete_by_key(edit.key)

    def _diff_of_edits(self, stored: Table, edits: Sequence[EntryEdit],
                       edit_errors: Optional[List[Optional[str]]] = None,
                       ) -> Tuple[TableDiff, Optional[Table]]:
        """The :class:`TableDiff` ``edits`` make on ``stored``, plus the edited
        snapshot full (non-delta) mode installs — None in delta mode.

        Without ``edit_errors`` an invalid edit raises.  With it (a batched
        group) each edit applies on its own: an invalid one (missing key,
        duplicate insert, constraint violation) is recorded at its index and
        rejected alone, and the group carries on with the rest.
        """
        if self.delta_enabled and edit_errors is None and len(edits) == 1:
            # O(changed rows): validate the edit and build its diff directly,
            # without snapshotting the whole shared table.
            (edit,) = edits
            if edit.op == "update":
                return stored.diff_for_update(edit.key, edit.values), None
            if edit.op == "create":
                return stored.diff_for_insert(edit.values), None
            return stored.diff_for_delete(edit.key), None
        candidate = stored.snapshot()
        for index, edit in enumerate(edits):
            try:
                self._apply_edit(candidate, edit)
            except ReproError as exc:
                if edit_errors is None:
                    raise
                edit_errors[index] = str(exc)
        diff = diff_tables(stored, candidate)
        # In delta mode the diff (not the materialised candidate) is installed,
        # so the remaining legs stay O(changed rows).
        return diff, None if self.delta_enabled else candidate

    # ------------------------------------------------------- permission admin

    def change_permission(self, peer_name: str, metadata_id: str, attribute: str,
                          new_writers: Sequence[str]) -> dict:
        """Have the authority peer change the writers of one attribute."""
        app = self._app(peer_name)
        tx = app.build_contract_call(
            "change_permission",
            {"metadata_id": metadata_id, "attribute": attribute,
             "new_writers": list(new_writers)})
        self._gossip_and_mine(app, tx)
        receipt = app.node.chain.receipt(tx.tx_hash)
        if not receipt.success:
            raise UpdateRejected(f"permission change rejected: {receipt.error}")
        return receipt.return_value

    # ------------------------------------------------- the leg (Fig. 5), once

    def _new_leg(self, initiator: str, metadata_id: str, operation: str,
                 diff: TableDiff, trace: WorkflowTrace, **leg_fields: Any) -> _Leg:
        """A fresh leg; ``leg_fields`` set ``depth`` / ``direct_edit`` /
        ``candidate_view`` where they differ from the defaults."""
        agreement = self._peer(initiator).agreement(metadata_id)
        shared = set(agreement.shared_columns)
        return _Leg(
            initiator=initiator, counterpart=agreement.counterparty_of(initiator),
            metadata_id=metadata_id, operation=operation, diff=diff, trace=trace,
            changed=tuple(c for c in diff.touched_columns if c in shared),
            diff_hash=hash_payload(diff.to_dict()), **leg_fields)

    def _build_request(self, leg: _Leg,
                       contributions: Optional[List[dict]] = None) -> None:
        """Step 2: build and sign the permission request.  ``contributions``
        (a cross-peer folded group) turns it into a folded request carrying
        every contributor's attested attributes."""
        if contributions is None:
            method = {"update": "request_update", "create": "request_create",
                      "delete": "request_delete"}[leg.operation]
            args = {"metadata_id": leg.metadata_id,
                    "changed_attributes": list(leg.changed),
                    "diff_hash": leg.diff_hash}
        else:
            method = "request_folded_update"
            args = {"metadata_id": leg.metadata_id, "contributions": contributions,
                    "diff_hash": leg.diff_hash}
        leg.request_tx = self._app(leg.initiator).build_contract_call(method, args)

    def _accept(self, leg: _Leg, suffix: str = "") -> bool:
        """Read the mined request's receipt.  Accepted: install the change on
        the initiator side (and, for a direct edit, ``put`` it into the
        initiator's own base table) and return True.  Refused: record why on
        the trace and the leg and return False."""
        trace = leg.trace
        app = self._app(leg.initiator)
        receipt = app.node.chain.receipt(leg.request_tx.tx_hash)
        trace.add_step(leg.initiator, "contract_request",
                       f"send {leg.operation} request for attributes "
                       f"{list(leg.changed)}{suffix}",
                       self._clock.now(), block_number=receipt.block_number,
                       success=receipt.success, error=receipt.error)
        if not receipt.success:
            trace.succeeded = False
            trace.error = receipt.error
            leg.rejection = (f"{leg.operation} on {leg.metadata_id!r} by "
                             f"{leg.initiator} rejected: {receipt.error}")
            return False
        leg.update_id = int(receipt.return_value["update_id"])
        self._install_initiator_view(leg)
        leg.installed = True
        app.outgoing_diffs[leg.metadata_id] = leg.diff
        if leg.direct_edit:
            leg.initiator_source_diff = self._put(app, leg, self._sink(trace))
        return True

    def _install_initiator_view(self, leg: _Leg) -> None:
        """Install the accepted change into the initiator's stored shared table.

        Delta mode patches only the changed rows; diffs computed in the
        ``get`` direction (propagations and cascade legs) additionally run
        the sampled full-``get`` verification.  Full mode keeps the seed
        behaviour (whole-table replace/refresh).
        """
        manager = self._app(leg.initiator).manager
        if leg.candidate_view is not None:
            manager.replace_shared_table(leg.metadata_id, leg.candidate_view)
        elif not self.delta_enabled:
            manager.refresh_shared_table(leg.metadata_id)
        elif leg.direct_edit:
            manager.apply_incoming_diff(leg.metadata_id, leg.diff)
        else:
            manager.refresh_shared_table_delta(leg.metadata_id, leg.diff)

    def _put(self, app, leg: _Leg, emit: StepSink) -> TableDiff:
        """Reflect the leg's view diff into ``app``'s base table (the ``put``
        direction): incrementally when enabled, else fully."""
        with self.tracer.span("delta.leg", peer=app.peer.name,
                              metadata_id=leg.metadata_id,
                              delta=self.delta_enabled) as span:
            if self.delta_enabled:
                source_diff = app.manager.reflect_shared_table_delta(leg.metadata_id,
                                                                     leg.diff)
            else:
                source_diff = app.manager.reflect_shared_table(leg.metadata_id)
            span.annotate(rows=len(source_diff))
        emit(app.peer.name, "bx_put",
             f"reflect shared-table change into local base table "
             f"({len(source_diff)} row change(s))", rows_changed=len(source_diff))
        return source_diff

    def _middle(self, leg: _Leg, emit: StepSink) -> None:
        """Steps 3–5 and the acknowledgement transaction.  Touches no ledger
        state and no trace — only the two peers' apps, ``leg`` and ``emit`` —
        so the parallel driver may run it on an executor thread."""
        app = self._app(leg.initiator)
        counterpart_app = self._app(leg.counterpart)
        metadata_id, update_id = leg.metadata_id, leg.update_id

        # Step 3: the sharing peer is notified through the contract event.
        notifications = counterpart_app.pop_notifications(metadata_id)
        if not any(n.update_id == update_id for n in notifications):
            raise WorkflowError(
                f"peer {leg.counterpart!r} did not receive the contract notification "
                f"for update {update_id} on {metadata_id!r}"
            )
        emit(leg.counterpart, "notified",
             f"received contract notification (update #{update_id})",
             update_id=update_id)

        # Step 4: the sharing peer fetches the newest shared data over the channel.
        counterpart_app.request_shared_data(metadata_id, leg.initiator,
                                            since_update=update_id)
        transfer = app.serve_shared_data(metadata_id, leg.counterpart, mode="diff")
        counterpart_app.receive_shared_data(metadata_id, transfer)
        emit(leg.counterpart, "fetch_data",
             f"fetched updated shared data ({transfer.kind}, "
             f"{transfer.size_bytes} bytes)",
             transfer_kind=transfer.kind, bytes=transfer.size_bytes)

        # Step 5: the sharing peer reflects the change into its complete data (put).
        leg.counterpart_diff = self._put(counterpart_app, leg, emit)

        # Metadata update / acknowledgement: the sharing peer confirms it holds
        # the newest shared data, unblocking further operations on this table.
        leg.ack_tx = counterpart_app.build_contract_call(
            "acknowledge_update", {"metadata_id": metadata_id, "update_id": update_id})

    def _confirm(self, leg: _Leg, suffix: str = "") -> None:
        """Read the mined acknowledgement's receipt, then run step 6: both the
        peer that absorbed the update (the counterpart) and — when it
        reflected a direct edit into its own base table — the initiator check
        whether other shared pieces derived from the same base table changed,
        and re-share them (steps 7–11)."""
        trace = leg.trace
        ack_receipt = self._app(leg.counterpart).node.chain.receipt(leg.ack_tx.tx_hash)
        trace.add_step(leg.counterpart, "acknowledge",
                       f"acknowledged the update on the smart contract{suffix}",
                       self._clock.now(), block_number=ack_receipt.block_number,
                       success=ack_receipt.success)
        if not ack_receipt.success:
            raise WorkflowError(
                f"acknowledgement by {leg.counterpart!r} failed: {ack_receipt.error}"
            )
        self._cascade(leg.counterpart, leg.metadata_id, trace, leg.depth,
                      source_diff=leg.counterpart_diff)
        if leg.initiator_source_diff is not None:
            self._cascade(leg.initiator, leg.metadata_id, trace, leg.depth,
                          source_diff=leg.initiator_source_diff)
        trace.succeeded = True

    # ------------------------------------------------- driver 1: sequential

    def _run_protocol(self, leg: _Leg) -> None:
        """Steps 2..11 of Fig. 5 for one leg, each of its two transactions
        gossiped alone and mined in a round of its own.  A refused request
        raises :class:`UpdateRejected`, any later failure
        :class:`WorkflowError`."""
        trace = leg.trace
        self._build_request(leg)
        trace.blocks_created += self._gossip_and_mine(self._app(leg.initiator),
                                                      leg.request_tx)
        if not self._accept(leg):
            raise UpdateRejected(leg.rejection)
        self._middle(leg, self._sink(trace))
        trace.blocks_created += self._gossip_and_mine(self._app(leg.counterpart),
                                                      leg.ack_tx)
        self._confirm(leg)
        self._notify_change(leg, leg.diff)

    # ---------------------------------------------- driver 2: batched commit

    def commit_entry_batch(self, groups: Sequence[BatchGroup]) -> BatchCommitResult:
        """Commit many groups through *shared* consensus rounds (the gateway's
        batched ledger commit).

        All groups' request transactions are submitted together and mined in
        one round, and all acknowledgements are mined in a second round — so a
        batch of N compatible groups costs two rounds instead of 2·N.  Groups
        must target distinct shared tables (the contract serialises operations
        per metadata entry through its pending-acknowledgement rule); the
        write scheduler guarantees this.

        A rejected or failed group never aborts the batch: its trace carries
        ``succeeded=False`` and the error, mirroring what the sequential path
        raises.
        """
        self.injector.maybe_fail("commit.fail")
        seen_ids = set()
        for group in groups:
            if group.metadata_id in seen_ids:
                raise WorkflowError(
                    f"batch contains two groups on shared table {group.metadata_id!r}; "
                    "same-table groups must be committed in separate batches"
                )
            seen_ids.add(group.metadata_id)

        result = BatchCommitResult()

        # Phase A: validate every group locally and build every request
        # transaction, then mine them all in one consensus round.  Requests
        # are gossiped as one batch (a single tx-batch flood) after each has
        # been ingested at its own peer's node for nonce accounting.
        prepared: List[_Leg] = []
        request_submissions: List[Tuple[str, Any]] = []
        for group in groups:
            trace = WorkflowTrace(initiator=group.peer, metadata_id=group.metadata_id,
                                  operation=group.operation, started_at=self._clock.now())
            result.traces.append(trace)
            edit_errors: List[Optional[str]] = [None] * len(group.edits)
            result.edit_errors.append(edit_errors)
            try:
                self.injector.maybe_fail("contract.fail", group.metadata_id)
                stored = self._peer(group.peer).shared_table(group.metadata_id)
                diff, candidate = self._diff_of_edits(stored, group.edits, edit_errors)
            except ReproError as exc:
                trace.error = str(exc)
                trace.finished_at = self._clock.now()
                continue
            applied = edit_errors.count(None)
            trace.add_step(group.peer, "local_edit",
                           f"batch of {len(group.edits)} edit(s) on shared table "
                           f"({applied} applied)", self._clock.now(),
                           rows_changed=len(diff), edits=len(group.edits),
                           edits_applied=applied)
            if applied == 0:
                trace.error = next(error for error in edit_errors if error)
            elif diff.is_empty:
                trace.succeeded = True
            else:
                leg = self._new_leg(group.peer, group.metadata_id, group.operation,
                                    diff, trace, direct_edit=True,
                                    candidate_view=candidate)
                self._build_request(
                    leg, self._fold_contributions(group, leg, edit_errors)
                    if group.folded else None)
                # Ingest at the submitting peer's own node right away so a
                # peer initiating several groups keeps its nonces sequential.
                node = self._app(group.peer).node
                if node.receive_transaction(leg.request_tx):
                    request_submissions.append((node.name, leg.request_tx))
                    prepared.append(leg)
                    continue
                trace.error = f"request transaction rejected by {node.name!r}'s mempool"
            # Every group that does not ride the request round ends here.
            trace.finished_at = self._clock.now()
        if not prepared:
            return result
        result.blocks_created += self._mine_round(
            "requests", self.system.simulator.submit_transaction_batch,
            request_submissions, groups=len(prepared))
        result.consensus_rounds += 1

        # Phase B: install accepted groups on both sides and build every
        # acknowledgement (gossiped as one batch, like the requests), then
        # mine them all in a second shared round.
        acknowledged: List[_Leg] = []
        ack_submissions: List[Tuple[str, Any]] = []
        for leg in prepared:
            trace = leg.trace
            try:
                if not self._accept(leg, suffix=BATCHED_ROUND):
                    trace.finished_at = self._clock.now()
                    continue
                self._middle(leg, self._sink(trace))
                counterpart_node = self._app(leg.counterpart).node
                counterpart_node.receive_transaction(leg.ack_tx)
                ack_submissions.append((counterpart_node.name, leg.ack_tx))
            except ReproError as exc:
                trace.error = str(exc)
                trace.finished_at = self._clock.now()
                if leg.installed:
                    # The initiator's shared table was already replaced, so
                    # cached views of it are stale even though the protocol
                    # did not complete — listeners must still be told.  No
                    # diff is passed: a half-installed change is not safely
                    # describable as one, so caches drop the views instead.
                    self._notify_change(leg)
                continue
            acknowledged.append(leg)
        if not acknowledged:
            return result
        result.blocks_created += self._mine_round(
            "acks", self.system.simulator.submit_transaction_batch,
            ack_submissions, groups=len(acknowledged))
        result.consensus_rounds += 1

        # Phase C: confirm acknowledgements, run the Fig. 5 step-6 cascades
        # (each cascade mines its own rounds) and fire the change listeners.
        for leg in acknowledged:
            trace = leg.trace
            try:
                self._confirm(leg, suffix=BATCHED_ROUND)
            except ReproError as exc:
                trace.error = str(exc)
            finally:
                trace.finished_at = self._clock.now()
                # The group's data was installed on both sides in Phase B,
                # whatever happened to its cascade: listeners always fire.
                # The diff travels along only for fully-successful groups so
                # caches can patch rather than drop.
                self._notify_change(leg, leg.diff if trace.succeeded else None)
        return result

    # ------------------------------------------------------ step 6: cascades

    def _cascade(self, peer_name: str, metadata_id: str, trace: WorkflowTrace,
                 depth: int, source_diff: Optional[TableDiff] = None) -> None:
        """Check dependent shared views of ``peer_name`` and propagate changes.

        When the base-table diff of the triggering ``put`` is known and delta
        propagation is on, each dependent lens translates that diff forward
        (O(changed rows)) instead of re-running its full ``get``.

        With more than one consensus lane and more than one affected
        dependent, the legs commit through the batched parallel path
        (:meth:`_cascade_parallel`); single-lane systems always take the
        sequential loop below, byte-identical to the seed behaviour.
        """
        app = self._app(peer_name)
        if self.delta_enabled and source_diff is not None:
            dependents = app.manager.changed_dependents_delta(metadata_id, source_diff)
        else:
            dependents = app.manager.changed_dependents(metadata_id)
        trace.add_step(peer_name, "check_dependencies",
                       f"{len(dependents)} dependent shared table(s) affected",
                       self._clock.now(), dependents=sorted(dependents))
        if dependents and depth >= 8:
            raise WorkflowError("propagation cascade exceeded the supported depth")
        legs = [self._new_leg(peer_name, dependent_id, "update", dependent_diff,
                              trace, depth=depth + 1)
                for dependent_id, dependent_diff in sorted(dependents.items())]
        if (self.parallel_enabled and self.system.simulator.router.num_shards > 1
                and len(legs) > 1):
            self._cascade_parallel(legs)
            return
        for leg in legs:
            self._announce_cascade_leg(leg)
            with self._cascade_leg_span(leg) as span:
                try:
                    self._run_protocol(leg)
                    app.manager.clear_view_unhealed(leg.metadata_id)
                except UpdateRejected:
                    self._cascade_leg_rejected(span, leg)

    def _announce_cascade_leg(self, leg: _Leg) -> None:
        leg.trace.cascaded_metadata_ids.append(leg.metadata_id)
        leg.trace.add_step(leg.initiator, "bx_get",
                           f"regenerate dependent shared view {leg.metadata_id!r} "
                           f"({len(leg.diff)} row change(s))", self._clock.now(),
                           rows_changed=len(leg.diff))

    def _cascade_leg_span(self, leg: _Leg):
        return self.tracer.span(
            "cascade.leg", peer=leg.initiator, metadata_id=leg.metadata_id,
            depth=leg.depth - 1,
            lane=self.system.simulator.router.shard_of(leg.metadata_id),
            rows=len(leg.diff))

    def _cascade_leg_rejected(self, span, leg: _Leg) -> None:
        """A rejected cascade leg does not undo the already-accepted primary
        update; the peer simply keeps its other shared piece unchanged and
        the trace records the refusal.  The dependent view now lags its base
        table, so the delta dependency check must diff it exactly until a leg
        goes through again."""
        self._app(leg.initiator).manager.mark_view_unhealed(leg.metadata_id)
        span.annotate(rejected=True)
        leg.trace.add_step(leg.initiator, "cascade_rejected", leg.rejection,
                           self._clock.now())

    # --------------------------------------------- driver 3: parallel cascade

    def _cascade_parallel(self, legs: Sequence[_Leg]) -> None:
        """Propagate one peer's cascade legs through *shared* consensus rounds,
        running different-lane counterpart work on executor threads.

        The sequential loop above costs two mining rounds per leg; here every
        leg's request transaction mines in one shared round and every
        acknowledgement in a second (the :meth:`commit_entry_batch` shape),
        and the ledger-free middle of each leg — notification, data transfer,
        counterpart ``put`` — runs concurrently, one executor task per
        consensus lane.  Legs sharing a counterpart peer coalesce into one
        task: a peer's database manager is single-threaded by design.

        All cross-leg mutable state — the trace, view installs, receipts,
        nested cascades, change listeners — is touched only in the serial
        phases, in sorted leg order; worker threads buffer their trace steps
        for a deterministic ordered merge.  Simulated-clock advances are
        additive and commutative, so resulting table states and fingerprints
        are byte-identical to the sequential path.  A rejected leg leaves
        exactly the sequential bookkeeping (failed trace fields, an
        unhealed-view mark, a ``cascade_rejected`` step) without aborting the
        batch.
        """
        peer_name, trace, depth = legs[0].initiator, legs[0].trace, legs[0].depth - 1
        app = self._app(peer_name)
        router = self.system.simulator.router

        # Phase A (serial, sorted): record each leg, build + locally ingest
        # its request transaction (keeping the initiator's nonces sequential)
        # and pre-resolve the pairwise data channel — registry creation is
        # not thread-safe, transfers on existing channels are.  Then one
        # shared consensus round mines every request.
        request_submissions: List[Tuple[str, Any]] = []
        for leg in legs:
            self._announce_cascade_leg(leg)
            app.channel_to(leg.counterpart)
            self._build_request(leg)
            if not app.node.receive_transaction(leg.request_tx):
                raise WorkflowError(
                    f"cascade request for {leg.metadata_id!r} rejected by "
                    f"{app.node.name!r}'s mempool"
                )
            request_submissions.append((app.node.name, leg.request_tx))
        trace.blocks_created += self._mine_round(
            "cascade_requests", self.system.simulator.submit_transaction_batch,
            request_submissions, legs=len(legs), depth=depth)

        # Phase B (serial, sorted): read each receipt; install accepted legs
        # on the initiator side, leave rejected ones with the sequential
        # path's bookkeeping.
        active: List[_Leg] = []
        for leg in legs:
            if self._accept(leg):
                active.append(leg)
                continue
            with self._cascade_leg_span(leg) as span:
                self._cascade_leg_rejected(span, leg)
        if not active:
            return

        # Phase B2 (concurrent): the ledger-free middle of each accepted leg,
        # its steps buffered per leg.  Only a leg whose middle ran to the end
        # hands its buffer over.
        buffered: Dict[str, List[Tuple[tuple, dict]]] = {}

        def run_legs(group: Sequence[_Leg]) -> None:
            for leg in group:
                steps: List[Tuple[tuple, dict]] = []
                with self._cascade_leg_span(leg):
                    self._middle(leg, lambda *step, **data: steps.append((step, data)))
                    self._app(leg.counterpart).node.receive_transaction(leg.ack_tx)
                buffered[leg.metadata_id] = steps

        groups: Dict[Any, List[_Leg]] = {}
        group_of_counterpart: Dict[str, Any] = {}
        for leg in active:
            key = group_of_counterpart.setdefault(
                leg.counterpart, ("lane", router.shard_of(leg.metadata_id)))
            groups.setdefault(key, []).append(leg)
        errors: List[BaseException] = []
        if len(groups) == 1:
            try:
                run_legs(active)
            except Exception as exc:  # noqa: BLE001 — re-raised after the merge
                errors.append(exc)
        else:
            with ThreadPoolExecutor(max_workers=len(groups)) as pool:
                futures = [pool.submit(run_legs, group)
                           for group in groups.values()]
                for future in futures:
                    exc = future.exception()
                    if exc is not None:
                        errors.append(exc)
        # The ordered merge: buffered steps land on the trace in sorted leg
        # order, stamped at the post-barrier simulated time.
        merged_at = self._clock.now()
        for leg in active:
            for step, data in buffered.get(leg.metadata_id, ()):
                trace.add_step(*step, merged_at, **data)
        if errors:
            raise errors[0]

        # Phase B3 (serial): one shared consensus round for every
        # acknowledgement.
        trace.blocks_created += self._mine_round(
            "cascade_acks", self.system.simulator.submit_transaction_batch,
            [(self._app(leg.counterpart).node.name, leg.ack_tx) for leg in active],
            legs=len(active), depth=depth)

        # Phase C (serial, sorted): confirm acknowledgements, recurse into
        # each counterpart's own cascade (which may batch again), fire the
        # change listeners and heal the view bookkeeping.
        for leg in active:
            self._confirm(leg)
            self._notify_change(leg, leg.diff)
            app.manager.clear_view_unhealed(leg.metadata_id)
