"""The database manager: runs BX programs for one peer (Fig. 2).

The manager is the component that "disposes of the synchronization between
shared data and local data according to consistency logic relations ...
implemented by executing BX programs".  Concretely it can:

* **refresh** a shared table from the local base table (``get`` direction,
  e.g. step 1 / step 7 of Fig. 5);
* **reflect** an updated shared table into the local base table (``put``
  direction, e.g. step 5 / step 11 of Fig. 5);
* compute the **diff** a refresh would cause, so the workflow knows whether a
  dependent view actually changed (step 6);
* check the PutGet law on the concrete data before installing an
  updated source, failing loudly instead of silently corrupting local data.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.bx.laws import check_put_get
from repro.bx.registry import BXProgram
from repro.errors import (
    BXError,
    ConstraintViolation,
    DeltaUnsupported,
    RelationalError,
    SynchronizationError,
)
from repro.core.peer import Peer
from repro.relational.diff import TableDiff, apply_diff, diff_tables
from repro.relational.table import Table


class DatabaseManager:
    """Executes the BX programs of one peer.

    ``delta_verify_interval`` controls the sampled correctness oracle of the
    incremental path: every Nth delta application (the first one included)
    is checked against a full recomputation via ``Table.fingerprint()``; a
    mismatch raises :class:`~repro.errors.SynchronizationError`.  ``0``
    disables the check.
    """

    def __init__(self, peer: Peer, delta_verify_interval: int = 16):
        self.peer = peer
        self.delta_verify_interval = delta_verify_interval
        self._get_invocations = 0
        self._put_invocations = 0
        self._delta_get_invocations = 0
        self._delta_put_invocations = 0
        self._delta_fallbacks = 0
        self._delta_verifications = 0
        self._delta_ops = 0
        #: Dependent views whose last cascade leg was rejected: their stored
        #: copy drifted from the base table, so the next dependency check must
        #: use the exact stored-vs-fresh diff instead of a forward translation
        #: (which only carries the *new* change and would never heal them).
        self._unhealed_views: set = set()

    # ----------------------------------------------------------------- metrics

    @property
    def statistics(self) -> Dict[str, int]:
        return {
            "get_invocations": self._get_invocations,
            "put_invocations": self._put_invocations,
            "delta_get_invocations": self._delta_get_invocations,
            "delta_put_invocations": self._delta_put_invocations,
            "delta_fallbacks": self._delta_fallbacks,
            "delta_verifications": self._delta_verifications,
        }

    def _delta_verify_due(self) -> bool:
        """Sampled-verification schedule: the first delta application and then
        every ``delta_verify_interval``-th one."""
        due = (self.delta_verify_interval > 0
               and self._delta_ops % self.delta_verify_interval == 0)
        self._delta_ops += 1
        return due

    # ----------------------------------------------------------- get direction

    def derive_view(self, metadata_id: str) -> Table:
        """Run ``get`` and return the freshly derived view (without storing it)."""
        program = self.peer.bx_program(metadata_id)
        source = self.peer.database.table(program.source_table)
        self._get_invocations += 1
        return program.get(source)

    def pending_view_diff(self, metadata_id: str) -> TableDiff:
        """Diff between the stored shared table and a fresh ``get`` of the source.

        An empty diff means the stored shared piece is already consistent with
        the local base table (nothing to propagate).
        """
        agreement = self.peer.agreement(metadata_id)
        stored = self.peer.database.table(agreement.view_name_for(self.peer.name))
        fresh = self.derive_view(metadata_id)
        return diff_tables(stored, fresh)

    def refresh_shared_table(self, metadata_id: str) -> TableDiff:
        """Regenerate the stored shared table from the local base table (``get``).

        Returns the diff that was applied to the stored copy.
        """
        agreement = self.peer.agreement(metadata_id)
        view_name = agreement.view_name_for(self.peer.name)
        stored = self.peer.database.table(view_name)
        fresh = self.derive_view(metadata_id)
        diff = diff_tables(stored, fresh)
        if not diff.is_empty:
            self.peer.database.replace_table(view_name, (row.to_dict() for row in fresh))
        return diff

    # ----------------------------------------------------------- put direction

    def apply_incoming_diff(self, metadata_id: str, diff: TableDiff) -> None:
        """Apply a diff received from the sharing peer to the stored shared table."""
        agreement = self.peer.agreement(metadata_id)
        view_name = agreement.view_name_for(self.peer.name)
        table = self.peer.database.table(view_name)
        apply_diff(table, diff)
        self.peer.database.wal.append(
            "apply_diff", view_name,
            {"changes": len(diff.changes), **diff.summary(),
             "diff": diff.to_dict(), "reason": "incoming_diff"})

    def replace_shared_table(self, metadata_id: str, snapshot: Table) -> None:
        """Replace the stored shared table with a full snapshot from the peer."""
        agreement = self.peer.agreement(metadata_id)
        view_name = agreement.view_name_for(self.peer.name)
        self.peer.database.replace_table(view_name, (row.to_dict() for row in snapshot))

    def reflect_shared_table(self, metadata_id: str) -> TableDiff:
        """Run ``put``: embed the stored shared table back into the local base table.

        Returns the diff applied to the base table.  PutGet is verified on
        the concrete data before the new source is installed; a violation
        raises :class:`SynchronizationError` and the local base table is left
        untouched.
        """
        program = self.peer.bx_program(metadata_id)
        agreement = self.peer.agreement(metadata_id)
        view_name = agreement.view_name_for(self.peer.name)
        source = self.peer.database.table(program.source_table)
        view = self.peer.database.table(view_name)
        self._put_invocations += 1
        try:
            new_source = program.put(source, view)
        except (BXError, ConstraintViolation) as exc:
            raise SynchronizationError(
                f"cannot reflect shared table {view_name!r} into {program.source_table!r}: {exc}"
            ) from exc
        if not check_put_get(program.lens, source, view.snapshot()):
            raise SynchronizationError(
                f"PutGet law violated while reflecting {view_name!r} into "
                f"{program.source_table!r}; refusing to install an inconsistent source"
            )
        diff = diff_tables(source, new_source)
        if not diff.is_empty:
            self.peer.database.replace_table(program.source_table,
                                             (row.to_dict() for row in new_source))
        return diff

    # ------------------------------------------------------------- delta paths

    def reflect_shared_table_delta(self, metadata_id: str, view_diff: TableDiff) -> TableDiff:
        """Incremental ``put``: translate the shared table's row-level diff
        into the base table's diff and apply only those rows.

        Falls back to :meth:`reflect_shared_table` when the lens cannot
        translate the diff (:class:`~repro.errors.DeltaUnsupported`).  On the
        sampled verification schedule the delta result is checked against the
        PutGet law on a staged copy *before* the live base table is touched.
        """
        program = self.peer.bx_program(metadata_id)
        agreement = self.peer.agreement(metadata_id)
        view_name = agreement.view_name_for(self.peer.name)
        source = self.peer.database.table(program.source_table)
        if view_diff.is_empty:
            return TableDiff(table_name=program.source_table, changes=())
        if metadata_id in self._unhealed_views:
            # The stored view missed a propagation; only the full put (which
            # embeds the whole view, the seed semantics) reconverges it.
            self._delta_fallbacks += 1
            result = self.reflect_shared_table(metadata_id)
            self.clear_view_unhealed(metadata_id)
            return result
        try:
            source_diff = program.lens.put_delta(source.schema, view_diff)
        except DeltaUnsupported:
            self._delta_fallbacks += 1
            return self.reflect_shared_table(metadata_id)
        self._delta_put_invocations += 1
        # A projection's put_delta only carries the projected columns; filling
        # the hidden ones from the live source (O(changed rows)) makes the
        # diff self-contained for the step-6 dependent translations.
        from repro.bx.delta import complete_images
        source_diff = complete_images(source, source_diff)
        try:
            if self._delta_verify_due():
                self._verify_put_delta(program, source, source_diff, view_name)
            if not source_diff.is_empty:
                self.peer.database.apply_table_diff(program.source_table, source_diff)
        except (BXError, RelationalError) as exc:
            raise SynchronizationError(
                f"cannot reflect shared table {view_name!r} into "
                f"{program.source_table!r} incrementally: {exc}"
            ) from exc
        return source_diff

    def _verify_put_delta(self, program: BXProgram, source: Table,
                          source_diff: TableDiff, view_name: str) -> None:
        """Full-recompute oracle for the put direction: applying the delta to
        a staged copy must regenerate exactly the stored shared table."""
        self._delta_verifications += 1
        staged = source.snapshot()
        staged.apply_diff(source_diff)
        regenerated = program.get(staged)
        stored_view = self.peer.database.table(view_name)
        if regenerated.fingerprint() != stored_view.fingerprint():
            raise SynchronizationError(
                f"delta put for {view_name!r} diverged from the full recompute "
                f"(PutGet violated on the delta path); refusing to install"
            )

    def refresh_shared_table_delta(self, metadata_id: str, view_diff: TableDiff) -> TableDiff:
        """Incremental ``get``: install an already-translated view diff into
        the stored shared table, touching only the changed rows.

        The caller obtained ``view_diff`` from the lens's ``get_delta`` (see
        :meth:`changed_dependents_delta`); on the sampled verification
        schedule the patched view is compared against a full ``get`` of the
        source via ``Table.fingerprint()``.
        """
        agreement = self.peer.agreement(metadata_id)
        view_name = agreement.view_name_for(self.peer.name)
        if view_diff.is_empty:
            return view_diff
        self._delta_get_invocations += 1
        try:
            self.peer.database.apply_table_diff(view_name, view_diff)
        except RelationalError as exc:
            raise SynchronizationError(
                f"cannot patch shared table {view_name!r} incrementally: {exc}"
            ) from exc
        if self._delta_verify_due():
            self._delta_verifications += 1
            regenerated = self.derive_view(metadata_id)
            stored_view = self.peer.database.table(view_name)
            if regenerated.fingerprint() != stored_view.fingerprint():
                # Repair the stored view from the full recompute before
                # failing loudly, so the divergence does not persist.
                self.refresh_shared_table(metadata_id)
                raise SynchronizationError(
                    f"delta get for {view_name!r} diverged from the full recompute; "
                    "the stored shared table was repaired from the base table"
                )
        return view_diff

    @property
    def unhealed_views(self) -> frozenset:
        """Metadata ids whose stored views missed a propagation (a rejected
        cascade leg) and still await exact-diff healing."""
        return frozenset(self._unhealed_views)

    def mark_view_unhealed(self, metadata_id: str) -> None:
        """Record that ``metadata_id``'s stored view missed a propagation (a
        rejected cascade leg): dependency checks must diff it exactly until a
        leg succeeds again."""
        self._unhealed_views.add(metadata_id)

    def clear_view_unhealed(self, metadata_id: str) -> None:
        """The stored view was successfully re-synchronised."""
        self._unhealed_views.discard(metadata_id)

    def changed_dependents_delta(self, metadata_id: str,
                                 source_diff: TableDiff) -> Dict[str, TableDiff]:
        """Delta form of :meth:`changed_dependents`: translate the base-table
        diff through each dependent lens instead of re-running its ``get``.

        Falls back to :meth:`pending_view_diff` per dependent when a lens
        cannot translate the diff, and for views a rejected cascade leg left
        behind (:meth:`mark_view_unhealed`) — the forward translation only
        carries the *new* change, so exact diffing is required to heal them.
        """
        if source_diff.is_empty:
            return {}
        changed: Dict[str, TableDiff] = {}
        for other in self.dependent_agreements(metadata_id):
            program = self.peer.bx_program(other)
            source = self.peer.database.table(program.source_table)
            if other in self._unhealed_views:
                view_diff = self.pending_view_diff(other)
                if view_diff.is_empty:
                    # Consistent again (the drift cancelled out); stop diffing.
                    self.clear_view_unhealed(other)
            else:
                try:
                    view_diff = program.lens.get_delta(source.schema, source_diff)
                    self._delta_get_invocations += 1
                except DeltaUnsupported:
                    self._delta_fallbacks += 1
                    view_diff = self.pending_view_diff(other)
            if not view_diff.is_empty:
                changed[other] = view_diff
        return changed

    # ----------------------------------------------------------- dependencies

    def dependent_agreements(self, metadata_id: str) -> Tuple[str, ...]:
        """Other agreements of this peer that derive from the same base table.

        These are the candidates for step 6 of Fig. 5: after reflecting an
        update into the base table, the peer must check whether these other
        shared pieces changed and need re-sharing.
        """
        program = self.peer.bx_program(metadata_id)
        return tuple(
            other for other in self.peer.agreements_sharing_source(program.source_table)
            if other != metadata_id
        )

    def changed_dependents(self, metadata_id: str) -> Dict[str, TableDiff]:
        """The subset of dependent agreements whose shared table would change,
        with the diff each would undergo."""
        changed: Dict[str, TableDiff] = {}
        for other in self.dependent_agreements(metadata_id):
            diff = self.pending_view_diff(other)
            if not diff.is_empty:
                changed[other] = diff
        return changed
