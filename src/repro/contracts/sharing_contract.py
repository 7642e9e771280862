"""The metadata-collection contract of Fig. 3 and the request protocol of Fig. 4.

One deployed :class:`SharedDataContract` manages many *metadata entries*, one
per shared table pair (``D13 & D31``, ``D23 & D32``, ...).  Each entry stores:

* the sharing peers (address → role),
* per-attribute write permission (attribute → set of roles),
* the last update time,
* the role with authority to change permission,
* the agreed view structure (a serialised :class:`~repro.bx.dsl.ViewSpec`),
* the update history and pending acknowledgements.

The contract enforces the paper's rules:

* only sharing peers may operate on the shared data (Fig. 4 step 2/3);
* an update touching an attribute the caller may not write reverts;
* only the authority role may change write permissions;
* after an accepted update, *all other sharing peers must acknowledge* that
  they fetched the newest data before any further update on the same entry is
  accepted (§III-B: "only when all sharing peers have had the newest shared
  data can they execute further operations").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.contracts.base import Contract
from repro.contracts.storage import StorageRecord
from repro.crypto.keys import address_from_public_key
from repro.crypto.signatures import Signature, verify


def fold_attestation_payload(metadata_id: str, diff_hash: str,
                             changed_attributes: Sequence[str]) -> dict:
    """The payload a folded-update contributor signs.

    Binding the attributes *and* the merged diff hash means a requester can
    neither attribute foreign attributes to a peer nor reuse a peer's
    attestation for a different change.
    """
    return {
        "metadata_id": str(metadata_id),
        "diff_hash": str(diff_hash),
        "changed_attributes": [str(attribute) for attribute in changed_attributes],
    }


@dataclass
class UpdateRecord(StorageRecord):
    """One accepted operation on a shared table (kept on-chain for audit).

    ``contributions`` is non-empty only for *folded* updates: several sharing
    peers' edits on disjoint attribute sets committed as one operation.  Each
    entry is ``{"peer": address, "changed_attributes": [...]}`` — the audit
    trail and the specification checker verify permissions per contributor,
    not against the requester alone.
    """

    update_id: int
    metadata_id: str
    operation: str
    requester: str
    requester_role: str
    changed_attributes: Tuple[str, ...]
    diff_hash: str
    block_number: int
    timestamp: float
    acknowledged_by: List[str] = field(default_factory=list)
    contributions: List[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "update_id": self.update_id,
            "metadata_id": self.metadata_id,
            "operation": self.operation,
            "requester": self.requester,
            "requester_role": self.requester_role,
            "changed_attributes": list(self.changed_attributes),
            "diff_hash": self.diff_hash,
            "block_number": self.block_number,
            "timestamp": self.timestamp,
            "acknowledged_by": list(self.acknowledged_by),
            "contributions": [dict(entry) for entry in self.contributions],
        }


@dataclass
class MetadataEntry(StorageRecord):
    """One row of the Fig. 3 metadata collection table."""

    metadata_id: str
    sharing_peers: Dict[str, str]              # address -> role ("Doctor", "Patient", ...)
    write_permission: Dict[str, List[str]]     # attribute -> roles allowed to write
    authority_role: str                        # "Authority to change permission"
    view_spec: Dict[str, Any]                  # agreed shared-table structure
    created_by: str
    last_update_time: float
    pending_acks: List[str] = field(default_factory=list)

    def role_of(self, address: str) -> Optional[str]:
        return self.sharing_peers.get(address)

    def peers_other_than(self, address: str) -> List[str]:
        return [peer for peer in self.sharing_peers if peer != address]

    def can_write(self, role: str, attribute: str) -> bool:
        return role in self.write_permission.get(attribute, [])

    def to_dict(self) -> dict:
        return {
            "metadata_id": self.metadata_id,
            "sharing_peers": dict(self.sharing_peers),
            "write_permission": {k: list(v) for k, v in self.write_permission.items()},
            "authority_role": self.authority_role,
            "view_spec": dict(self.view_spec),
            "created_by": self.created_by,
            "last_update_time": self.last_update_time,
            "pending_acks": list(self.pending_acks),
        }


class SharedDataContract(Contract):
    """Permission metadata and the shared-data operation protocol."""

    def __init__(self) -> None:
        super().__init__()
        self.entries: Dict[str, MetadataEntry] = {}
        self.history: List[UpdateRecord] = []
        self.permission_changes: List[dict] = []
        self._next_update_id = 1

    # ------------------------------------------------------------- registration

    def register_shared_table(
        self,
        metadata_id: str,
        sharing_peers: Mapping[str, str],
        write_permission: Mapping[str, Sequence[str]],
        authority_role: str,
        view_spec: Optional[Mapping[str, Any]] = None,
    ) -> dict:
        """Register the metadata entry for a new shared table (Fig. 3 row).

        The caller must be one of the sharing peers, and the authority role
        must be a role held by at least one peer.
        """
        self.require(metadata_id not in self.entries,
                     f"metadata entry {metadata_id!r} already registered")
        self.require(bool(sharing_peers), "a shared table needs at least one sharing peer")
        peers = {str(address): str(role) for address, role in sharing_peers.items()}
        self.require_permission(
            self.ctx.caller in peers,
            f"caller {self.ctx.caller} is not one of the sharing peers",
        )
        roles = set(peers.values())
        self.require(authority_role in roles,
                     f"authority role {authority_role!r} is not held by any sharing peer")
        permission = {str(attr): [str(role) for role in allowed]
                      for attr, allowed in write_permission.items()}
        for attribute, allowed in permission.items():
            unknown = [role for role in allowed if role not in roles]
            self.require(not unknown,
                         f"attribute {attribute!r} grants write to unknown roles {unknown}")
        entry = MetadataEntry(
            metadata_id=metadata_id,
            sharing_peers=peers,
            write_permission=permission,
            authority_role=authority_role,
            view_spec=dict(view_spec or {}),
            created_by=self.ctx.caller,
            last_update_time=self.ctx.timestamp,
        )
        self.entries[metadata_id] = entry
        self.emit(
            "SharedTableRegistered",
            metadata_id=metadata_id,
            sharing_peers=peers,
            authority_role=authority_role,
        )
        return entry.to_dict()

    # ----------------------------------------------------------------- queries

    def get_metadata(self, metadata_id: str) -> dict:
        """The Fig. 3 row for ``metadata_id``."""
        self.require(metadata_id in self.entries, f"unknown metadata entry {metadata_id!r}")
        return self.entries[metadata_id].to_dict()

    def list_metadata_ids(self) -> List[str]:
        return sorted(self.entries)

    def entries_for_peer(self, address: str) -> List[str]:
        """All metadata ids a given peer participates in."""
        return sorted(
            metadata_id for metadata_id, entry in self.entries.items()
            if address in entry.sharing_peers
        )

    def update_history(self, metadata_id: Optional[str] = None) -> List[dict]:
        """The accepted operations, optionally filtered to one shared table."""
        return [
            record.to_dict() for record in self.history
            if metadata_id is None or record.metadata_id == metadata_id
        ]

    def pending_acknowledgements(self, metadata_id: str) -> List[str]:
        self.require(metadata_id in self.entries, f"unknown metadata entry {metadata_id!r}")
        return list(self.entries[metadata_id].pending_acks)

    def can_peer_write(self, metadata_id: str, address: str, attribute: str) -> bool:
        """Read-only permission probe used by clients before attempting updates."""
        self.require(metadata_id in self.entries, f"unknown metadata entry {metadata_id!r}")
        entry = self.entries[metadata_id]
        role = entry.role_of(address)
        return role is not None and entry.can_write(role, attribute)

    # ------------------------------------------------------------ the protocol

    def _authorize_operation(self, metadata_id: str, changed_attributes: Sequence[str],
                             table_level: bool) -> MetadataEntry:
        self.require(metadata_id in self.entries, f"unknown metadata entry {metadata_id!r}")
        entry = self.entries[metadata_id]
        role = entry.role_of(self.ctx.caller)
        self.require_permission(
            role is not None,
            f"caller {self.ctx.caller} is not a sharing peer of {metadata_id!r}",
        )
        self.require(
            not entry.pending_acks,
            f"shared data {metadata_id!r} has peers that have not fetched the newest data: "
            f"{sorted(entry.pending_acks)}",
        )
        if table_level:
            # Table-level operations (create/delete the whole shared table)
            # require write permission on every attribute of the agreement.
            attributes = list(entry.write_permission)
        else:
            attributes = list(changed_attributes)
            self.require(bool(attributes), "an entry-level operation must name the changed attributes")
        for attribute in attributes:
            self.require(attribute in entry.write_permission,
                         f"attribute {attribute!r} is not part of shared table {metadata_id!r}")
            self.require_permission(
                entry.can_write(role, attribute),
                f"role {role!r} may not write attribute {attribute!r} of {metadata_id!r}",
            )
        return entry

    def _record_operation(self, entry: MetadataEntry, operation: str,
                          changed_attributes: Sequence[str], diff_hash: str,
                          contributions: Sequence[Mapping[str, Any]] = ()) -> dict:
        role = entry.role_of(self.ctx.caller) or ""
        record = UpdateRecord(
            update_id=self._next_update_id,
            metadata_id=entry.metadata_id,
            operation=operation,
            requester=self.ctx.caller,
            requester_role=role,
            changed_attributes=tuple(changed_attributes),
            diff_hash=diff_hash,
            block_number=self.ctx.block_number,
            timestamp=self.ctx.timestamp,
            contributions=[dict(entry_) for entry_ in contributions],
        )
        self._next_update_id += 1
        self.history.append(record)
        entry.last_update_time = self.ctx.timestamp
        entry.pending_acks = entry.peers_other_than(self.ctx.caller)
        self.emit(
            "SharedDataChanged",
            metadata_id=entry.metadata_id,
            operation=operation,
            update_id=record.update_id,
            requester=self.ctx.caller,
            requester_role=role,
            changed_attributes=list(changed_attributes),
            diff_hash=diff_hash,
            notify_peers=list(entry.pending_acks),
            contributions=[dict(entry_) for entry_ in contributions],
        )
        return record.to_dict()

    def request_update(self, metadata_id: str, changed_attributes: Sequence[str],
                       diff_hash: str = "") -> dict:
        """Entry-level update request (Fig. 4 / Fig. 5 steps 2-3 and 8-9)."""
        entry = self._authorize_operation(metadata_id, changed_attributes, table_level=False)
        return self._record_operation(entry, "update", changed_attributes, diff_hash)

    def request_folded_update(self, metadata_id: str,
                              contributions: Sequence[Mapping[str, Any]],
                              diff_hash: str = "") -> dict:
        """A cross-peer *folded* update: several sharing peers' edits on
        disjoint attribute sets commit as one operation (one consensus round
        pair instead of one per peer).

        ``contributions`` is a sequence of ``{"peer": address,
        "changed_attributes": [...]}``; every contribution by a peer *other
        than the caller* must additionally carry that peer's attestation —
        ``"public_key"`` (hex) and ``"attestation"`` (a signature over
        :func:`fold_attestation_payload`) — so a requester cannot launder its
        own edits through another peer's write permission.  Write permission
        is checked **per contributor** — each peer's role must be allowed to
        write its own attributes, and the attribute sets of different peers
        must be pairwise disjoint so no contributor's change can mask
        another's.  The caller (who submits the merged diff) must itself be
        a sharing peer; every *other* sharing peer still has to acknowledge
        before the next operation on this table.
        """
        self.require(metadata_id in self.entries, f"unknown metadata entry {metadata_id!r}")
        entry = self.entries[metadata_id]
        caller_role = entry.role_of(self.ctx.caller)
        self.require_permission(
            caller_role is not None,
            f"caller {self.ctx.caller} is not a sharing peer of {metadata_id!r}",
        )
        self.require(
            not entry.pending_acks,
            f"shared data {metadata_id!r} has peers that have not fetched the newest data: "
            f"{sorted(entry.pending_acks)}",
        )
        self.require(bool(contributions), "a folded update needs at least one contribution")
        seen_attributes: Dict[str, str] = {}
        union: List[str] = []
        for contribution in contributions:
            peer = str(contribution.get("peer", ""))
            attributes = [str(a) for a in contribution.get("changed_attributes", ())]
            role = entry.role_of(peer)
            self.require_permission(
                role is not None,
                f"contributor {peer} is not a sharing peer of {metadata_id!r}",
            )
            self.require(bool(attributes),
                         f"contribution by {peer} must name its changed attributes")
            if peer != self.ctx.caller:
                # The caller's own authorship is covered by the transaction
                # signature; every other contribution must be attested by
                # its author or the caller could write through that peer's
                # permissions.
                self.require_permission(
                    self._attestation_valid(contribution, metadata_id, diff_hash),
                    f"contribution by {peer} lacks a valid attestation "
                    f"(folded updates need each non-calling contributor's "
                    f"signature over its attributes and the diff hash)",
                )
            for attribute in attributes:
                self.require(attribute in entry.write_permission,
                             f"attribute {attribute!r} is not part of shared table "
                             f"{metadata_id!r}")
                previous = seen_attributes.get(attribute)
                self.require(
                    previous is None or previous == peer,
                    f"attribute {attribute!r} is claimed by two contributors of the "
                    f"folded update (attribute sets must be disjoint)",
                )
                seen_attributes[attribute] = peer
                self.require_permission(
                    entry.can_write(role, attribute),
                    f"role {role!r} may not write attribute {attribute!r} of {metadata_id!r}",
                )
                if attribute not in union:
                    union.append(attribute)
        return self._record_operation(entry, "update", union, diff_hash,
                                      contributions=contributions)

    @staticmethod
    def _attestation_valid(contribution: Mapping[str, Any], metadata_id: str,
                           diff_hash: str) -> bool:
        """True when a contribution carries its author's valid signature."""
        public_key = contribution.get("public_key")
        attestation = contribution.get("attestation")
        if not public_key or not attestation:
            return False
        try:
            key = int(str(public_key), 16)
            signature = Signature.from_dict(dict(attestation))
        except (TypeError, ValueError, KeyError):
            return False
        if address_from_public_key(key) != str(contribution.get("peer", "")):
            return False
        payload = fold_attestation_payload(
            metadata_id, diff_hash, contribution.get("changed_attributes", ()))
        return verify(key, payload, signature)

    def request_create(self, metadata_id: str, changed_attributes: Sequence[str] = (),
                       diff_hash: str = "") -> dict:
        """Entry-level create request (adding rows to the shared table).

        With no ``changed_attributes`` the request is table-level: the caller
        needs write permission on every attribute of the agreement.
        """
        entry = self._authorize_operation(
            metadata_id, changed_attributes, table_level=not changed_attributes
        )
        return self._record_operation(
            entry, "create", changed_attributes or tuple(entry.write_permission), diff_hash
        )

    def request_delete(self, metadata_id: str, changed_attributes: Sequence[str] = (),
                       diff_hash: str = "") -> dict:
        """Entry- or table-level delete request."""
        entry = self._authorize_operation(
            metadata_id, changed_attributes, table_level=not changed_attributes
        )
        return self._record_operation(
            entry, "delete", changed_attributes or tuple(entry.write_permission), diff_hash
        )

    def acknowledge_update(self, metadata_id: str, update_id: int) -> dict:
        """A sharing peer confirms it fetched the newest shared data (Fig. 4 step 5)."""
        self.require(metadata_id in self.entries, f"unknown metadata entry {metadata_id!r}")
        entry = self.entries[metadata_id]
        self.require_permission(
            self.ctx.caller in entry.sharing_peers,
            f"caller {self.ctx.caller} is not a sharing peer of {metadata_id!r}",
        )
        # Update ids are 1 + the record's position in ``history``.
        known = isinstance(update_id, int) and 0 < update_id <= len(self.history)
        record = self.history[update_id - 1] if known else None
        self.require(record is not None and record.update_id == update_id,
                     f"unknown update id {update_id}")
        self.require(record.metadata_id == metadata_id,
                     f"update {update_id} does not belong to {metadata_id!r}")
        if self.ctx.caller in entry.pending_acks:
            entry.pending_acks.remove(self.ctx.caller)
        if self.ctx.caller not in record.acknowledged_by:
            record.acknowledged_by.append(self.ctx.caller)
        self.emit(
            "UpdateAcknowledged",
            metadata_id=metadata_id,
            update_id=update_id,
            peer=self.ctx.caller,
            remaining=list(entry.pending_acks),
        )
        return {"metadata_id": metadata_id, "update_id": update_id,
                "remaining": list(entry.pending_acks)}

    # -------------------------------------------------------- permission admin

    def change_permission(self, metadata_id: str, attribute: str,
                          new_writers: Sequence[str]) -> dict:
        """Change which roles may write ``attribute`` (only the authority role may).

        The paper's example: the Doctor changes the "Dosage" permission from
        ``["Doctor"]`` to ``["Doctor", "Patient"]`` so the Patient may update
        the dosage later.
        """
        self.require(metadata_id in self.entries, f"unknown metadata entry {metadata_id!r}")
        entry = self.entries[metadata_id]
        role = entry.role_of(self.ctx.caller)
        self.require_permission(role is not None,
                                f"caller {self.ctx.caller} is not a sharing peer")
        self.require_permission(
            role == entry.authority_role,
            f"role {role!r} lacks authority to change permission "
            f"(authority role is {entry.authority_role!r})",
        )
        self.require(attribute in entry.write_permission,
                     f"attribute {attribute!r} is not part of shared table {metadata_id!r}")
        roles = set(entry.sharing_peers.values())
        unknown = [writer for writer in new_writers if writer not in roles]
        self.require(not unknown, f"cannot grant write to unknown roles {unknown}")
        previous = list(entry.write_permission[attribute])
        entry.write_permission[attribute] = [str(writer) for writer in new_writers]
        entry.last_update_time = self.ctx.timestamp
        change = {
            "metadata_id": metadata_id,
            "attribute": attribute,
            "previous": previous,
            "new": list(new_writers),
            "changed_by": self.ctx.caller,
            "changed_by_role": role,
            "block_number": self.ctx.block_number,
            "timestamp": self.ctx.timestamp,
        }
        self.permission_changes.append(change)
        self.emit("PermissionChanged", **change)
        return change

    def transfer_authority(self, metadata_id: str, new_authority_role: str) -> dict:
        """Hand the authority-to-change-permission to another sharing role."""
        self.require(metadata_id in self.entries, f"unknown metadata entry {metadata_id!r}")
        entry = self.entries[metadata_id]
        role = entry.role_of(self.ctx.caller)
        self.require_permission(role == entry.authority_role,
                                "only the current authority may transfer authority")
        self.require(new_authority_role in set(entry.sharing_peers.values()),
                     f"role {new_authority_role!r} is not held by any sharing peer")
        previous = entry.authority_role
        entry.authority_role = new_authority_role
        entry.last_update_time = self.ctx.timestamp
        self.emit("AuthorityTransferred", metadata_id=metadata_id,
                  previous=previous, new=new_authority_role)
        return {"metadata_id": metadata_id, "previous": previous, "new": new_authority_role}
