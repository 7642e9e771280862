"""Tests for the Fig. 3 metadata contract and the Fig. 4 request protocol."""

import pytest

from repro.contracts.base import CallContext
from repro.contracts.sharing_contract import SharedDataContract, fold_attestation_payload
from repro.crypto.keys import generate_keypair
from repro.crypto.signatures import sign
from repro.errors import ContractRevert, PermissionDenied

DOCTOR = "0xd0c" + "0" * 37
PATIENT = "0xpa7" + "0" * 37
RESEARCHER = "0x5e5" + "0" * 37
OUTSIDER = "0xbad" + "0" * 37


def call(contract, caller, method, block_number=1, timestamp=1.0, **kwargs):
    """Drive a contract method the way the runtime would (revert → rollback)."""
    contract._begin_call(CallContext(caller=caller, block_number=block_number,
                                     timestamp=timestamp, contract_address="0xcontract"))
    try:
        result = getattr(contract, method)(**kwargs)
    except ContractRevert:
        contract._end_call(revert=True)
        raise
    events = contract._end_call()
    return result, events


@pytest.fixture
def contract():
    contract = SharedDataContract()
    call(contract, DOCTOR, "register_shared_table",
         metadata_id="D13&D31",
         sharing_peers={DOCTOR: "Doctor", PATIENT: "Patient"},
         write_permission={"medication_name": ["Doctor"], "dosage": ["Doctor"],
                           "clinical_data": ["Patient", "Doctor"]},
         authority_role="Doctor")
    call(contract, RESEARCHER, "register_shared_table",
         metadata_id="D23&D32",
         sharing_peers={DOCTOR: "Doctor", RESEARCHER: "Researcher"},
         write_permission={"medication_name": ["Doctor", "Researcher"],
                           "mechanism_of_action": ["Researcher"]},
         authority_role="Researcher")
    return contract


class TestRegistration:
    def test_entries_created(self, contract):
        assert contract.entries["D13&D31"].authority_role == "Doctor"
        result, _ = call(contract, DOCTOR, "list_metadata_ids")
        assert result == ["D13&D31", "D23&D32"]

    def test_registration_emits_event(self):
        contract = SharedDataContract()
        _, events = call(contract, DOCTOR, "register_shared_table",
                         metadata_id="X", sharing_peers={DOCTOR: "Doctor"},
                         write_permission={"a": ["Doctor"]}, authority_role="Doctor")
        assert events[0].name == "SharedTableRegistered"

    def test_duplicate_metadata_rejected(self, contract):
        with pytest.raises(ContractRevert):
            call(contract, DOCTOR, "register_shared_table",
                 metadata_id="D13&D31", sharing_peers={DOCTOR: "Doctor"},
                 write_permission={}, authority_role="Doctor")

    def test_registrant_must_be_sharing_peer(self):
        contract = SharedDataContract()
        with pytest.raises(PermissionDenied):
            call(contract, OUTSIDER, "register_shared_table",
                 metadata_id="X", sharing_peers={DOCTOR: "Doctor"},
                 write_permission={}, authority_role="Doctor")

    def test_authority_must_be_a_peer_role(self):
        contract = SharedDataContract()
        with pytest.raises(ContractRevert):
            call(contract, DOCTOR, "register_shared_table",
                 metadata_id="X", sharing_peers={DOCTOR: "Doctor"},
                 write_permission={}, authority_role="Admin")

    def test_permission_roles_must_exist(self):
        contract = SharedDataContract()
        with pytest.raises(ContractRevert):
            call(contract, DOCTOR, "register_shared_table",
                 metadata_id="X", sharing_peers={DOCTOR: "Doctor"},
                 write_permission={"a": ["Ghost"]}, authority_role="Doctor")

    def test_get_metadata(self, contract):
        metadata, _ = call(contract, PATIENT, "get_metadata", metadata_id="D13&D31")
        assert metadata["sharing_peers"][PATIENT] == "Patient"
        assert metadata["write_permission"]["dosage"] == ["Doctor"]

    def test_entries_for_peer(self, contract):
        result, _ = call(contract, DOCTOR, "entries_for_peer", address=DOCTOR)
        assert result == ["D13&D31", "D23&D32"]
        result, _ = call(contract, DOCTOR, "entries_for_peer", address=PATIENT)
        assert result == ["D13&D31"]


class TestUpdateRequests:
    def test_authorized_update_accepted(self, contract):
        record, events = call(contract, RESEARCHER, "request_update",
                              metadata_id="D23&D32",
                              changed_attributes=["mechanism_of_action"],
                              diff_hash="h1")
        assert record["update_id"] == 1
        changed = [e for e in events if e.name == "SharedDataChanged"][0]
        assert changed.data["notify_peers"] == [DOCTOR]
        assert contract.entries["D23&D32"].pending_acks == [DOCTOR]

    def test_permission_denied_for_wrong_attribute(self, contract):
        with pytest.raises(PermissionDenied):
            call(contract, DOCTOR, "request_update", metadata_id="D23&D32",
                 changed_attributes=["mechanism_of_action"], diff_hash="h")

    def test_permission_denied_for_non_peer(self, contract):
        with pytest.raises(PermissionDenied):
            call(contract, OUTSIDER, "request_update", metadata_id="D23&D32",
                 changed_attributes=["medication_name"], diff_hash="h")

    def test_unknown_attribute_rejected(self, contract):
        with pytest.raises(ContractRevert):
            call(contract, RESEARCHER, "request_update", metadata_id="D23&D32",
                 changed_attributes=["mode_of_action"], diff_hash="h")

    def test_unknown_metadata_rejected(self, contract):
        with pytest.raises(ContractRevert):
            call(contract, DOCTOR, "request_update", metadata_id="NOPE",
                 changed_attributes=["a"], diff_hash="h")

    def test_empty_attribute_list_rejected_for_entry_level(self, contract):
        with pytest.raises(ContractRevert):
            call(contract, RESEARCHER, "request_update", metadata_id="D23&D32",
                 changed_attributes=[], diff_hash="h")

    def test_next_update_blocked_until_acknowledged(self, contract):
        call(contract, RESEARCHER, "request_update", metadata_id="D23&D32",
             changed_attributes=["mechanism_of_action"], diff_hash="h1")
        with pytest.raises(ContractRevert):
            call(contract, RESEARCHER, "request_update", metadata_id="D23&D32",
                 changed_attributes=["mechanism_of_action"], diff_hash="h2",
                 timestamp=2.0)

    def test_acknowledge_unblocks_further_updates(self, contract):
        record, _ = call(contract, RESEARCHER, "request_update", metadata_id="D23&D32",
                         changed_attributes=["mechanism_of_action"], diff_hash="h1")
        call(contract, DOCTOR, "acknowledge_update", metadata_id="D23&D32",
             update_id=record["update_id"], timestamp=2.0)
        assert contract.entries["D23&D32"].pending_acks == []
        record2, _ = call(contract, RESEARCHER, "request_update", metadata_id="D23&D32",
                          changed_attributes=["mechanism_of_action"], diff_hash="h2",
                          timestamp=3.0, block_number=2)
        assert record2["update_id"] == 2

    def test_acknowledge_by_non_peer_rejected(self, contract):
        record, _ = call(contract, RESEARCHER, "request_update", metadata_id="D23&D32",
                         changed_attributes=["mechanism_of_action"], diff_hash="h1")
        with pytest.raises(PermissionDenied):
            call(contract, OUTSIDER, "acknowledge_update", metadata_id="D23&D32",
                 update_id=record["update_id"])

    def test_acknowledge_unknown_update_rejected(self, contract):
        with pytest.raises(ContractRevert):
            call(contract, DOCTOR, "acknowledge_update", metadata_id="D23&D32", update_id=99)

    def test_acknowledge_wrong_table_rejected(self, contract):
        record, _ = call(contract, RESEARCHER, "request_update", metadata_id="D23&D32",
                         changed_attributes=["mechanism_of_action"], diff_hash="h1")
        with pytest.raises(ContractRevert):
            call(contract, DOCTOR, "acknowledge_update", metadata_id="D13&D31",
                 update_id=record["update_id"])

    def test_rejected_request_leaves_no_trace(self, contract):
        with pytest.raises(PermissionDenied):
            call(contract, DOCTOR, "request_update", metadata_id="D23&D32",
                 changed_attributes=["mechanism_of_action"], diff_hash="h")
        assert contract.history == []
        assert contract.entries["D23&D32"].pending_acks == []

    def test_update_history_filter(self, contract):
        call(contract, RESEARCHER, "request_update", metadata_id="D23&D32",
             changed_attributes=["mechanism_of_action"], diff_hash="h1")
        call(contract, DOCTOR, "request_update", metadata_id="D13&D31",
             changed_attributes=["dosage"], diff_hash="h2")
        all_history, _ = call(contract, DOCTOR, "update_history")
        filtered, _ = call(contract, DOCTOR, "update_history", metadata_id="D13&D31")
        assert len(all_history) == 2
        assert len(filtered) == 1

    def test_can_peer_write(self, contract):
        yes, _ = call(contract, DOCTOR, "can_peer_write", metadata_id="D13&D31",
                      address=PATIENT, attribute="clinical_data")
        no, _ = call(contract, DOCTOR, "can_peer_write", metadata_id="D13&D31",
                     address=PATIENT, attribute="dosage")
        assert yes is True
        assert no is False


class TestCreateDelete:
    def test_create_entry_level(self, contract):
        record, _ = call(contract, DOCTOR, "request_create", metadata_id="D13&D31",
                         changed_attributes=["medication_name", "dosage", "clinical_data"],
                         diff_hash="h")
        assert record["operation"] == "create"

    def test_table_level_requires_full_permission(self, contract):
        # The Patient only has clinical_data permission, so a table-level
        # delete (empty attribute list) must be rejected.
        with pytest.raises(PermissionDenied):
            call(contract, PATIENT, "request_delete", metadata_id="D13&D31",
                 changed_attributes=[], diff_hash="h")

    def test_table_level_delete_by_full_writer(self, contract):
        record, _ = call(contract, DOCTOR, "request_delete", metadata_id="D13&D31",
                         changed_attributes=[], diff_hash="h")
        assert record["operation"] == "delete"
        assert set(record["changed_attributes"]) == {"medication_name", "dosage",
                                                     "clinical_data"}


class TestFoldedUpdates:
    """request_folded_update: cross-peer edits on disjoint attribute sets,
    each non-calling contribution attested by its author's signature."""

    DOC_KP = generate_keypair(seed=71)
    PAT_KP = generate_keypair(seed=72)

    @pytest.fixture
    def fold_contract(self):
        contract = SharedDataContract()
        call(contract, self.DOC_KP.address, "register_shared_table",
             metadata_id="FOLD",
             sharing_peers={self.DOC_KP.address: "Doctor",
                            self.PAT_KP.address: "Patient"},
             write_permission={"medication_name": ["Doctor"],
                               "dosage": ["Doctor"],
                               "clinical_data": ["Patient", "Doctor"]},
             authority_role="Doctor")
        return contract

    def _attested(self, keypair, attributes, diff_hash="fold-1",
                  metadata_id="FOLD"):
        payload = fold_attestation_payload(metadata_id, diff_hash, attributes)
        return {"peer": keypair.address, "changed_attributes": list(attributes),
                "public_key": hex(keypair.public_key),
                "attestation": sign(keypair, payload).to_dict()}

    def test_folded_update_checks_permission_per_contributor(self, fold_contract):
        result, events = call(
            fold_contract, self.DOC_KP.address, "request_folded_update",
            metadata_id="FOLD",
            contributions=[{"peer": self.DOC_KP.address,
                            "changed_attributes": ["dosage"]},
                           self._attested(self.PAT_KP, ["clinical_data"])],
            diff_hash="fold-1")
        assert result["operation"] == "update"
        assert result["changed_attributes"] == ["dosage", "clinical_data"]
        assert result["contributions"][1]["peer"] == self.PAT_KP.address
        assert events[0].name == "SharedDataChanged"
        # The non-calling contributor still has to acknowledge.
        assert fold_contract.entries["FOLD"].pending_acks == [self.PAT_KP.address]

    def test_unattested_foreign_contribution_rejected(self, fold_contract):
        """A caller cannot write through another peer's permissions: a
        contribution attributed to a different peer without that peer's
        signature reverts (this is the permission-laundering exploit)."""
        with pytest.raises(PermissionDenied):
            call(fold_contract, self.PAT_KP.address, "request_folded_update",
                 metadata_id="FOLD",
                 contributions=[{"peer": self.DOC_KP.address,
                                 "changed_attributes": ["dosage"]}],
                 diff_hash="evil")

    def test_forged_attestation_rejected(self, fold_contract):
        # Signed by the patient but claiming the doctor as author.
        forged = self._attested(self.PAT_KP, ["dosage"], diff_hash="evil")
        forged["peer"] = self.DOC_KP.address
        with pytest.raises(PermissionDenied):
            call(fold_contract, self.PAT_KP.address, "request_folded_update",
                 metadata_id="FOLD", contributions=[forged], diff_hash="evil")

    def test_attestation_bound_to_diff_hash(self, fold_contract):
        # A valid attestation for one diff cannot authorise another.
        stale = self._attested(self.PAT_KP, ["clinical_data"], diff_hash="old")
        with pytest.raises(PermissionDenied):
            call(fold_contract, self.DOC_KP.address, "request_folded_update",
                 metadata_id="FOLD", contributions=[stale], diff_hash="new")

    def test_contributor_without_permission_rejected(self, fold_contract):
        # The patient's role may not write "dosage": the fold reverts even
        # with a genuine patient attestation.
        with pytest.raises(PermissionDenied):
            call(fold_contract, self.DOC_KP.address, "request_folded_update",
                 metadata_id="FOLD",
                 contributions=[self._attested(self.PAT_KP, ["dosage"])],
                 diff_hash="fold-1")

    def test_overlapping_contributions_rejected(self, fold_contract):
        with pytest.raises(ContractRevert):
            call(fold_contract, self.DOC_KP.address, "request_folded_update",
                 metadata_id="FOLD",
                 contributions=[
                     {"peer": self.DOC_KP.address,
                      "changed_attributes": ["clinical_data"]},
                     self._attested(self.PAT_KP, ["clinical_data"])],
                 diff_hash="fold-1")

    def test_non_peer_contributor_rejected(self, fold_contract):
        with pytest.raises(PermissionDenied):
            call(fold_contract, self.DOC_KP.address, "request_folded_update",
                 metadata_id="FOLD",
                 contributions=[{"peer": OUTSIDER,
                                 "changed_attributes": ["dosage"]}])

    def test_caller_must_be_sharing_peer(self, fold_contract):
        with pytest.raises(PermissionDenied):
            call(fold_contract, OUTSIDER, "request_folded_update",
                 metadata_id="FOLD",
                 contributions=[{"peer": self.DOC_KP.address,
                                 "changed_attributes": ["dosage"]}])

    def test_folded_update_respects_pending_acks(self, fold_contract):
        call(fold_contract, self.DOC_KP.address, "request_update",
             metadata_id="FOLD", changed_attributes=["dosage"])
        with pytest.raises(ContractRevert):
            call(fold_contract, self.DOC_KP.address, "request_folded_update",
                 metadata_id="FOLD",
                 contributions=[self._attested(self.PAT_KP, ["clinical_data"])],
                 diff_hash="fold-1")

    def test_empty_contributions_rejected(self, fold_contract):
        with pytest.raises(ContractRevert):
            call(fold_contract, self.DOC_KP.address, "request_folded_update",
                 metadata_id="FOLD", contributions=[])


class TestPermissionAdmin:
    def test_authority_changes_permission(self, contract):
        change, events = call(contract, DOCTOR, "change_permission",
                              metadata_id="D13&D31", attribute="dosage",
                              new_writers=["Doctor", "Patient"])
        assert change["previous"] == ["Doctor"]
        assert contract.entries["D13&D31"].write_permission["dosage"] == ["Doctor", "Patient"]
        assert events[0].name == "PermissionChanged"

    def test_non_authority_cannot_change_permission(self, contract):
        with pytest.raises(PermissionDenied):
            call(contract, PATIENT, "change_permission", metadata_id="D13&D31",
                 attribute="dosage", new_writers=["Patient"])

    def test_permission_change_enables_new_writer(self, contract):
        call(contract, DOCTOR, "change_permission", metadata_id="D13&D31",
             attribute="dosage", new_writers=["Doctor", "Patient"])
        record, _ = call(contract, PATIENT, "request_update", metadata_id="D13&D31",
                         changed_attributes=["dosage"], diff_hash="h", timestamp=2.0)
        assert record["requester_role"] == "Patient"

    def test_cannot_grant_to_unknown_role(self, contract):
        with pytest.raises(ContractRevert):
            call(contract, DOCTOR, "change_permission", metadata_id="D13&D31",
                 attribute="dosage", new_writers=["Hacker"])

    def test_unknown_attribute_rejected(self, contract):
        with pytest.raises(ContractRevert):
            call(contract, DOCTOR, "change_permission", metadata_id="D13&D31",
                 attribute="mode_of_action", new_writers=["Doctor"])

    def test_transfer_authority(self, contract):
        call(contract, DOCTOR, "transfer_authority", metadata_id="D13&D31",
             new_authority_role="Patient")
        assert contract.entries["D13&D31"].authority_role == "Patient"
        # The previous authority can no longer change permissions.
        with pytest.raises(PermissionDenied):
            call(contract, DOCTOR, "change_permission", metadata_id="D13&D31",
                 attribute="dosage", new_writers=["Doctor"])

    def test_only_authority_can_transfer(self, contract):
        with pytest.raises(PermissionDenied):
            call(contract, PATIENT, "transfer_authority", metadata_id="D13&D31",
                 new_authority_role="Patient")

    def test_transfer_to_unknown_role_rejected(self, contract):
        with pytest.raises(ContractRevert):
            call(contract, DOCTOR, "transfer_authority", metadata_id="D13&D31",
                 new_authority_role="Admin")
