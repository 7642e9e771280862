"""Tests for peers and the database manager (BX execution per peer)."""

import pytest

from repro.bx.dsl import ViewSpec
from repro.core.manager import DatabaseManager
from repro.core.peer import Peer
from repro.core.records import doctor_schema
from repro.core.sharing import SharingAgreement
from repro.core.scenario import PAPER_RECORDS
from repro.errors import AgreementError, SynchronizationError
from repro.relational.predicates import Eq


def _doctor_rows():
    columns = ("patient_id", "medication_name", "clinical_data", "dosage",
               "mechanism_of_action")
    return [{c: record[c] for c in columns} for record in PAPER_RECORDS]


def _agreement(metadata_id="D13&D31", columns=("patient_id", "medication_name",
                                               "clinical_data", "dosage")):
    doctor_spec = ViewSpec(source_table="D3", view_name="D31", columns=columns,
                           view_key=("patient_id",), where=Eq("patient_id", 188))
    patient_spec = ViewSpec(source_table="D1", view_name="D13", columns=columns,
                            view_key=("patient_id",))
    return SharingAgreement.build(
        metadata_id=metadata_id,
        peer_a="doctor", role_a="Doctor", spec_a=doctor_spec,
        peer_b="patient", role_b="Patient", spec_b=patient_spec,
        write_permission={column: ("Doctor",) for column in columns},
        authority_role="Doctor",
    )


def _researcher_agreement():
    columns = ("medication_name", "mechanism_of_action")
    doctor_spec = ViewSpec(source_table="D3", view_name="D32", columns=columns,
                           view_key=("medication_name",))
    researcher_spec = ViewSpec(source_table="D2", view_name="D23", columns=columns,
                               view_key=("medication_name",))
    return SharingAgreement.build(
        metadata_id="D23&D32",
        peer_a="doctor", role_a="Doctor", spec_a=doctor_spec,
        peer_b="researcher", role_b="Researcher", spec_b=researcher_spec,
        write_permission={"medication_name": ("Doctor", "Researcher"),
                          "mechanism_of_action": ("Researcher",)},
        authority_role="Researcher",
    )


@pytest.fixture
def doctor_peer():
    peer = Peer("doctor", "Doctor")
    peer.database.create_table("D3", doctor_schema(), _doctor_rows())
    return peer


class TestPeer:
    def test_identity_is_deterministic(self):
        assert Peer("doctor", "Doctor").address == Peer("doctor", "Doctor").address
        assert Peer("doctor", "Doctor").address != Peer("patient", "Patient").address

    def test_join_agreement_materialises_shared_table(self, doctor_peer):
        doctor_peer.join_agreement(_agreement())
        shared = doctor_peer.shared_table("D13&D31")
        assert shared.name == "D31"
        assert len(shared) == 1  # only patient 188
        assert shared.schema.column_names == ("patient_id", "medication_name",
                                               "clinical_data", "dosage")

    def test_join_agreement_requires_source_table(self):
        peer = Peer("doctor", "Doctor")
        with pytest.raises(AgreementError):
            peer.join_agreement(_agreement())

    def test_join_registers_bx_program(self, doctor_peer):
        doctor_peer.join_agreement(_agreement())
        program = doctor_peer.bx_program("D13&D31")
        assert program.source_table == "D3"
        assert program.view_name == "D31"
        assert "BX-D31" in doctor_peer.bx

    def test_agreements_sharing_source(self, doctor_peer):
        doctor_peer.join_agreement(_agreement())
        doctor_peer.join_agreement(_researcher_agreement())
        assert doctor_peer.agreements_sharing_source("D3") == ("D13&D31", "D23&D32")

    def test_unknown_agreement_lookups(self, doctor_peer):
        with pytest.raises(AgreementError):
            doctor_peer.agreement("NOPE")
        with pytest.raises(AgreementError):
            doctor_peer.bx_program("NOPE")

    def test_exposure_summary(self, doctor_peer):
        doctor_peer.join_agreement(_agreement())
        summary = doctor_peer.exposure_summary()
        assert summary["D13&D31"] == ("patient_id", "medication_name",
                                      "clinical_data", "dosage")


class TestDatabaseManager:
    @pytest.fixture
    def manager(self, doctor_peer):
        doctor_peer.join_agreement(_agreement())
        doctor_peer.join_agreement(_researcher_agreement())
        return DatabaseManager(doctor_peer)

    def test_derive_view_runs_get(self, manager):
        view = manager.derive_view("D23&D32")
        assert len(view) == 2
        assert manager.statistics["get_invocations"] == 1

    def test_pending_diff_empty_when_consistent(self, manager):
        assert manager.pending_view_diff("D23&D32").is_empty

    def test_refresh_after_source_change(self, manager, doctor_peer):
        doctor_peer.database.update_by_key("D3", (188,), {"dosage": "changed"})
        diff = manager.refresh_shared_table("D13&D31")
        assert len(diff) == 1
        assert doctor_peer.shared_table("D13&D31").get(188)["dosage"] == "changed"
        # A second refresh is a no-op.
        assert manager.refresh_shared_table("D13&D31").is_empty

    def test_reflect_after_view_change(self, manager, doctor_peer):
        shared = doctor_peer.shared_table("D23&D32")
        shared.update_by_key(("Ibuprofen",), {"mechanism_of_action": "MeA1-new"})
        diff = manager.reflect_shared_table("D23&D32")
        assert len(diff) == 1
        assert doctor_peer.local_table("D3").get(188)["mechanism_of_action"] == "MeA1-new"
        assert manager.statistics["put_invocations"] == 1

    def test_reflect_detects_law_violation(self, doctor_peer):
        doctor_peer.join_agreement(_researcher_agreement())
        manager = DatabaseManager(doctor_peer)
        # Swap the registered BX program for an ill-behaved lens whose put
        # ignores the view: PutGet cannot hold, so the manager must refuse to
        # install the new source.
        honest = doctor_peer.bx_program("D23&D32")

        class _BrokenLens:
            name = "broken"

            def get(self, source):
                return honest.lens.get(source)

            def put(self, source, view):
                return source.snapshot()

        doctor_peer.bx.register("BX-D32", source_table="D3", view_name="D32",
                                lens=_BrokenLens())
        shared = doctor_peer.shared_table("D23&D32")
        shared.update_by_key(("Ibuprofen",), {"mechanism_of_action": "MeA1-broken"})
        before = doctor_peer.local_table("D3").snapshot()
        with pytest.raises(SynchronizationError):
            manager.reflect_shared_table("D23&D32")
        assert doctor_peer.local_table("D3") == before

    def test_dependent_agreements(self, manager):
        assert manager.dependent_agreements("D23&D32") == ("D13&D31",)
        assert manager.dependent_agreements("D13&D31") == ("D23&D32",)

    def test_changed_dependents_detects_overlap(self, manager, doctor_peer):
        # A medication-name change through D31 also affects D32 (both project a1).
        shared = doctor_peer.shared_table("D13&D31")
        shared.update_by_key((188,), {"medication_name": "Naproxen"})
        manager.reflect_shared_table("D13&D31")
        changed = manager.changed_dependents("D13&D31")
        assert "D23&D32" in changed
        assert not changed["D23&D32"].is_empty

    def test_changed_dependents_ignores_non_overlapping_change(self, manager, doctor_peer):
        # A mechanism-of-action change does not touch D31 (a0, a1, a2, a4).
        shared = doctor_peer.shared_table("D23&D32")
        shared.update_by_key(("Ibuprofen",), {"mechanism_of_action": "MeA1-new"})
        manager.reflect_shared_table("D23&D32")
        assert manager.changed_dependents("D23&D32") == {}

    def test_apply_incoming_diff(self, manager, doctor_peer):
        from repro.relational.diff import diff_tables

        stored = doctor_peer.shared_table("D23&D32")
        target = stored.snapshot()
        target.update_by_key(("Ibuprofen",), {"mechanism_of_action": "MeA1-received"})
        manager.apply_incoming_diff("D23&D32", diff_tables(stored, target))
        assert doctor_peer.shared_table("D23&D32").get(("Ibuprofen",))[
            "mechanism_of_action"] == "MeA1-received"

    def test_replace_shared_table(self, manager, doctor_peer):
        snapshot = doctor_peer.shared_table("D23&D32").snapshot()
        snapshot.update_by_key(("Wellbutrin",), {"mechanism_of_action": "MeA2-new"})
        manager.replace_shared_table("D23&D32", snapshot)
        assert doctor_peer.shared_table("D23&D32").get(("Wellbutrin",))[
            "mechanism_of_action"] == "MeA2-new"
