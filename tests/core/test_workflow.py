"""Tests for the CRUD protocol (Fig. 4) and the update workflow (Fig. 5)."""

import pytest

from repro.config import SystemConfig
from repro.core.records import schema_for_attributes
from repro.core.scenario import DOCTOR_RESEARCHER_TABLE, PATIENT_DOCTOR_TABLE
from repro.core.sharing import SharingAgreement, ViewSpec
from repro.core.system import MedicalDataSharingSystem
from repro.errors import UpdateRejected, WorkflowError


class TestReadOperation:
    def test_read_is_local_and_creates_no_blocks(self, fresh_paper_system):
        system = fresh_paper_system
        height_before = system.simulator.nodes[0].chain.height
        table = system.coordinator.read_shared_data("patient", PATIENT_DOCTOR_TABLE)
        assert len(table) == 1
        assert system.simulator.nodes[0].chain.height == height_before

    def test_read_returns_snapshot(self, fresh_paper_system):
        table = fresh_paper_system.coordinator.read_shared_data(
            "patient", PATIENT_DOCTOR_TABLE)
        table.update_by_key((188,), {"dosage": "scribbled on"})
        stored = fresh_paper_system.peer("patient").shared_table(PATIENT_DOCTOR_TABLE)
        assert stored.get(188)["dosage"] == "one tablet every 4h"


class TestFig5UpdateWorkflow:
    """The researcher-initiated update of the medicine mechanism (Fig. 5)."""

    def test_researcher_update_propagates_to_doctor(self, fresh_paper_system):
        system = fresh_paper_system
        trace = system.coordinator.update_shared_entry(
            "researcher", DOCTOR_RESEARCHER_TABLE, ("Ibuprofen",),
            {"mechanism_of_action": "MeA1-revised"},
        )
        assert trace.succeeded
        # Both peers' stored shared tables and base tables converge.
        assert system.shared_tables_consistent(DOCTOR_RESEARCHER_TABLE)
        assert system.peer("doctor").local_table("D3").get(188)[
            "mechanism_of_action"] == "MeA1-revised"
        assert system.peer("researcher").local_table("D2").get(("Ibuprofen",))[
            "mechanism_of_action"] == "MeA1-revised"
        assert system.views_consistent_with_sources()

    def test_trace_contains_the_protocol_steps(self, fresh_paper_system):
        trace = fresh_paper_system.coordinator.update_shared_entry(
            "researcher", DOCTOR_RESEARCHER_TABLE, ("Ibuprofen",),
            {"mechanism_of_action": "MeA1-revised"},
        )
        actions = [step.action for step in trace.steps]
        for expected in ("local_edit", "contract_request", "notified", "fetch_data",
                         "bx_put", "acknowledge", "check_dependencies"):
            assert expected in actions
        assert trace.blocks_created >= 2  # request block + acknowledgement block
        assert trace.elapsed > 0
        assert "Workflow" in trace.pretty()

    def test_mechanism_change_does_not_cascade_to_patient(self, fresh_paper_system):
        system = fresh_paper_system
        patient_before = system.peer("patient").local_table("D1").snapshot()
        trace = system.coordinator.update_shared_entry(
            "researcher", DOCTOR_RESEARCHER_TABLE, ("Ibuprofen",),
            {"mechanism_of_action": "MeA1-revised"},
        )
        assert trace.cascaded_metadata_ids == []
        assert system.peer("patient").local_table("D1") == patient_before

    def test_propagate_local_change_entry_point(self, fresh_paper_system):
        """Fig. 5 step 1: the researcher first updates D2, then propagates."""
        system = fresh_paper_system
        system.peer("researcher").database.update_by_key(
            "D2", ("Wellbutrin",), {"mechanism_of_action": "MeA2-revised"})
        trace = system.coordinator.propagate_local_change(
            "researcher", DOCTOR_RESEARCHER_TABLE)
        assert trace.succeeded
        assert trace.steps[0].action == "bx_get"
        assert system.peer("doctor").local_table("D3").get(189)[
            "mechanism_of_action"] == "MeA2-revised"

    def test_propagate_with_no_change_is_a_noop(self, fresh_paper_system):
        system = fresh_paper_system
        height_before = system.simulator.nodes[0].chain.height
        trace = system.coordinator.propagate_local_change(
            "researcher", DOCTOR_RESEARCHER_TABLE)
        assert trace.succeeded
        assert trace.blocks_created == 0
        assert system.simulator.nodes[0].chain.height == height_before

    def test_doctor_updates_dosage_for_patient(self, fresh_paper_system):
        """The paper's second example: the doctor modifies the dosage on D31."""
        system = fresh_paper_system
        trace = system.coordinator.update_shared_entry(
            "doctor", PATIENT_DOCTOR_TABLE, (188,),
            {"dosage": "two tablets every 6h"},
        )
        assert trace.succeeded
        assert system.peer("patient").local_table("D1").get(188)[
            "dosage"] == "two tablets every 6h"
        assert system.peer("doctor").local_table("D3").get(188)[
            "dosage"] == "two tablets every 6h"


class TestPermissionEnforcement:
    def test_patient_cannot_update_dosage(self, fresh_paper_system):
        system = fresh_paper_system
        with pytest.raises(UpdateRejected) as excinfo:
            system.coordinator.update_shared_entry(
                "patient", PATIENT_DOCTOR_TABLE, (188,),
                {"dosage": "whatever I want"},
            )
        # The rejection carries the trace and nothing changed anywhere.
        assert excinfo.value.trace.succeeded is False
        assert system.peer("patient").local_table("D1").get(188)[
            "dosage"] == "one tablet every 4h"
        assert system.peer("doctor").local_table("D3").get(188)[
            "dosage"] == "one tablet every 4h"
        assert system.all_shared_tables_consistent()

    def test_patient_may_update_clinical_data(self, fresh_paper_system):
        system = fresh_paper_system
        trace = system.coordinator.update_shared_entry(
            "patient", PATIENT_DOCTOR_TABLE, (188,),
            {"clinical_data": "CliD1-amended"},
        )
        assert trace.succeeded
        assert system.peer("doctor").local_table("D3").get(188)[
            "clinical_data"] == "CliD1-amended"

    def test_doctor_cannot_update_mechanism(self, fresh_paper_system):
        with pytest.raises(UpdateRejected):
            fresh_paper_system.coordinator.update_shared_entry(
                "doctor", DOCTOR_RESEARCHER_TABLE, ("Ibuprofen",),
                {"mechanism_of_action": "MeA1-doctored"},
            )

    def test_permission_change_enables_patient_dosage_update(self, fresh_paper_system):
        """The paper's example: the Doctor (authority) grants the Patient write
        access to "Dosage"; afterwards the Patient's update is accepted."""
        system = fresh_paper_system
        change = system.coordinator.change_permission(
            "doctor", PATIENT_DOCTOR_TABLE, "dosage", ["Doctor", "Patient"])
        assert change["new"] == ["Doctor", "Patient"]
        trace = system.coordinator.update_shared_entry(
            "patient", PATIENT_DOCTOR_TABLE, (188,),
            {"dosage": "one tablet every 8h"},
        )
        assert trace.succeeded
        assert system.peer("doctor").local_table("D3").get(188)[
            "dosage"] == "one tablet every 8h"

    def test_non_authority_cannot_change_permission(self, fresh_paper_system):
        with pytest.raises(UpdateRejected):
            fresh_paper_system.coordinator.change_permission(
                "patient", PATIENT_DOCTOR_TABLE, "dosage", ["Patient"])


class TestCreateDelete:
    def test_patient_cannot_create_entries(self, fresh_paper_system):
        with pytest.raises(UpdateRejected):
            fresh_paper_system.coordinator.create_shared_entry(
                "patient", PATIENT_DOCTOR_TABLE,
                {"patient_id": 191, "medication_name": "X",
                 "clinical_data": "C", "dosage": "d"},
            )

    def test_doctor_deletes_shared_entry(self, fresh_paper_system):
        system = fresh_paper_system
        trace = system.coordinator.delete_shared_entry(
            "doctor", PATIENT_DOCTOR_TABLE, (188,))
        assert trace.succeeded
        assert not system.peer("patient").shared_table(PATIENT_DOCTOR_TABLE).contains_key(188)
        assert not system.peer("patient").local_table("D1").contains_key(188)
        # The doctor's base table dropped the row too (delete policy).
        assert not system.peer("doctor").local_table("D3").contains_key(188)
        # The researcher's view of medications is unaffected by this agreement.
        assert system.peer("researcher").local_table("D2").contains_key(("Ibuprofen",))


class TestSerializationOfConcurrentUpdates:
    def test_second_update_blocked_until_acknowledged(self, fresh_paper_system):
        """§III-B: a new update on the same shared table is only accepted once
        every sharing peer has fetched the previous one (which the coordinator
        guarantees), so two sequential updates both succeed and the contract
        history shows them in separate blocks."""
        system = fresh_paper_system
        first = system.coordinator.update_shared_entry(
            "researcher", DOCTOR_RESEARCHER_TABLE, ("Ibuprofen",),
            {"mechanism_of_action": "MeA1-v2"})
        second = system.coordinator.update_shared_entry(
            "researcher", DOCTOR_RESEARCHER_TABLE, ("Ibuprofen",),
            {"mechanism_of_action": "MeA1-v3"})
        assert first.succeeded and second.succeeded
        history = system.server_app("doctor").query_contract(
            "update_history", metadata_id=DOCTOR_RESEARCHER_TABLE)
        blocks = [record["block_number"] for record in history]
        assert len(blocks) == len(set(blocks)) == 2
        assert system.peer("doctor").local_table("D3").get(188)[
            "mechanism_of_action"] == "MeA1-v3"

    def test_raw_conflicting_requests_land_in_different_blocks(self, fresh_paper_system):
        """Submitting two raw update requests for the same shared table before
        mining forces the miner to put them in different blocks; the second is
        then rejected by the contract because the first was not acknowledged."""
        system = fresh_paper_system
        researcher_app = system.server_app("researcher")
        doctor_app = system.server_app("doctor")
        tx1 = researcher_app.build_contract_call(
            "request_update",
            {"metadata_id": DOCTOR_RESEARCHER_TABLE,
             "changed_attributes": ["mechanism_of_action"], "diff_hash": "h1"})
        tx2 = doctor_app.build_contract_call(
            "request_update",
            {"metadata_id": DOCTOR_RESEARCHER_TABLE,
             "changed_attributes": ["medication_name"], "diff_hash": "h2"})
        system.simulator.submit_transaction(researcher_app.node.name, tx1)
        system.simulator.submit_transaction(doctor_app.node.name, tx2)
        blocks = system.simulator.mine()
        assert len(blocks) == 2
        assert all(len(block.transactions) == 1 for block in blocks)
        receipt1 = researcher_app.node.chain.receipt(tx1.tx_hash)
        receipt2 = researcher_app.node.chain.receipt(tx2.tx_hash)
        assert receipt1.success
        assert not receipt2.success  # blocked: the doctor had not fetched update 1


def build_clinics(hops, ring=False):
    """``hops + 1`` clinics, each keeping one dosage table and sharing it with
    the next one along (table ``HOP<i>`` between clinic ``i`` and ``i + 1``):
    an update at one end re-shares hop by hop, one cascade level per hop.
    ``ring`` also shares the last clinic's table back with the first, closing
    the dependencies into a cycle."""
    system = MedicalDataSharingSystem(SystemConfig.private_chain(1.0))
    schema = schema_for_attributes(["patient_id", "dosage"],
                                   primary_key=["patient_id"])
    names = [f"clinic-{index}" for index in range(hops + 1)]
    for name in names:
        system.add_peer(name, "Doctor").database.create_table(
            "B", schema, [{"patient_id": 188, "dosage": "one tablet"}])
    system.deploy_contracts(names[0])
    pairs = list(zip(names, names[1:])) + ([(names[-1], names[0])] if ring else [])
    for index, (sender, receiver) in enumerate(pairs):
        columns = ("patient_id", "dosage")
        system.establish_sharing(SharingAgreement.build(
            metadata_id=f"HOP{index}",
            peer_a=sender, role_a="Doctor",
            spec_a=ViewSpec(source_table="B", view_name=f"out{index}",
                            columns=columns, view_key=("patient_id",)),
            peer_b=receiver, role_b="Doctor",
            spec_b=ViewSpec(source_table="B", view_name=f"in{index}",
                            columns=columns, view_key=("patient_id",)),
            write_permission={"patient_id": ("Doctor",), "dosage": ("Doctor",)},
            authority_role="Doctor", initiator=sender))
    return system, names


def dosages(system, names):
    return [system.peer(name).local_table("B").get(188)["dosage"] for name in names]


class TestCascadeDepthGuard:
    """``_cascade`` refuses to re-share past depth 8."""

    def test_eight_cascade_levels_are_supported(self):
        system, names = build_clinics(hops=9)
        trace = system.coordinator.update_shared_entry(
            names[0], "HOP0", (188,), {"dosage": "two tablets"})
        assert trace.succeeded
        assert trace.cascaded_metadata_ids == [f"HOP{index}" for index in range(1, 9)]
        assert dosages(system, names) == ["two tablets"] * 10

    def test_a_ninth_level_raises(self):
        system, names = build_clinics(hops=10)
        with pytest.raises(WorkflowError, match="exceeded the supported depth"):
            system.coordinator.update_shared_entry(
                names[0], "HOP0", (188,), {"dosage": "two tablets"})
        # Every hop up to the guard was installed; the one past it never ran.
        assert dosages(system, names) == ["two tablets"] * 10 + ["one tablet"]

    def test_a_dependency_cycle_converges_before_the_guard(self):
        """A cycle of well-behaved lenses cannot reach the guard: once the
        change is back where it started nothing differs, so nothing is
        re-shared — only a chain longer than the guard trips it."""
        system, names = build_clinics(hops=2, ring=True)
        trace = system.coordinator.update_shared_entry(
            names[0], "HOP0", (188,), {"dosage": "two tablets"})
        assert trace.succeeded
        # Both ways round the ring at once (the initiator re-shares its own
        # edit along HOP2 too), and then it stops.
        assert set(trace.cascaded_metadata_ids) == {"HOP1", "HOP2"}
        assert len(trace.cascaded_metadata_ids) <= 3
        assert dosages(system, names) == ["two tablets"] * 3
        assert system.all_shared_tables_consistent()
