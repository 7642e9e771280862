"""Failure-injection and robustness tests.

These tests exercise the unhappy paths the paper's threat section (§IV) cares
about: tampered replicas, unauthorized requests, peers that never fetch the
newest data, ill-behaved synchronisation, and network message loss.
"""

import pytest

pytestmark = [pytest.mark.integration]

from repro.config import ConsensusConfig, LedgerConfig, NetworkConfig, SystemConfig
from repro.core.scenario import (
    DOCTOR_RESEARCHER_TABLE,
    PATIENT_DOCTOR_TABLE,
    build_paper_scenario,
)
from repro.core.workflow import BatchGroup, EntryEdit
from repro.errors import InvalidTransactionError, UpdateRejected, WorkflowError
from repro.workloads.topology import (
    HOSPITAL_TABLE_ID,
    TopologySpec,
    build_join_topology_system,
    build_topology_system,
    patients_by_medication,
)


class TestPermissionFailureIsolation:
    def test_rejected_update_leaves_every_replica_consistent(self, fresh_paper_system):
        system = fresh_paper_system
        roots_before = {node.name: node.state_root() for node in system.simulator.nodes}
        with pytest.raises(UpdateRejected):
            system.coordinator.update_shared_entry(
                "patient", PATIENT_DOCTOR_TABLE, (188,), {"dosage": "blocked"})
        # The rejected request still consumed a block (it is on-chain, auditable)
        # but contract storage did not change and all replicas agree.
        assert system.simulator.in_consensus()
        assert system.all_shared_tables_consistent()
        assert system.views_consistent_with_sources()
        history = system.server_app("doctor").query_contract(
            "update_history", metadata_id=PATIENT_DOCTOR_TABLE)
        assert history == []

    def test_outsider_cannot_operate_on_shared_data(self, fresh_paper_system):
        system = fresh_paper_system
        system.add_peer("insurer", "Insurer")
        app = system.server_app("insurer")
        tx = app.build_contract_call(
            "request_update",
            {"metadata_id": PATIENT_DOCTOR_TABLE,
             "changed_attributes": ["dosage"], "diff_hash": "h"})
        # The insurer joined after genesis, so it routes its request through an
        # established node (its own replica has not synced historical blocks).
        doctor_node = system.server_app("doctor").node
        system.simulator.submit_transaction(doctor_node.name, tx)
        system.simulator.mine()
        receipt = doctor_node.chain.receipt(tx.tx_hash)
        assert not receipt.success
        assert "not a sharing peer" in receipt.error


class TestStaleness:
    def test_update_blocked_while_peer_has_not_fetched(self, fresh_paper_system):
        """§III-B: further operations are blocked until every sharing peer has
        the newest shared data (acknowledged on the contract)."""
        system = fresh_paper_system
        researcher_app = system.server_app("researcher")
        tx1 = researcher_app.build_contract_call(
            "request_update",
            {"metadata_id": DOCTOR_RESEARCHER_TABLE,
             "changed_attributes": ["mechanism_of_action"], "diff_hash": "h1"})
        system.simulator.submit_transaction(researcher_app.node.name, tx1)
        system.simulator.mine()
        assert researcher_app.node.chain.receipt(tx1.tx_hash).success
        # The doctor never acknowledges; the next update must be rejected.
        tx2 = researcher_app.build_contract_call(
            "request_update",
            {"metadata_id": DOCTOR_RESEARCHER_TABLE,
             "changed_attributes": ["mechanism_of_action"], "diff_hash": "h2"})
        system.simulator.submit_transaction(researcher_app.node.name, tx2)
        system.simulator.mine()
        receipt = researcher_app.node.chain.receipt(tx2.tx_hash)
        assert not receipt.success
        assert "not fetched" in receipt.error


class TestSignatureAndReplayProtection:
    def test_forged_sender_rejected_by_mempool(self, fresh_paper_system):
        system = fresh_paper_system
        doctor = system.peer("doctor")
        patient_app = system.server_app("patient")
        # The patient builds a transaction claiming to be the doctor.
        from repro.ledger.transaction import Transaction

        forged = Transaction(
            sender=doctor.address, kind="call", nonce=0,
            contract=system.contract_address, method="request_update",
            args={"metadata_id": PATIENT_DOCTOR_TABLE,
                  "changed_attributes": ["dosage"], "diff_hash": "h"},
        )
        # The patient cannot produce the doctor's signature, so the forged
        # transaction can only be submitted unsigned — and is rejected.
        with pytest.raises(InvalidTransactionError):
            patient_app.node.mempool.submit(forged)
        # Signing with the patient's own key does not help either: the key
        # does not match the claimed sender address.
        with pytest.raises(InvalidTransactionError):
            forged.signed_by(system.peer("patient").keypair)

    def test_replayed_transaction_rejected(self, fresh_paper_system):
        system = fresh_paper_system
        app = system.server_app("researcher")
        tx = app.build_contract_call(
            "request_update",
            {"metadata_id": DOCTOR_RESEARCHER_TABLE,
             "changed_attributes": ["mechanism_of_action"], "diff_hash": "h1"})
        system.simulator.submit_transaction(app.node.name, tx)
        with pytest.raises(InvalidTransactionError):
            app.node.mempool.submit(tx)


class TestTamperEvidence:
    def test_tampered_replica_detected_by_audit(self, fresh_paper_system):
        system = fresh_paper_system
        system.coordinator.update_shared_entry(
            "researcher", DOCTOR_RESEARCHER_TABLE, ("Ibuprofen",),
            {"mechanism_of_action": "MeA1-v2"})
        # A malicious patient node rewrites a block payload in its replica.
        patient_node = system.server_app("patient").node
        target = patient_node.chain.block_by_number(patient_node.chain.height)
        target.header.merkle_root = "0" * 64
        assert not patient_node.chain.verify_chain()
        # Honest replicas are unaffected.
        assert system.server_app("doctor").node.chain.verify_chain()


def _drop_notifications(app):
    """The contract event never reaches the peer (e.g. its node is partitioned)."""
    app._on_event = lambda entry: None
    app.node._event_subscribers = [app._on_event]


def _break_acknowledgement(app):
    """The peer acknowledges an update the contract never issued."""
    build = app.build_contract_call

    def acknowledge_the_wrong_update(method, args, contract_address=None):
        if method == "acknowledge_update":
            args = {**args, "update_id": 999}
        return build(method, args, contract_address)

    app.build_contract_call = acknowledge_the_wrong_update


SHARED_MIDDLE_FAULTS = {
    "missing_notification": (_drop_notifications, "did not receive the contract notification"),
    "failing_acknowledgement": (_break_acknowledgement, "acknowledgement by"),
}


class TestWorkflowRobustness:
    @pytest.mark.parametrize("fault", sorted(SHARED_MIDDLE_FAULTS))
    @pytest.mark.parametrize("driver", ["sequential", "batch", "parallel"])
    def test_middle_faults_keep_each_drivers_contract(self, driver, fault):
        """The notification check and the acknowledgement are shared by the
        three Fig. 5 drivers; what a failure there *means* is the driver's:
        the sequential protocol raises, the batched commit records the error
        on the group's trace and carries on, the parallel cascade lands every
        buffered step in sorted leg order and then raises."""
        inject, message = SHARED_MIDDLE_FAULTS[fault]
        notified = []

        def listener(metadata_id, operation, peers, diff):
            notified.append((metadata_id, diff))

        if driver == "sequential":
            system = build_paper_scenario()
            inject(system.server_app("doctor"))
            with pytest.raises(WorkflowError, match=message):
                system.coordinator.update_shared_entry(
                    "researcher", DOCTOR_RESEARCHER_TABLE, ("Ibuprofen",),
                    {"mechanism_of_action": "MeA1-v2"})
            return

        if driver == "batch":
            system = build_topology_system(TopologySpec(patients=2, researchers=0),
                                           SystemConfig.private_chain(1.0))
            system.coordinator.subscribe_shared_diff(listener)
            tables = sorted(mid for mid in system.agreement_ids
                            if mid.split(":")[1].isdigit())
            faulted, healthy = tables
            inject(system.server_app(f"patient-{faulted.split(':')[1]}"))
            result = system.coordinator.commit_entry_batch([
                BatchGroup(peer="doctor", metadata_id=table, edits=(EntryEdit(
                    op="update", key=(int(table.split(":")[1]),),
                    values={"dosage": "batched dose"}),))
                for table in tables])
            failed, committed = result.traces
            assert not failed.succeeded and message in failed.error
            assert committed.succeeded and committed.error is None
            assert result.consensus_rounds == 2
            # The initiator side was installed before the fault: listeners
            # hear about the faulted table, but without a diff to patch from.
            assert [(mid, diff is None) for mid, diff in notified] == [
                (faulted, True), (healthy, False)]
            return

        system = build_join_topology_system(
            TopologySpec(patients=12, researchers=0, distinct_medications=3,
                         first_patient_id=1008),
            SystemConfig(
                ledger=LedgerConfig(
                    consensus=ConsensusConfig(kind="poa", block_interval=1.0),
                    max_transactions_per_block=16, consensus_shards=5),
                network=NetworkConfig(base_latency=0.002, latency_jitter=0.001)))
        coordinator = system.coordinator
        coordinator.subscribe_shared_diff(listener)
        _medication, patient_ids = max(patients_by_medication(system).items(),
                                       key=lambda item: len(item[1]))
        victim = patient_ids[1]
        inject(system.server_app(f"patient-{victim}"))
        raised = []
        cascade_parallel = coordinator._cascade_parallel

        def spy(*args, **kwargs):
            try:
                return cascade_parallel(*args, **kwargs)
            except WorkflowError as exc:
                raised.append(str(exc))
                raise

        coordinator._cascade_parallel = spy
        result = coordinator.commit_entry_batch([BatchGroup(
            peer="hospital", metadata_id=HOSPITAL_TABLE_ID,
            edits=tuple(EntryEdit(op="update", key=(patient_id,),
                                  values={"mechanism_of_action": "MeA-fanout"})
                        for patient_id in patient_ids))])
        trace = result.traces[0]
        assert len(raised) == 1 and message in raised[0]
        assert trace.error == raised[0]
        legs = [f"patient-{patient_id}" for patient_id in patient_ids]

        def actors(action):
            return [step.actor for step in trace.steps
                    if step.action == action and step.actor in legs]

        if fault == "missing_notification":
            # Every healthy leg's buffered middle landed, in sorted leg
            # order, before the error surfaced; no acknowledgement was mined.
            healthy = [leg for leg in legs if leg != f"patient-{victim}"]
            assert actors("notified") == actors("fetch_data") == healthy
            assert actors("acknowledge") == []
            # The hospital group itself was installed on both sides:
            # listeners still hear about it, without a diff.
            assert not trace.succeeded
            assert notified == [(HOSPITAL_TABLE_ID, None)]
        else:
            # Legs are confirmed in sorted order up to the failing one.
            assert actors("notified") == actors("fetch_data") == legs
            assert actors("acknowledge") == legs[:2]
            assert [mid for mid, _diff in notified] == [
                f"D13&D31:{patient_ids[0]}", HOSPITAL_TABLE_ID]

    def test_missing_notification_is_an_explicit_error(self, fresh_paper_system):
        """If the contract event never reaches the sharing peer (e.g. its node
        is partitioned), the workflow fails loudly instead of silently
        diverging."""
        system = fresh_paper_system
        doctor_app = system.server_app("doctor")
        # Simulate the partition by making the doctor's app drop notifications.
        doctor_app._on_event = lambda entry: None
        doctor_app.node._event_subscribers = [doctor_app._on_event]
        with pytest.raises(WorkflowError):
            system.coordinator.update_shared_entry(
                "researcher", DOCTOR_RESEARCHER_TABLE, ("Ibuprofen",),
                {"mechanism_of_action": "MeA1-v2"})

    def test_lossy_network_configuration_still_converges(self):
        """Blockchain gossip with a small drop rate: because the coordinator
        mines through the miner node and every replica applies blocks it does
        receive, the paper scenario still completes when no block gossip is
        lost for the involved nodes (drop applied to redundant traffic)."""
        config = SystemConfig.private_chain(block_interval=1.0)
        system = build_paper_scenario(config=config)
        trace = system.coordinator.update_shared_entry(
            "researcher", DOCTOR_RESEARCHER_TABLE, ("Ibuprofen",),
            {"mechanism_of_action": "MeA1-v2"})
        assert trace.succeeded
        assert system.simulator.in_consensus()


class TestLawCheckingToggle:
    def test_system_can_disable_law_checking(self):
        config = SystemConfig(check_lens_laws=False)
        system = build_paper_scenario(config=config)
        trace = system.coordinator.update_shared_entry(
            "researcher", DOCTOR_RESEARCHER_TABLE, ("Ibuprofen",),
            {"mechanism_of_action": "MeA1-v2"})
        assert trace.succeeded
        assert not system.server_app("doctor").manager.check_laws
