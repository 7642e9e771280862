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
from repro.errors import (
    InvalidTransactionError,
    SynchronizationError,
    UpdateRejected,
    WorkflowError,
)
from repro.gateway import ReadViewRequest, SharingGateway, UpdateEntryRequest
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
    """The contract event never reaches the peer (e.g. its node is partitioned).

    A validator's own node never hands it over.  A light peer's operation is
    still verified, but :meth:`LightNode.accept_operation` queues nothing; the
    trusted validator's node, which other peers use too, is left alone."""
    app._on_event = lambda entry: None
    if app.light is None:
        app.node._event_subscribers = [app._on_event]


def _break_acknowledgement(app):
    """The peer acknowledges an update the contract never issued."""
    build = app.build_contract_call

    def acknowledge_the_wrong_update(method, args, contract_address=None):
        if method == "acknowledge_update":
            args = {**args, "update_id": 999}
        return build(method, args, contract_address)

    app.build_contract_call = acknowledge_the_wrong_update


def _fanout_system():
    """The join topology on five consensus lanes: a hospital write to a
    medication's patients cascades into one view per patient."""
    return build_join_topology_system(
        TopologySpec(patients=12, researchers=0, distinct_medications=3,
                     first_patient_id=1008),
        SystemConfig(
            ledger=LedgerConfig(
                consensus=ConsensusConfig(kind="poa", block_interval=1.0),
                max_transactions_per_block=16, consensus_shards=5),
            network=NetworkConfig(base_latency=0.002, latency_jitter=0.001)))


def _hospital_write(system, patient_ids, value):
    """One batch group: the hospital sets ``mechanism_of_action`` on each
    patient's row."""
    return system.coordinator.commit_entry_batch([BatchGroup(
        peer="hospital", metadata_id=HOSPITAL_TABLE_ID,
        edits=tuple(EntryEdit(op="update", key=(patient_id,),
                              values={"mechanism_of_action": value})
                    for patient_id in patient_ids))])


SHARED_MIDDLE_FAULTS = {
    "missing_notification": (_drop_notifications, "did not receive the contract notification"),
    "failing_acknowledgement": (_break_acknowledgement, "acknowledgement by"),
}


class TestWorkflowRobustness:
    @pytest.mark.parametrize("fault", sorted(SHARED_MIDDLE_FAULTS))
    @pytest.mark.parametrize("driver", ["sequential", "batch", "parallel"])
    def test_middle_faults_keep_each_drivers_contract(self, driver, fault):
        """The notification check and the acknowledgement are shared by every
        run of the phase loop, and so is the error policy: the failing leg is
        dropped, announced without a diff, and the others finish.  Then the
        entry point raises, the batch records the error on the group's trace,
        and a cascade raises into the confirmation of the leg above it."""
        inject, message = SHARED_MIDDLE_FAULTS[fault]
        notified = []

        def listener(metadata_id, operation, peers, diff):
            notified.append((metadata_id, diff))

        if driver == "sequential":
            system = build_paper_scenario()
            system.coordinator.subscribe_shared_diff(listener)
            inject(system.server_app("doctor"))
            with pytest.raises(WorkflowError, match=message):
                system.coordinator.update_shared_entry(
                    "researcher", DOCTOR_RESEARCHER_TABLE, ("Ibuprofen",),
                    {"mechanism_of_action": "MeA1-v2"})
            # The researcher's side was installed before the fault:
            # listeners hear about it, without a diff.
            assert notified == [(DOCTOR_RESEARCHER_TABLE, None)]
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

        system = _fanout_system()
        coordinator = system.coordinator
        coordinator.subscribe_shared_diff(listener)
        _medication, patient_ids = max(patients_by_medication(system).items(),
                                       key=lambda item: len(item[1]))
        victim = patient_ids[1]
        inject(system.server_app(f"patient-{victim}"))
        raised = []
        run_legs = coordinator._run_legs

        def spy(legs, submit, rounds):
            ran = run_legs(legs, submit, rounds)
            if rounds.requests == "cascade_requests":
                raised.extend(str(leg.error) for leg in legs if leg.error is not None)
            return ran

        coordinator._run_legs = spy
        result = _hospital_write(system, patient_ids, "MeA-fanout")
        trace = result.traces[0]
        # The shared-round cascade dropped the failing leg alone, and the
        # hospital group failed with its error.
        assert len(raised) == 1 and message in raised[0]
        assert trace.error == raised[0]
        assert not trace.succeeded
        legs = [f"patient-{patient_id}" for patient_id in patient_ids]
        healthy = [leg for leg in legs if leg != f"patient-{victim}"]
        views = [f"D13&D31:{patient_id}" for patient_id in patient_ids]
        victim_view = f"D13&D31:{victim}"

        def actors(action):
            return [step.actor for step in trace.steps
                    if step.action == action and step.actor in legs]

        # Every leg's view was installed and is announced once: the healthy
        # legs finished and carry their diffs, the failing one goes without.
        # The hospital group failed, so it goes without a diff too.
        assert notified[-1] == (HOSPITAL_TABLE_ID, None)
        announced = dict(notified[:-1])
        assert len(notified) == len(views) + 1 and sorted(announced) == sorted(views)
        assert announced[victim_view] is None
        assert all(announced[view] is not None
                   for view in views if view != victim_view)
        if fault == "missing_notification":
            # The healthy legs' buffered middles landed in sorted leg order,
            # and each was acknowledged; the victim was dropped (and
            # announced) in its middle, before the ack round.
            assert actors("notified") == actors("fetch_data") == healthy
            assert actors("acknowledge") == healthy
            assert notified[0] == (victim_view, None)
        else:
            # Every leg fetched and sent its acknowledgement; legs are
            # confirmed and announced in sorted order, the failing one too.
            assert actors("notified") == actors("fetch_data") == legs
            assert actors("acknowledge") == legs
            assert [mid for mid, _diff in notified[:-1]] == views

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

    def test_gateway_rejects_a_batch_whose_nested_cascade_fails(self):
        """A hospital batch fans out into one cascade leg per patient; when a
        later leg's acknowledgement fails, every member of the batch is
        rejected and a reader of the failed leg's view gets the installed
        data, not the copy it cached before the write."""
        system = _fanout_system()
        gateway = SharingGateway(system)
        _medication, patient_ids = max(patients_by_medication(system).items(),
                                       key=lambda item: len(item[1]))
        victim = f"patient-{patient_ids[1]}"
        victim_view = f"D13&D31:{patient_ids[1]}"
        reader = gateway.open_session(victim)
        assert gateway.submit(reader, ReadViewRequest(
            metadata_id=victim_view)).status == "ok"
        assert gateway.cache.peek(victim, victim_view) is not None
        _break_acknowledgement(system.server_app(victim))
        hospital = gateway.open_session("hospital")
        responses = [gateway.submit(hospital, UpdateEntryRequest(
            metadata_id=HOSPITAL_TABLE_ID, key=(patient_id,),
            updates={"mechanism_of_action": "MeA-fanout"}))
            for patient_id in patient_ids]
        gateway.drain()
        assert {response.status for response in responses} == {"rejected"}
        assert all("acknowledgement by" in response.error
                   for response in responses)
        assert gateway.cache.peek(victim, victim_view) is None
        stored = system.peer(victim).shared_table(victim_view)
        read = gateway.submit(reader, ReadViewRequest(metadata_id=victim_view))
        assert ({row["mechanism_of_action"] for row in read.payload["table"]["rows"]}
                == {row["mechanism_of_action"] for row in stored.rows}
                == {"MeA-fanout"})

    def test_a_failed_cascade_announces_every_installed_leg(self):
        """When one patient's acknowledgement fails inside a parallel
        cascade, the failing leg's view and every later leg's view are
        already installed: each is announced to the change listeners, the
        failing one without a diff."""
        system = _fanout_system()
        announced = {}
        system.coordinator.subscribe_shared_diff(
            lambda metadata_id, _operation, _peers, diff:
            announced.setdefault(metadata_id, diff))
        gateway = SharingGateway(system)
        _medication, patient_ids = max(patients_by_medication(system).items(),
                                       key=lambda item: len(item[1]))
        victim_view = f"D13&D31:{patient_ids[1]}"
        _break_acknowledgement(system.server_app(f"patient-{patient_ids[1]}"))
        hospital = gateway.open_session("hospital")
        responses = [gateway.submit(hospital, UpdateEntryRequest(
            metadata_id=HOSPITAL_TABLE_ID, key=(patient_id,),
            updates={"mechanism_of_action": "MeA-fanout"}))
            for patient_id in patient_ids]
        gateway.drain()
        assert {response.status for response in responses} == {"rejected"}
        later_views = [f"D13&D31:{patient_id}" for patient_id in patient_ids[2:]]
        assert later_views
        for view in [victim_view] + later_views:
            assert view in announced, view
            stored = system.peer(f"patient-{view.split(':')[1]}").shared_table(view)
            assert {row["mechanism_of_action"] for row in stored.rows} == {"MeA-fanout"}
        assert announced[victim_view] is None


    def test_a_lost_notification_leaves_the_healthy_legs_writable(self):
        """One patient's contract notification is lost inside a fan-out: the
        other patients' legs still fetch, acknowledge and finish, so the next
        hospital write to a healthy patient reaches that patient's view
        instead of being refused for an unacknowledged update."""
        system = _fanout_system()
        _medication, patient_ids = max(patients_by_medication(system).items(),
                                       key=lambda item: len(item[1]))
        victim, healthy = patient_ids[1], patient_ids[2]
        _drop_notifications(system.server_app(f"patient-{victim}"))
        first = _hospital_write(system, patient_ids, "MeA-first").traces[0]
        assert not first.succeeded
        assert "did not receive the contract notification" in first.error
        second = _hospital_write(system, [healthy], "MeA-second").traces[0]
        assert second.succeeded, second.error
        assert not any(step.action == "cascade_rejected" for step in second.steps)
        view = f"D13&D31:{healthy}"
        stored = system.peer(f"patient-{healthy}").shared_table(view)
        assert {row["mechanism_of_action"] for row in stored.rows} == {"MeA-second"}
        # Only the victim, who never fetched, lags its doctor.
        assert [mid for mid in sorted(system.agreement_ids)
                if not system.shared_tables_consistent(mid)] == [f"D13&D31:{victim}"]


class TestLawChecking:
    def test_system_refuses_an_unlawful_put(self):
        """PutGet is always checked when a peer reflects a shared table into
        its base table: a BX program whose put ignores the view fails the
        update and leaves the base table untouched."""
        system = build_paper_scenario(
            config=SystemConfig(delta_propagation=False))
        doctor = system.peer("doctor")
        honest = doctor.bx_program(DOCTOR_RESEARCHER_TABLE)

        class _BrokenLens:
            name = "broken"

            def get(self, source):
                return honest.lens.get(source)

            def put(self, source, view):
                return source.snapshot()

        doctor.bx.register("BX-D32", source_table="D3", view_name="D32",
                           lens=_BrokenLens())
        before = doctor.local_table("D3").snapshot()
        with pytest.raises(SynchronizationError, match="PutGet law violated"):
            system.coordinator.update_shared_entry(
                "researcher", DOCTOR_RESEARCHER_TABLE, ("Ibuprofen",),
                {"mechanism_of_action": "MeA1-v2"})
        assert doctor.local_table("D3") == before
    def test_a_batch_group_whose_own_put_fails_fails_alone(self):
        """A direct edit is ``put`` into the initiator's base table as soon as
        the contract accepts it: a failure there fails that group alone,
        announced without a diff, and the rest of the batch commits."""
        system = build_paper_scenario()
        notified = []
        system.coordinator.subscribe_shared_diff(
            lambda metadata_id, _operation, _peers, diff:
            notified.append((metadata_id, diff is None)))
        manager = system.server_app("doctor").manager
        reflect = manager.reflect_shared_table_delta

        def failing_put(metadata_id, view_diff):
            if metadata_id == PATIENT_DOCTOR_TABLE:
                raise SynchronizationError("the doctor's put failed")
            return reflect(metadata_id, view_diff)

        manager.reflect_shared_table_delta = failing_put
        result = system.coordinator.commit_entry_batch([
            BatchGroup(peer="doctor", metadata_id=PATIENT_DOCTOR_TABLE,
                       edits=(EntryEdit(op="update", key=(188,),
                                        values={"dosage": "broken put"}),)),
            BatchGroup(peer="researcher", metadata_id=DOCTOR_RESEARCHER_TABLE,
                       edits=(EntryEdit(op="update", key=("Ibuprofen",),
                                        values={"mechanism_of_action": "MeA1-v2"}),))])
        failed, committed = result.traces
        assert not failed.succeeded and failed.error == "the doctor's put failed"
        assert committed.succeeded and committed.error is None
        assert result.consensus_rounds == 2
        assert notified == [(PATIENT_DOCTOR_TABLE, True), (DOCTOR_RESEARCHER_TABLE, False)]

