"""End-to-end gateway behaviour: batching, contention, workers, metrics."""

import pytest

from repro.config import SystemConfig
from repro.core.scenario import DOCTOR_RESEARCHER_TABLE, PATIENT_DOCTOR_TABLE
from repro.core.workflow import BatchGroup, EntryEdit
from repro.errors import WorkflowError
from repro.gateway import GatewayWorkerPool, SharingGateway
from repro.gateway.requests import (
    AuditQueryRequest,
    DeleteEntryRequest,
    ReadViewRequest,
    UpdateEntryRequest,
    STATUS_OK,
    STATUS_QUEUED,
    STATUS_REJECTED,
)


def _tenant_tables(system):
    return {f"patient-{mid.split(':')[1]}": mid for mid in system.agreement_ids}


def _submit_doctor_rounds(gateway, doctor, tables, rounds):
    """``rounds`` doctor updates of every per-patient table, in table order."""
    responses = []
    for round_number in range(rounds):
        for metadata_id in tables:
            patient_id = int(metadata_id.split(":")[1])
            responses.append(gateway.submit(doctor, UpdateEntryRequest(
                metadata_id=metadata_id, key=(patient_id,),
                updates={"clinical_data": f"round-{round_number}",
                         "dosage": f"round-{round_number}"})))
    return responses


class TestWritePath:
    def test_write_queues_then_commits(self, paper_gateway):
        gateway = paper_gateway
        doctor = gateway.open_session("doctor")
        response = gateway.submit(doctor, UpdateEntryRequest(
            PATIENT_DOCTOR_TABLE, (188,), {"dosage": "two tablets every 6h"}))
        assert response.status == STATUS_QUEUED
        assert gateway.queue_depth == 1
        result = gateway.commit_once()
        assert result.accepted == 1
        assert response.status == STATUS_OK  # the response object is live
        assert response.latency > 0
        stored = gateway.system.peer("patient").shared_table(PATIENT_DOCTOR_TABLE)
        assert stored.get((188,))["dosage"] == "two tablets every 6h"

    def test_unauthorised_write_rejected_before_queueing(self, paper_gateway):
        gateway = paper_gateway
        patient = gateway.open_session("patient")
        response = gateway.submit(patient, UpdateEntryRequest(
            PATIENT_DOCTOR_TABLE, (188,), {"dosage": "all of it"}))
        assert response.status == STATUS_REJECTED
        assert "may not write" in response.error
        assert gateway.queue_depth == 0

    def test_batch_from_many_tenants_shares_two_consensus_rounds(self, topology_gateway):
        gateway = topology_gateway
        system = gateway.system
        tables = _tenant_tables(system)
        height_before = system.simulator.nodes[0].chain.height
        for peer, metadata_id in sorted(tables.items()):
            session = gateway.open_session(peer)
            patient_id = int(metadata_id.split(":")[1])
            gateway.submit(session, UpdateEntryRequest(
                metadata_id, (patient_id,), {"clinical_data": f"new-{patient_id}"}))
        result = gateway.commit_once()
        assert result.accepted == len(tables)
        assert result.consensus_rounds == 2
        # 4 independent updates landed in 2 blocks total (requests + acks).
        assert system.simulator.nodes[0].chain.height == height_before + 2
        assert system.all_shared_tables_consistent()

    def test_delete_through_gateway(self, paper_gateway):
        gateway = paper_gateway
        doctor = gateway.open_session("doctor")
        response = gateway.submit(doctor, DeleteEntryRequest(PATIENT_DOCTOR_TABLE, (188,)))
        gateway.drain()
        assert response.ok
        system = gateway.system
        assert not system.peer("patient").shared_table(PATIENT_DOCTOR_TABLE).contains_key(188)
        assert not system.peer("doctor").local_table("D3").contains_key(188)


class TestCrossPeerFoldEndToEnd:
    def test_disjoint_cross_peer_writes_share_one_round_pair(self, extended_gateway):
        """Doctor (dosage, row 188) and patient (clinical_data, row 189) fold
        into one group: one request_folded_update + one ack instead of two
        full round pairs, and both edits land on both peers."""
        from repro.core.scenario import CARE_TABLE

        gateway = extended_gateway
        system = gateway.system
        doctor = gateway.open_session("doctor")
        patient = gateway.open_session("patient")
        doc_response = gateway.submit(doctor, UpdateEntryRequest(
            CARE_TABLE, (188,), {"dosage": "two tablets every 6h"}))
        pat_response = gateway.submit(patient, UpdateEntryRequest(
            CARE_TABLE, (189,), {"clinical_data": "patient-reported"}))
        result = gateway.commit_once()
        assert result.consensus_rounds == 2  # cascades mine their own rounds
        assert doc_response.ok and pat_response.ok
        for peer in ("doctor", "patient"):
            stored = system.peer(peer).shared_table(CARE_TABLE)
            assert stored.get((188,))["dosage"] == "two tablets every 6h"
            assert stored.get((189,))["clinical_data"] == "patient-reported"
        assert system.all_shared_tables_consistent()
        # The fold is visible on-chain (per-contributor record) and sound.
        contract = system.simulator.nodes[0].contract_at(system.contract_address)
        folded = [record for record in contract.history if record.contributions]
        assert len(folded) == 1
        assert len(folded[0].contributions) == 2
        assert system.check_contract_specification().passed
        metrics = gateway.metrics()
        assert metrics["batches"]["folded_writes"] == 1
        assert metrics["batches"]["fold_rounds_saved"] == 2

    def test_fold_disabled_keeps_two_round_pairs(self):
        from repro.core.scenario import CARE_TABLE, build_extended_scenario

        system = build_extended_scenario(SystemConfig.private_chain(1.0))
        gateway = SharingGateway(system, fold_cross_peer=False)
        doctor = gateway.open_session("doctor")
        patient = gateway.open_session("patient")
        gateway.submit(doctor, UpdateEntryRequest(
            CARE_TABLE, (188,), {"dosage": "two tablets every 6h"}))
        gateway.submit(patient, UpdateEntryRequest(
            CARE_TABLE, (189,), {"clinical_data": "patient-reported"}))
        batches = gateway.drain()
        assert batches == 2
        assert gateway.metrics()["batches"]["consensus_rounds"] == 4
        assert gateway.metrics()["batches"]["folded_writes"] == 0
        assert system.all_shared_tables_consistent()

    def test_shard_metrics_reported(self, paper_gateway):
        metrics = paper_gateway.metrics()
        assert metrics["shards"]["count"] == 1
        assert metrics["shards"]["queue_depth"] == {0: 0}
        assert metrics["shards"]["mempool_depth"] == [0]
        assert "lanes" not in metrics["shards"]


class TestContention:
    def test_same_key_writes_from_two_peers_both_apply(self, paper_gateway):
        """Concurrent same-key writes serialise across batches: neither the
        doctor's dosage edit nor the patient's clinical-data edit is lost."""
        gateway = paper_gateway
        doctor = gateway.open_session("doctor")
        patient = gateway.open_session("patient")
        first = gateway.submit(doctor, UpdateEntryRequest(
            PATIENT_DOCTOR_TABLE, (188,), {"dosage": "two tablets every 6h"}))
        second = gateway.submit(patient, UpdateEntryRequest(
            PATIENT_DOCTOR_TABLE, (188,), {"clinical_data": "CliD1-v2"}))
        batches = gateway.drain()
        assert batches == 2  # serialised, not merged
        assert first.ok and second.ok
        row = gateway.system.peer("doctor").shared_table(PATIENT_DOCTOR_TABLE).get((188,))
        assert row["dosage"] == "two tablets every 6h"
        assert row["clinical_data"] == "CliD1-v2"
        assert gateway.system.all_shared_tables_consistent()

    def test_same_attribute_writes_apply_in_arrival_order(self, paper_gateway):
        gateway = paper_gateway
        doctor = gateway.open_session("doctor")
        first = gateway.submit(doctor, UpdateEntryRequest(
            PATIENT_DOCTOR_TABLE, (188,), {"dosage": "v1"}))
        second = gateway.submit(doctor, UpdateEntryRequest(
            PATIENT_DOCTOR_TABLE, (188,), {"dosage": "v2"}))
        gateway.drain()
        assert first.ok and second.ok
        # Last arrival wins because both committed, in order, as separate rounds.
        row = gateway.system.peer("patient").shared_table(PATIENT_DOCTOR_TABLE).get((188,))
        assert row["dosage"] == "v2"
        history = gateway.system.server_app("doctor").query_contract(
            "update_history", metadata_id=PATIENT_DOCTOR_TABLE)
        assert len(history) == 2

    def test_invalid_edit_does_not_poison_its_group(self, paper_gateway):
        """A bad edit (missing key) folded into a group with a valid edit is
        rejected alone; the valid group mate still commits."""
        gateway = paper_gateway
        doctor = gateway.open_session("doctor")
        bad = gateway.submit(doctor, UpdateEntryRequest(
            PATIENT_DOCTOR_TABLE, (99999,), {"dosage": "ghost"}))
        good = gateway.submit(doctor, UpdateEntryRequest(
            PATIENT_DOCTOR_TABLE, (188,), {"dosage": "two tablets every 6h"}))
        gateway.drain()
        assert bad.status == STATUS_REJECTED
        assert "99999" in bad.error
        assert good.ok
        row = gateway.system.peer("patient").shared_table(PATIENT_DOCTOR_TABLE).get((188,))
        assert row["dosage"] == "two tablets every 6h"
        metrics = gateway.metrics()
        assert metrics["batches"]["writes_committed"] == 1
        assert metrics["batches"]["writes_rejected"] == 1

    def test_failed_group_still_invalidates_cached_views(self, paper_gateway):
        """Whatever a group's outcome, cached views of its table are dropped
        after the commit, so readers can never be served around a failure."""
        gateway = paper_gateway
        doctor = gateway.open_session("doctor")
        gateway.submit(doctor, ReadViewRequest(PATIENT_DOCTOR_TABLE))
        assert gateway.cache.peek("doctor", PATIENT_DOCTOR_TABLE) is not None
        response = gateway.submit(doctor, UpdateEntryRequest(
            PATIENT_DOCTOR_TABLE, (188,), {"clinical_data": "will-be-revoked"}))
        gateway.system.coordinator.change_permission(
            "doctor", PATIENT_DOCTOR_TABLE, "clinical_data", ["Patient"])
        gateway.drain()
        assert response.status == STATUS_REJECTED
        assert gateway.cache.peek("doctor", PATIENT_DOCTOR_TABLE) is None

    def test_commit_blowup_terminal_fails_every_member(self, paper_gateway, monkeypatch):
        """If the coordinator itself raises, queued responses still reach a
        terminal status instead of hanging at QUEUED forever."""
        from repro.errors import WorkflowError
        from repro.gateway.requests import STATUS_ERROR

        gateway = paper_gateway
        doctor = gateway.open_session("doctor")
        response = gateway.submit(doctor, UpdateEntryRequest(
            PATIENT_DOCTOR_TABLE, (188,), {"dosage": "x"}))

        def explode(groups):
            raise WorkflowError("synthetic commit failure")

        monkeypatch.setattr(gateway.system.coordinator, "commit_entry_batch", explode)
        with pytest.raises(WorkflowError):
            gateway.commit_once()
        assert response.status == STATUS_ERROR
        assert "synthetic commit failure" in response.error
        assert gateway.outstanding_writes == 0

    def test_batch_with_duplicate_tables_is_refused_by_coordinator(self, paper_gateway):
        coordinator = paper_gateway.system.coordinator
        group = BatchGroup(peer="doctor", metadata_id=PATIENT_DOCTOR_TABLE,
                           edits=(EntryEdit(op="update", key=(188,),
                                            values={"dosage": "x"}),))
        with pytest.raises(WorkflowError):
            coordinator.commit_entry_batch([group, group])


class TestWorkerPool:
    def test_threaded_workers_drain_the_queue(self, topology_gateway):
        gateway = topology_gateway
        tables = _tenant_tables(gateway.system)
        responses = []
        sessions = {peer: gateway.open_session(peer) for peer in tables}
        for peer, metadata_id in sorted(tables.items()):
            patient_id = int(metadata_id.split(":")[1])
            for round_index in range(2):
                responses.append(gateway.submit(sessions[peer], UpdateEntryRequest(
                    metadata_id, (patient_id,),
                    {"clinical_data": f"w-{patient_id}-{round_index}"})))
        with GatewayWorkerPool(gateway, workers=3) as pool:
            assert pool.join_idle(timeout=30.0)
        assert pool.batches_committed >= 1
        assert all(response.ok for response in responses)
        assert gateway.system.all_shared_tables_consistent()

    def test_pool_lifecycle(self, paper_gateway):
        pool = GatewayWorkerPool(paper_gateway, workers=1)
        pool.start()
        with pytest.raises(RuntimeError):
            pool.start()
        pool.stop()
        assert not pool.running

    def test_classic_pool_unchanged(self, topology_gateway):
        """The pool's commits land in the gateway's one pump record
        (``["transport"]["pump"]`` since the ``{"all": …}`` nesting left by
        the deleted per-shard pumps was flattened — this assertion's path is
        one of the two that moved with it)."""
        gateway = topology_gateway
        doctor = gateway.open_session("doctor")
        tables = sorted(gateway.system.agreement_ids)
        with GatewayWorkerPool(gateway, workers=2) as pool:
            responses = _submit_doctor_rounds(gateway, doctor, tables, rounds=3)
            assert pool.join_idle(timeout=60.0)
        assert all(response.ok for response in responses)
        assert gateway.metrics()["transport"]["pump"]["commits"] >= 1


class TestReadsAndMetrics:
    def test_unfiltered_commits_use_the_all_key(self, topology_gateway):
        """Every commit is counted in the one pump record, read at
        ``["transport"]["pump"]`` (was ``["pumps"]["all"]``: the only
        intended change to this assertion is that path)."""
        gateway = topology_gateway
        doctor = gateway.open_session("doctor")
        tables = sorted(gateway.system.agreement_ids)
        _submit_doctor_rounds(gateway, doctor, tables, rounds=1)
        gateway.drain()
        pump = gateway.metrics()["transport"]["pump"]
        assert pump["commits"] >= 1
        assert pump["writes"] == len(tables)

    def test_audit_query(self, paper_gateway):
        gateway = paper_gateway
        doctor = gateway.open_session("doctor")
        gateway.submit(doctor, UpdateEntryRequest(
            PATIENT_DOCTOR_TABLE, (188,), {"dosage": "two tablets every 6h"}))
        gateway.drain()
        response = gateway.submit(doctor, AuditQueryRequest(PATIENT_DOCTOR_TABLE))
        assert response.ok
        assert response.payload["count"] == 1
        assert response.payload["records"][0]["operation"] == "update"

    def test_rejected_writes_do_not_count_as_committed(self, paper_gateway):
        """A contract-rejected group must not inflate writes_committed (the
        session-side permission probe is bypassed here by revoking write
        permission after the request was queued)."""
        gateway = paper_gateway
        system = gateway.system
        doctor = gateway.open_session("doctor")
        response = gateway.submit(doctor, UpdateEntryRequest(
            PATIENT_DOCTOR_TABLE, (188,), {"clinical_data": "queued-then-revoked"}))
        system.coordinator.change_permission(
            "doctor", PATIENT_DOCTOR_TABLE, "clinical_data", ["Patient"])
        gateway.drain()
        assert response.status == STATUS_REJECTED
        metrics = gateway.metrics()
        assert metrics["batches"]["writes_committed"] == 0
        assert metrics["batches"]["writes_rejected"] == 1
        # The counter landed on the right session even so.
        assert doctor.counters[STATUS_REJECTED] == 1

    def test_closed_session_still_gets_terminal_counters(self, paper_gateway):
        gateway = paper_gateway
        doctor = gateway.open_session("doctor")
        response = gateway.submit(doctor, UpdateEntryRequest(
            PATIENT_DOCTOR_TABLE, (188,), {"dosage": "x"}))
        gateway.close_session(doctor)
        gateway.drain()
        assert response.ok
        assert doctor.counters[STATUS_OK] == 1

    def test_metrics_shape(self, paper_gateway):
        gateway = paper_gateway
        doctor = gateway.open_session("doctor")
        gateway.submit(doctor, ReadViewRequest(PATIENT_DOCTOR_TABLE))
        gateway.submit(doctor, ReadViewRequest(PATIENT_DOCTOR_TABLE))
        gateway.submit(doctor, UpdateEntryRequest(
            PATIENT_DOCTOR_TABLE, (188,), {"dosage": "x"}))
        gateway.drain()
        metrics = gateway.metrics()
        assert metrics["requests"]["total"] == 3
        assert metrics["requests"]["by_status"][STATUS_OK] == 3
        assert metrics["batches"]["committed"] == 1
        assert metrics["batches"]["consensus_rounds"] == 2
        assert metrics["cache"]["hit_rate"] == 0.5
        assert metrics["queue"]["depth"] == 0
        tenant = metrics["tenants"]["doctor"]
        assert tenant["count"] == 3
        assert tenant["p95"] >= 0
        assert tenant["p99"] >= tenant["p95"]


class TestServingHooks:
    """The terminal/enqueue hooks and the interleave metrics added for the
    async transport and the event-driven worker pool."""

    def test_terminal_listener_fires_for_every_terminal_status(self, paper_gateway):
        gateway = paper_gateway
        seen = []
        gateway.subscribe_terminal(lambda response: seen.append(
            (response.request_id, response.status)))
        researcher = gateway.open_session("researcher")
        patient = gateway.open_session("patient", rate=0.001, burst=1.0)
        ok_read = gateway.submit(researcher, ReadViewRequest(DOCTOR_RESEARCHER_TABLE))
        throttled = gateway.submit(patient, ReadViewRequest(PATIENT_DOCTOR_TABLE))
        throttled2 = gateway.submit(patient, ReadViewRequest(PATIENT_DOCTOR_TABLE))
        queued = gateway.submit(researcher, UpdateEntryRequest(
            DOCTOR_RESEARCHER_TABLE, ("Ibuprofen",),
            {"mechanism_of_action": "MeA1-hooked"}))
        statuses = dict(seen)
        assert statuses[ok_read.request_id] == "ok"
        assert "throttled" in (statuses.get(throttled.request_id),
                               statuses.get(throttled2.request_id))
        assert queued.request_id not in statuses  # not terminal yet
        gateway.drain()
        statuses = dict(seen)
        assert statuses[queued.request_id] == "ok"

    def test_enqueue_listener_reports_queue_depth(self, paper_gateway):
        gateway = paper_gateway
        depths = []
        gateway.subscribe_enqueue(depths.append)
        researcher = gateway.open_session("researcher")
        for index in range(3):
            gateway.submit(researcher, UpdateEntryRequest(
                DOCTOR_RESEARCHER_TABLE, ("Ibuprofen",),
                {"mechanism_of_action": f"MeA1-{index}"}))
        assert depths == [1, 2, 3]
        # Reads do not enqueue.
        gateway.submit(researcher, ReadViewRequest(DOCTOR_RESEARCHER_TABLE))
        assert depths == [1, 2, 3]
        gateway.drain()

    def test_transport_metrics_quiesce(self, paper_gateway):
        gateway = paper_gateway
        researcher = gateway.open_session("researcher")
        gateway.submit(researcher, UpdateEntryRequest(
            DOCTOR_RESEARCHER_TABLE, ("Ibuprofen",),
            {"mechanism_of_action": "MeA1-metrics"}))
        gateway.drain()
        transport = gateway.metrics()["transport"]
        assert transport["commits_in_flight"] == 0
        assert transport["commits_in_flight_peak"] == 1
        assert transport["outstanding_writes_peak"] >= 1
        assert gateway.metrics()["queue"]["outstanding_writes"] == 0

    def test_session_statistics_snapshot(self, paper_gateway):
        gateway = paper_gateway
        researcher = gateway.open_session("researcher", rate=2.0, burst=4.0)
        gateway.submit(researcher, ReadViewRequest(DOCTOR_RESEARCHER_TABLE))
        stats = researcher.statistics()
        assert stats["tenant"] == "researcher"
        assert stats["role"] == "Researcher"
        assert stats["counters"]["ok"] == 1
        assert stats["rate"] == 2.0 and stats["burst"] == 4.0
        assert 0 <= stats["tokens_available"] <= 4.0
        assert stats["closed"] is False

    def test_join_idle_wakes_on_terminal_not_polling(self, topology_gateway):
        gateway = topology_gateway
        tables = {f"patient-{mid.split(':')[1]}": mid
                  for mid in gateway.system.agreement_ids}
        sessions = {peer: gateway.open_session(peer) for peer in tables}
        with GatewayWorkerPool(gateway, workers=2) as pool:
            for peer, metadata_id in sorted(tables.items()):
                patient_id = int(metadata_id.split(":")[1])
                gateway.submit(sessions[peer], UpdateEntryRequest(
                    metadata_id, (patient_id,), {"clinical_data": "evented"}))
            assert pool.join_idle(timeout=30.0)
            assert gateway.outstanding_writes == 0
        # Idle pool with an empty queue parks on the enqueue event and still
        # shuts down cleanly (stop() wakes it) — reaching here proves it.
        assert not pool.running
