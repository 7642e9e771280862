"""Thread races: worker pool commits vs concurrent cache reads.

These tests line threads up with barriers (no ``time.sleep`` synchronisation
anywhere) and hammer the two surfaces the lock split exposes:

* **torn cache patches** — every write updates two columns atomically in one
  edit, so any reader that ever observes the columns disagreeing caught a
  half-applied patch;
* **lost invalidations/patches** — after the pool drains, every cached view
  must be byte-identical to a freshly materialised one.
"""

import threading

import pytest

from repro.config import SystemConfig
from repro.gateway import (
    GatewayWorkerPool,
    ReadViewRequest,
    SharingGateway,
    STATUS_OK,
    UpdateEntryRequest,
)
from repro.workloads.topology import TopologySpec, build_topology_system

pytestmark = [pytest.mark.slow]

ROUNDS = 12
READERS = 3


def build_system(patients=2):
    return build_topology_system(TopologySpec(patients=patients, researchers=0),
                                 SystemConfig.private_chain(1.0))


def tenant_tables(system):
    return {f"patient-{mid.split(':')[1]}": mid for mid in system.agreement_ids}


class TestConcurrentCommitsAndReads:
    def test_no_torn_patches_no_lost_updates(self):
        system = build_system(patients=2)
        tables = tenant_tables(system)
        gateway = SharingGateway(system, max_batch_size=4)
        # The doctor holds write permission on both columns, so each write
        # updates clinical_data AND dosage to the same tag in one edit — a
        # single diff row the cache must apply atomically.
        doctor = gateway.open_session("doctor")
        # Readers connect as the doctor too: the hub peer is party to every
        # agreement, so each reader can sweep all shared views.
        reader_sessions = [gateway.open_session("doctor") for _ in range(READERS)]
        torn = []
        reader_errors = []
        barrier = threading.Barrier(READERS + 1)
        writes_done = threading.Event()

        def read_loop(session):
            try:
                barrier.wait(timeout=30)
                while True:
                    for metadata_id in tables.values():
                        response = gateway.submit(session, ReadViewRequest(metadata_id))
                        assert response.status == STATUS_OK
                        for row in response.payload["table"]["rows"]:
                            tag = row["clinical_data"]
                            if tag.startswith("race-") and row["dosage"] != tag:
                                torn.append((tag, row["dosage"]))
                    if writes_done.is_set() and gateway.outstanding_writes == 0:
                        return
            except Exception as exc:  # noqa: BLE001 - surfaced in the assert
                reader_errors.append(f"{type(exc).__name__}: {exc}")

        readers = [threading.Thread(target=read_loop, args=(session,), daemon=True)
                   for session in reader_sessions]
        responses = []
        with GatewayWorkerPool(gateway, workers=2) as pool:
            for thread in readers:
                thread.start()
            barrier.wait(timeout=30)
            for round_index in range(ROUNDS):
                tag = f"race-{round_index}"
                for metadata_id in sorted(tables.values()):
                    patient_id = int(metadata_id.split(":")[1])
                    responses.append(gateway.submit(doctor, UpdateEntryRequest(
                        metadata_id=metadata_id, key=(patient_id,),
                        updates={"clinical_data": tag, "dosage": tag})))
            assert pool.join_idle(timeout=60.0)
            writes_done.set()
            for thread in readers:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in readers)
            assert not pool.errors, pool.errors

        assert not reader_errors, reader_errors
        assert not torn, f"readers observed torn cache patches: {torn[:5]}"
        assert all(response.status == STATUS_OK for response in responses)

        # No lost invalidation or patch: every cached view now equals a
        # freshly materialised one, and carries the final round's tag.
        final_tag = f"race-{ROUNDS - 1}"
        for peer, metadata_id in tables.items():
            cached = gateway.cache.peek(peer, metadata_id)
            if cached is None:
                continue  # dropped entries are allowed — stale ones are not
            fresh = system.coordinator.read_shared_data(peer, metadata_id)
            assert cached.fingerprint() == fresh.fingerprint(), (
                f"cached view of {metadata_id} for {peer} went stale")
            patient_id = int(metadata_id.split(":")[1])
            assert fresh.get((patient_id,))["clinical_data"] == final_tag
        assert system.all_shared_tables_consistent()

    def test_interleaved_admission_is_observable(self):
        """While the pool mines, the driver keeps admitting: the transport
        metrics must show requests admitted during in-flight commits."""
        system = build_system(patients=3)
        tables = tenant_tables(system)
        gateway = SharingGateway(system, max_batch_size=2)
        doctor = gateway.open_session("doctor")
        commit_started = threading.Event()

        original = system.coordinator.commit_entry_batch

        def signalling_commit(groups):
            commit_started.set()
            return original(groups)

        system.coordinator.commit_entry_batch = signalling_commit
        with GatewayWorkerPool(gateway, workers=1) as pool:
            # First write: the worker picks it up and starts mining.
            first_table = sorted(tables.values())[0]
            patient_id = int(first_table.split(":")[1])
            gateway.submit(doctor, UpdateEntryRequest(
                first_table, (patient_id,), {"dosage": "first"}))
            assert commit_started.wait(timeout=30)
            # Admit more work while that commit is (or was just) in flight.
            for metadata_id in sorted(tables.values())[1:]:
                patient_id = int(metadata_id.split(":")[1])
                gateway.submit(doctor, UpdateEntryRequest(
                    metadata_id, (patient_id,), {"dosage": "second-wave"}))
            assert pool.join_idle(timeout=60.0)
        metrics = gateway.metrics()
        assert metrics["transport"]["commits_in_flight"] == 0
        assert metrics["queue"]["outstanding_writes"] == 0
        assert gateway.metrics()["batches"]["writes_committed"] == len(tables)

    def test_concurrent_commit_once_from_many_threads(self):
        """commit_once from N racing threads must commit every write exactly
        once (the commit lock serialises, the planner never double-plans)."""
        system = build_system(patients=3)
        tables = tenant_tables(system)
        gateway = SharingGateway(system, max_batch_size=2)
        sessions = {peer: gateway.open_session(peer) for peer in tables}
        for peer, metadata_id in sorted(tables.items()):
            patient_id = int(metadata_id.split(":")[1])
            for round_index in range(3):
                gateway.submit(sessions[peer], UpdateEntryRequest(
                    metadata_id, (patient_id,),
                    {"clinical_data": f"n-{round_index}"}))
        barrier = threading.Barrier(4)
        errors = []

        def drain_loop():
            try:
                barrier.wait(timeout=30)
                while gateway.commit_once() is not None:
                    pass
            except Exception as exc:  # noqa: BLE001
                errors.append(f"{type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=drain_loop, daemon=True) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert gateway.outstanding_writes == 0
        assert gateway.metrics()["batches"]["writes_committed"] == 3 * len(tables)
        for peer, metadata_id in tables.items():
            patient_id = int(metadata_id.split(":")[1])
            view = system.peer(peer).shared_table(metadata_id)
            assert view.get((patient_id,))["clinical_data"] == "n-2"
        assert system.all_shared_tables_consistent()
