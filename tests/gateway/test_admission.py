"""Gateway-wide admission control: queue-depth load shedding on both transports."""

import asyncio

import pytest

from repro.config import SystemConfig
from repro.gateway import (
    AsyncSharingGateway,
    ReadViewRequest,
    SharingGateway,
    STATUS_OK,
    STATUS_QUEUED,
    STATUS_SHED,
    UpdateEntryRequest,
    WriteScheduler,
)
from repro.workloads.topology import TopologySpec, build_topology_system


def build_gateway(max_queue_depth, patients=2):
    system = build_topology_system(TopologySpec(patients=patients, researchers=0),
                                   SystemConfig.private_chain(1.0))
    return SharingGateway(system, max_queue_depth=max_queue_depth), system


def tenant_tables(system):
    return {f"patient-{mid.split(':')[1]}": mid for mid in system.agreement_ids}


def update_for(metadata_id, tag):
    patient_id = int(metadata_id.split(":")[1])
    return UpdateEntryRequest(metadata_id=metadata_id, key=(patient_id,),
                              updates={"clinical_data": tag})


class TestSchedulerCapacity:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            WriteScheduler(max_queue_depth=0)

    def test_at_capacity_flag(self):
        scheduler = WriteScheduler(max_queue_depth=1)
        assert not scheduler.at_capacity
        scheduler.enqueue(_pending("req-1"))
        assert scheduler.at_capacity

    def test_no_capacity_means_never_at_capacity(self):
        scheduler = WriteScheduler()
        for index in range(100):
            scheduler.enqueue(_pending(f"req-{index}"))
        assert not scheduler.at_capacity

    def test_oldest_enqueued_at(self):
        scheduler = WriteScheduler()
        assert scheduler.oldest_enqueued_at is None
        scheduler.enqueue(_pending("req-1", enqueued_at=5.0))
        scheduler.enqueue(_pending("req-2", enqueued_at=9.0))
        assert scheduler.oldest_enqueued_at == 5.0


def _pending(request_id, enqueued_at=0.0):
    from repro.gateway import PendingWrite

    return PendingWrite(request_id=request_id, tenant="t", peer="t",
                        request=UpdateEntryRequest("m", (1,), {"a": "b"}),
                        enqueued_at=enqueued_at)


class TestSyncShedding:
    def test_write_shed_at_capacity(self):
        gateway, system = build_gateway(max_queue_depth=1)
        tables = tenant_tables(system)
        peer, metadata_id = sorted(tables.items())[0]
        session = gateway.open_session(peer)
        accepted = gateway.submit(session, update_for(metadata_id, "first"))
        assert accepted.status == STATUS_QUEUED
        shed = gateway.submit(session, update_for(metadata_id, "second"))
        assert shed.status == STATUS_SHED
        assert shed.shed and shed.terminal
        assert "capacity" in shed.error
        assert gateway.metrics()["queue"]["shed_requests"] == 1
        metrics = gateway.metrics()
        assert metrics["queue"]["shed_requests"] == 1
        assert metrics["queue"]["capacity"] == 1
        assert metrics["requests"]["by_status"][STATUS_SHED] == 1

    def test_reads_never_shed(self):
        gateway, system = build_gateway(max_queue_depth=1)
        tables = tenant_tables(system)
        peer, metadata_id = sorted(tables.items())[0]
        session = gateway.open_session(peer)
        gateway.submit(session, update_for(metadata_id, "fill"))
        response = gateway.submit(session, ReadViewRequest(metadata_id))
        assert response.status == STATUS_OK

    def test_shed_then_recover(self):
        gateway, system = build_gateway(max_queue_depth=1)
        tables = tenant_tables(system)
        peer, metadata_id = sorted(tables.items())[0]
        patient_id = int(metadata_id.split(":")[1])
        session = gateway.open_session(peer)
        gateway.submit(session, update_for(metadata_id, "committed"))
        assert gateway.submit(session, update_for(metadata_id, "lost")).shed
        # Draining makes room again: the next write is accepted and applied.
        gateway.drain()
        recovered = gateway.submit(session, update_for(metadata_id, "recovered"))
        assert recovered.status == STATUS_QUEUED
        gateway.drain()
        assert recovered.status == STATUS_OK
        view = system.peer(peer).shared_table(metadata_id)
        assert view.get((patient_id,))["clinical_data"] == "recovered"
        assert gateway.metrics()["queue"]["shed_requests"] == 1

    def test_shed_response_not_counted_as_outstanding(self):
        gateway, system = build_gateway(max_queue_depth=1)
        tables = tenant_tables(system)
        peer, metadata_id = sorted(tables.items())[0]
        session = gateway.open_session(peer)
        gateway.submit(session, update_for(metadata_id, "fill"))
        gateway.submit(session, update_for(metadata_id, "shed-me"))
        assert gateway.outstanding_writes == 1
        gateway.drain()
        assert gateway.outstanding_writes == 0

    def test_session_counters_track_shed(self):
        gateway, system = build_gateway(max_queue_depth=1)
        tables = tenant_tables(system)
        peer, metadata_id = sorted(tables.items())[0]
        session = gateway.open_session(peer)
        gateway.submit(session, update_for(metadata_id, "fill"))
        gateway.submit(session, update_for(metadata_id, "shed-me"))
        stats = session.statistics()
        assert stats["counters"][STATUS_SHED] == 1
        assert stats["tenant"] == peer


class TestAsyncShedding:
    def test_shed_future_resolves_immediately_and_recovers(self):
        async def scenario():
            system = build_topology_system(TopologySpec(patients=2, researchers=0),
                                           SystemConfig.private_chain(1.0))
            tables = tenant_tables(system)
            peer, metadata_id = sorted(tables.items())[0]
            patient_id = int(metadata_id.split(":")[1])
            gateway = SharingGateway(system, max_queue_depth=1)
            # A huge seal depth + long idle keeps the pump from draining the
            # queue before the shed happens.
            async with AsyncSharingGateway(gateway, seal_depth=50,
                                           idle_timeout=5.0) as front:
                session = front.open_session(peer)
                accepted = front.submit_nowait(session, update_for(metadata_id, "keep"))
                shed_future = front.submit_nowait(session,
                                                  update_for(metadata_id, "shed"))
                assert shed_future.done()  # terminal at admission time
                shed = await shed_future
                assert shed.status == STATUS_SHED
                await front.drain()
                assert (await accepted).status == STATUS_OK
                # Recovery: the queue has room again.
                recovered = await front.submit(session,
                                               update_for(metadata_id, "recovered"))
                assert recovered.status == STATUS_OK
            view = system.peer(peer).shared_table(metadata_id)
            assert view.get((patient_id,))["clinical_data"] == "recovered"
            assert gateway.metrics()["queue"]["shed_requests"] == 1

        asyncio.run(asyncio.wait_for(scenario(), timeout=60))

    def test_cli_exposes_max_queue_depth(self):
        from repro.cli import run_gateway_loadtest

        result = run_gateway_loadtest(tenants=2, duration=4, rate=4.0,
                                      read_fraction=0.0, interval=1.0,
                                      batch_size=2, transport="async",
                                      max_queue_depth=1)
        metrics = result["metrics"]
        assert metrics["queue"]["capacity"] == 1
        # At 8 writes/s against a capacity-1 queue something must shed ...
        assert metrics["queue"]["shed_requests"] > 0
        # ... and everything else still resolves terminally.
        assert metrics["queue"]["outstanding_writes"] == 0

    def test_cli_sync_transport_commits_below_capacity(self):
        """With capacity < batch size the sync driver must still commit (at
        the capacity threshold) instead of shedding everything until the
        final drain."""
        from repro.cli import run_gateway_loadtest

        result = run_gateway_loadtest(tenants=2, duration=6, rate=4.0,
                                      read_fraction=0.0, interval=1.0,
                                      batch_size=16, transport="sync",
                                      max_queue_depth=4)
        metrics = result["metrics"]
        writes = metrics["batches"]["writes_committed"]
        # Far more writes commit than one queue's worth, and commits happened
        # in several batches during the run, not one trailing drain.
        assert writes > 4
        assert metrics["batches"]["committed"] >= 2
        assert metrics["queue"]["outstanding_writes"] == 0
