"""The asyncio gateway transport: futures, commit pump, triggers, parity."""

import asyncio
import threading

import pytest

from repro.config import SystemConfig
from repro.core.scenario import PATIENT_DOCTOR_TABLE, build_paper_scenario
from repro.gateway import (
    AsyncSharingGateway,
    ReadViewRequest,
    SharingGateway,
    STATUS_OK,
    STATUS_QUEUED,
    STATUS_REJECTED,
    STATUS_SHED,
    STATUS_THROTTLED,
    UpdateEntryRequest,
)
from repro.workloads.topology import TopologySpec, build_topology_system

#: Generous real-time bound for awaiting pump-driven commits in tests.
WAIT = 30.0


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=WAIT * 2))


async def wait_for_seals(front, trigger):
    """Await the pump's stats catching up: futures resolve a beat before the
    pump coroutine increments ``sealed_by`` (bounded by the scenario timeout)."""
    while front.sealed_by[trigger] == 0:
        await asyncio.sleep(0.001)
    return front.sealed_by[trigger]


def build_system(patients=2, interval=1.0):
    return build_topology_system(TopologySpec(patients=patients, researchers=0),
                                 SystemConfig.private_chain(interval))


def tenant_tables(system):
    return {f"patient-{mid.split(':')[1]}": mid for mid in system.agreement_ids}


def update_for(metadata_id, tag):
    patient_id = int(metadata_id.split(":")[1])
    return UpdateEntryRequest(metadata_id=metadata_id, key=(patient_id,),
                              updates={"clinical_data": tag})


class TestConstruction:
    def test_validation(self):
        system = build_paper_scenario(SystemConfig.private_chain(1.0))
        gateway = SharingGateway(system)
        with pytest.raises(ValueError):
            AsyncSharingGateway(gateway, seal_depth=0)
        with pytest.raises(ValueError):
            AsyncSharingGateway(gateway, max_delay=-1.0)
        with pytest.raises(ValueError):
            AsyncSharingGateway(gateway, idle_timeout=0.0)
        # Gateway kwargs are only for building a gateway from a system.
        with pytest.raises(ValueError):
            AsyncSharingGateway(gateway, max_batch_size=4)

    def test_builds_gateway_from_system(self):
        system = build_paper_scenario(SystemConfig.private_chain(1.0))
        front = AsyncSharingGateway(system, max_batch_size=4)
        assert isinstance(front.gateway, SharingGateway)
        assert front.gateway.scheduler.max_batch_size == 4
        assert front.seal_depth == 4

    def test_seal_depth_defaults_to_batch_size(self):
        system = build_paper_scenario(SystemConfig.private_chain(1.0))
        front = AsyncSharingGateway(SharingGateway(system, max_batch_size=7))
        assert front.seal_depth == 7

    def test_submit_requires_running_pump(self):
        system = build_paper_scenario(SystemConfig.private_chain(1.0))
        front = AsyncSharingGateway(SharingGateway(system))
        session = front.open_session("patient")
        with pytest.raises(RuntimeError):
            front.submit_nowait(session, ReadViewRequest(PATIENT_DOCTOR_TABLE))

    def test_double_start_refused(self):
        async def scenario():
            system = build_paper_scenario(SystemConfig.private_chain(1.0))
            async with AsyncSharingGateway(SharingGateway(system)) as front:
                with pytest.raises(RuntimeError):
                    await front.start()

        run(scenario())


class TestSubmit:
    def test_write_future_resolves_ok(self):
        async def scenario():
            system = build_system()
            tables = tenant_tables(system)
            async with AsyncSharingGateway(system) as front:
                peer, metadata_id = sorted(tables.items())[0]
                session = front.open_session(peer)
                future = front.submit_nowait(session, update_for(metadata_id, "async-1"))
                assert not future.done()  # queued, not yet committed
                await front.drain()
                response = await future
                assert response.status == STATUS_OK
                assert response.payload["metadata_id"] == metadata_id
            view = system.peer(peer).shared_table(metadata_id)
            patient_id = int(metadata_id.split(":")[1])
            assert view.get((patient_id,))["clinical_data"] == "async-1"
            assert system.all_shared_tables_consistent()

        run(scenario())

    def test_submit_coroutine_awaits_terminal(self):
        async def scenario():
            system = build_system()
            tables = tenant_tables(system)
            peer, metadata_id = sorted(tables.items())[0]
            # seal_depth 1: the pump commits as soon as the write lands.
            async with AsyncSharingGateway(system, seal_depth=1) as front:
                session = front.open_session(peer)
                response = await front.submit(session, update_for(metadata_id, "await"))
                assert response.status == STATUS_OK

        run(scenario())

    def test_read_served_with_payload(self):
        async def scenario():
            system = build_system()
            tables = tenant_tables(system)
            peer, metadata_id = sorted(tables.items())[0]
            async with AsyncSharingGateway(system) as front:
                session = front.open_session(peer)
                response = await front.submit(session, ReadViewRequest(metadata_id))
                assert response.status == STATUS_OK
                assert response.payload["rows"] >= 1
                # Second read is a cache hit.
                await front.submit(session, ReadViewRequest(metadata_id))
                assert front.gateway.cache.hits >= 1
                assert front.statistics()["reads_in_flight"] == 0

        run(scenario())

    def test_throttled_resolves_immediately(self):
        async def scenario():
            system = build_system()
            tables = tenant_tables(system)
            peer, metadata_id = sorted(tables.items())[0]
            async with AsyncSharingGateway(system) as front:
                session = front.open_session(peer, rate=0.001, burst=1.0)
                first = front.submit_nowait(session, ReadViewRequest(metadata_id))
                second = front.submit_nowait(session, ReadViewRequest(metadata_id))
                assert (await second).status == STATUS_THROTTLED
                assert (await first).status == STATUS_OK

        run(scenario())

    def test_unauthorised_write_resolves_immediately(self):
        async def scenario():
            system = build_paper_scenario(SystemConfig.private_chain(1.0))
            async with AsyncSharingGateway(system) as front:
                session = front.open_session("patient")
                # The patient may not write 'dosage' on the Fig. 1 contract.
                future = front.submit_nowait(session, UpdateEntryRequest(
                    PATIENT_DOCTOR_TABLE, (188,), {"dosage": "blocked"}))
                assert future.done()
                response = await future
                assert response.status == STATUS_REJECTED
                assert "may not write" in response.error

        run(scenario())

    def test_session_delegation(self):
        async def scenario():
            system = build_system()
            async with AsyncSharingGateway(system) as front:
                session = front.open_session("patient-188")
                assert front.gateway.session_count == 1
                front.close_session(session)
                assert front.gateway.session_count == 0

        run(scenario())


class TestPumpTriggers:
    def test_depth_trigger_seals_without_drain(self):
        async def scenario():
            system = build_system(patients=2)
            tables = tenant_tables(system)
            async with AsyncSharingGateway(system, seal_depth=2,
                                           max_delay=0.0) as front:
                futures = []
                for peer, metadata_id in sorted(tables.items()):
                    session = front.open_session(peer)
                    futures.append(front.submit_nowait(
                        session, update_for(metadata_id, "depth")))
                # No drain: the pump must seal on its own once depth hits 2.
                responses = await asyncio.wait_for(asyncio.gather(*futures), WAIT)
                assert all(response.status == STATUS_OK for response in responses)
                assert await wait_for_seals(front, "depth") >= 1

        run(scenario())

    def test_deadline_trigger_seals_waiting_write(self):
        async def scenario():
            system = build_system(patients=2)
            tables = tenant_tables(system)
            (peer_a, table_a), (peer_b, table_b) = sorted(tables.items())
            clock = system.simulator.clock
            async with AsyncSharingGateway(system, seal_depth=50,
                                           max_delay=1.0) as front:
                session_a = front.open_session(peer_a)
                session_b = front.open_session(peer_b)
                first = front.submit_nowait(session_a, update_for(table_a, "old"))
                # A later arrival advances the simulated clock past the
                # deadline and wakes the pump (depth stays below 50).
                clock.advance(5.0)
                second = front.submit_nowait(session_b, update_for(table_b, "new"))
                responses = await asyncio.wait_for(asyncio.gather(first, second), WAIT)
                assert all(response.status == STATUS_OK for response in responses)
                assert await wait_for_seals(front, "deadline") >= 1

        run(scenario())

    def test_idle_trigger_seals_quiet_queue(self):
        async def scenario():
            system = build_system(patients=2)
            tables = tenant_tables(system)
            peer, metadata_id = sorted(tables.items())[0]
            async with AsyncSharingGateway(system, seal_depth=50, max_delay=0.0,
                                           idle_timeout=0.01) as front:
                session = front.open_session(peer)
                future = front.submit_nowait(session, update_for(metadata_id, "idle"))
                # No more arrivals, no deadline: only the idle timer fires.
                response = await asyncio.wait_for(future, WAIT)
                assert response.status == STATUS_OK
                assert await wait_for_seals(front, "idle") >= 1

        run(scenario())

    def test_drain_counts_flush_seals(self):
        async def scenario():
            system = build_system(patients=2)
            tables = tenant_tables(system)
            peer, metadata_id = sorted(tables.items())[0]
            async with AsyncSharingGateway(system, seal_depth=50,
                                           idle_timeout=5.0) as front:
                session = front.open_session(peer)
                future = front.submit_nowait(session, update_for(metadata_id, "flush"))
                await front.drain()
                assert future.done()
                assert front.sealed_by["flush"] >= 1

        run(scenario())

    def test_drain_on_empty_gateway_returns(self):
        async def scenario():
            system = build_system(patients=2)
            async with AsyncSharingGateway(system) as front:
                await front.drain()  # nothing queued — must not block

        run(scenario())

    def test_stop_without_flush_then_restart(self):
        async def scenario():
            system = build_system(patients=2)
            tables = tenant_tables(system)
            peer, metadata_id = sorted(tables.items())[0]
            front = AsyncSharingGateway(system, seal_depth=50, idle_timeout=5.0)
            await front.start()
            session = front.open_session(peer)
            future = front.submit_nowait(session, update_for(metadata_id, "later"))
            # stop() drains: it must resolve the write even though no
            # trigger fired yet.
            await front.stop()
            assert not front.running
            assert future.done()
            assert (await future).status == STATUS_OK
            # The transport is restartable.
            await front.start()
            assert front.running
            response = await front.submit(session, ReadViewRequest(metadata_id))
            assert response.status == STATUS_OK
            await front.stop()

        run(scenario())


class TestInterleaving:
    def test_arrivals_admitted_while_commit_in_flight(self):
        """Deterministic: the first commit is held open inside the executor
        (after the gateway counted it in flight) until the loop has admitted
        the remaining writes — an event pair, not a race against how long a
        one-write commit happens to take."""
        commit_started, release_commit = threading.Event(), threading.Event()

        async def scenario():
            system = build_system(patients=3)
            tables = tenant_tables(system)
            real_commit = system.coordinator.commit_entry_batch

            def gated_commit(groups):
                commit_started.set()
                assert release_commit.wait(WAIT)
                return real_commit(groups)

            system.coordinator.commit_entry_batch = gated_commit
            gateway = SharingGateway(system, max_batch_size=16)
            async with AsyncSharingGateway(gateway, seal_depth=1) as front:
                sessions = {peer: front.open_session(peer) for peer in tables}
                writes = [(peer, metadata_id, f"r{round_index}")
                          for round_index in range(4)
                          for peer, metadata_id in sorted(tables.items())]
                futures = []
                try:
                    # seal_depth 1 makes the pump commit the first write
                    # eagerly; the rest arrive while it sits in the executor.
                    for index, (peer, metadata_id, tag) in enumerate(writes):
                        futures.append(front.submit_nowait(
                            sessions[peer], update_for(metadata_id, tag)))
                        if index == 0:
                            assert await asyncio.to_thread(commit_started.wait, WAIT)
                        await asyncio.sleep(0)
                finally:
                    release_commit.set()
                await front.drain()
                responses = await asyncio.gather(*futures)
            assert all(response.status == STATUS_OK for response in responses)
            transport = gateway.metrics()["transport"]
            assert transport["admitted_during_commit"] > 0
            assert transport["commits_in_flight"] == 0
            assert system.all_shared_tables_consistent()

        run(scenario())

    def test_matches_sync_transport_fingerprints(self):
        def fingerprints(system):
            return {
                f"{peer.name}:{name}": peer.database.table(name).fingerprint()
                for peer in system.peers
                for name in sorted(peer.database.table_names)
            }

        def workload(tables):
            plan = []
            for round_index in range(3):
                for peer, metadata_id in sorted(tables.items()):
                    plan.append((peer, metadata_id, f"v{round_index}"))
            return plan

        # Sync transport: submit then drain.
        sync_system = build_system(patients=2)
        sync_tables = tenant_tables(sync_system)
        sync_gateway = SharingGateway(sync_system)
        sessions = {peer: sync_gateway.open_session(peer) for peer in sync_tables}
        for peer, metadata_id, tag in workload(sync_tables):
            sync_gateway.submit(sessions[peer], update_for(metadata_id, tag))
        sync_gateway.drain()

        # Async transport: same writes through the pump.
        async def scenario():
            system = build_system(patients=2)
            tables = tenant_tables(system)
            async with AsyncSharingGateway(system, seal_depth=3) as front:
                sessions = {peer: front.open_session(peer) for peer in tables}
                futures = [front.submit_nowait(sessions[peer],
                                               update_for(metadata_id, tag))
                           for peer, metadata_id, tag in workload(tables)]
                await front.drain()
                responses = await asyncio.gather(*futures)
                assert all(response.status == STATUS_OK for response in responses)
            return system

        async_system = run(scenario())
        assert fingerprints(sync_system) == fingerprints(async_system)

    def test_per_tenant_same_key_order_preserved(self):
        async def scenario():
            system = build_system(patients=2)
            tables = tenant_tables(system)
            peer, metadata_id = sorted(tables.items())[0]
            patient_id = int(metadata_id.split(":")[1])
            async with AsyncSharingGateway(system, seal_depth=2) as front:
                session = front.open_session(peer)
                futures = [front.submit_nowait(
                    session, update_for(metadata_id, f"seq-{index}"))
                    for index in range(5)]
                await front.drain()
                responses = await asyncio.gather(*futures)
                assert all(response.status == STATUS_OK for response in responses)
            # Same-key writes commit in submission order: last one wins.
            view = system.peer(peer).shared_table(metadata_id)
            assert view.get((patient_id,))["clinical_data"] == "seq-4"

        run(scenario())


class TestStatistics:
    def test_statistics_and_metrics_shape(self):
        async def scenario():
            system = build_system(patients=2)
            tables = tenant_tables(system)
            peer, metadata_id = sorted(tables.items())[0]
            async with AsyncSharingGateway(system, seal_depth=1) as front:
                session = front.open_session(peer)
                await front.submit(session, update_for(metadata_id, "stats"))
                await front.submit(session, ReadViewRequest(metadata_id))
                await front.drain()
                stats = front.statistics()
                assert stats["transport"] == "async"
                assert stats["running"] is True
                assert stats["commits"] >= 1
                assert stats["pending_futures"] == 0
                assert stats["pending_futures_peak"] >= 1
                assert set(stats["sealed_by"]) == {"depth", "deadline", "idle", "flush"}
                merged = front.metrics()
                assert merged["async_transport"] == stats
                assert "batches" in merged and "transport" in merged

        run(scenario())

    def test_classic_async_stats_have_no_lane_keys(self):
        async def scenario():
            async with AsyncSharingGateway(build_system(), seal_depth=2,
                                           max_batch_size=4) as front:
                await front.drain()
            stats = front.statistics()
            assert "per_shard" not in stats
            assert "sealed_by_lane" not in stats

        run(scenario())
