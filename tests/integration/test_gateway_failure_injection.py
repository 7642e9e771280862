"""Failure injection on the serving path: blown-up commits must not strand
responses, corrupt the view cache, or kill the drainers.

Faults are injected through the public :mod:`repro.chaos` API — a seeded
:class:`FaultPlan` attached with :meth:`MedicalDataSharingSystem.attach_chaos`
— not by monkeypatching coordinator internals, so these tests exercise the
exact injection points chaos soaks use.  The contracts under test:

* a commit that raises mid-batch leaves **every** queued request in a
  terminal (``error``) response state — nothing stays ``queued`` forever;
* the :class:`ViewCache` never keeps a half-patched entry: views touched by
  a failed commit are dropped wholesale and the next read repopulates them
  from the installed tables;
* the :class:`GatewayWorkerPool` and the async commit pump both survive the
  failure, record it observably, and keep serving subsequent commits;
* the same transient faults are *absorbed* once a retry policy is attached.
"""

import asyncio

import pytest

from repro.chaos import FaultInjector, FaultPlan, FaultSpec, RetryPolicy
from repro.config import SystemConfig
from repro.errors import InjectedFault, TransientFault
from repro.gateway import (
    AsyncSharingGateway,
    GatewayWorkerPool,
    ReadViewRequest,
    SharingGateway,
    STATUS_ERROR,
    STATUS_OK,
    UpdateEntryRequest,
)
from repro.workloads.topology import TopologySpec, build_topology_system

pytestmark = [pytest.mark.integration]


def build_system(patients=2):
    return build_topology_system(TopologySpec(patients=patients, researchers=0),
                                 SystemConfig.private_chain(1.0))


def tenant_tables(system):
    return {f"patient-{mid.split(':')[1]}": mid for mid in system.agreement_ids}


def update_for(metadata_id, tag):
    patient_id = int(metadata_id.split(":")[1])
    return UpdateEntryRequest(metadata_id=metadata_id, key=(patient_id,),
                              updates={"clinical_data": tag})


def inject(system, *specs, retry=False):
    """Attach a fault plan built from ``specs``; returns the injector."""
    injector = FaultInjector(FaultPlan(specs=tuple(specs)),
                             system.simulator.clock)
    system.attach_chaos(injector,
                        retry_policy=RetryPolicy(jitter=0.0) if retry else None)
    return injector


class TestSyncCommitBlowup:
    def test_every_queued_request_terminal_after_blowup(self):
        system = build_system(patients=3)
        tables = tenant_tables(system)
        gateway = SharingGateway(system)
        sessions = {peer: gateway.open_session(peer) for peer in tables}
        responses = [gateway.submit(sessions[peer], update_for(metadata_id, "boom"))
                     for peer, metadata_id in sorted(tables.items())]
        injector = inject(system, FaultSpec(kind="commit.fail", max_fires=1))
        with pytest.raises(InjectedFault):
            gateway.commit_once()
        # No response is left queued; each carries the injected error.
        assert all(response.status == STATUS_ERROR for response in responses)
        assert all("injected" in response.error for response in responses)
        assert all(response.terminal for response in responses)
        assert gateway.outstanding_writes == 0
        assert gateway.queue_depth == 0
        assert gateway.metrics()["batches"]["writes_rejected"] == len(responses)
        assert injector.events_by_kind() == {"commit.fail": 1}

    def test_cache_has_no_half_patched_entries_after_blowup(self):
        system = build_system(patients=2)
        tables = tenant_tables(system)
        gateway = SharingGateway(system)
        sessions = {peer: gateway.open_session(peer) for peer in tables}
        # Prime the cache with every tenant's view.
        for peer, metadata_id in tables.items():
            assert gateway.submit(sessions[peer], ReadViewRequest(metadata_id)).ok
        assert len(gateway.cache) == len(tables)
        for peer, metadata_id in sorted(tables.items()):
            gateway.submit(sessions[peer], update_for(metadata_id, "never-lands"))
        inject(system, FaultSpec(kind="commit.fail", max_fires=1))
        with pytest.raises(InjectedFault):
            gateway.commit_once()
        # The planned tables' views were dropped wholesale, not patched.
        for peer, metadata_id in tables.items():
            assert gateway.cache.peek(peer, metadata_id) is None
        # The next read repopulates from the (unchanged) installed tables.
        for peer, metadata_id in sorted(tables.items()):
            response = gateway.submit(sessions[peer], ReadViewRequest(metadata_id))
            assert response.ok
            table = response.payload["table"]
            assert all(row["clinical_data"] != "never-lands"
                       for row in table["rows"])

    def test_mid_protocol_failure_still_resolves_every_member(self):
        """A consensus failure *after* the request round (the ack round never
        mines) must still leave every member terminal."""
        system = build_system(patients=2)
        tables = tenant_tables(system)
        gateway = SharingGateway(system)
        sessions = {peer: gateway.open_session(peer) for peer in tables}
        responses = [gateway.submit(sessions[peer], update_for(metadata_id, "mid"))
                     for peer, metadata_id in sorted(tables.items())]
        # The first mining round probes at the commit's start time; arming
        # the spec just past it makes the *second* round (the acks) blow up.
        inject(system, FaultSpec(kind="consensus.fail",
                                 start=system.simulator.clock.now() + 0.5,
                                 max_fires=1))
        with pytest.raises(TransientFault):
            gateway.commit_once()
        assert all(response.status == STATUS_ERROR for response in responses)
        assert gateway.outstanding_writes == 0

    def test_retry_policy_absorbs_transient_consensus_failures(self):
        """The same fault plan self-heals once a retry policy is attached:
        the round is retried with backoff and the batch commits."""
        system = build_system(patients=2)
        tables = tenant_tables(system)
        gateway = SharingGateway(system)
        sessions = {peer: gateway.open_session(peer) for peer in tables}
        responses = [gateway.submit(sessions[peer], update_for(metadata_id, "heal"))
                     for peer, metadata_id in sorted(tables.items())]
        inject(system, FaultSpec(kind="consensus.fail", max_fires=2),
               retry=True)
        gateway.commit_once()  # no raise: the retrier absorbed both faults
        assert all(response.status == STATUS_OK for response in responses)
        retrier = system.coordinator.retrier
        assert retrier.retries >= 2
        assert retrier.exhausted == 0
        assert system.all_shared_tables_consistent()


class TestWorkerPoolSurvival:
    def test_pool_records_error_and_keeps_draining(self):
        system = build_system(patients=2)
        tables = tenant_tables(system)
        gateway = SharingGateway(system)
        sessions = {peer: gateway.open_session(peer) for peer in tables}
        injector = inject(system, FaultSpec(kind="commit.fail", max_fires=1))
        (peer_a, table_a), (peer_b, table_b) = sorted(tables.items())
        with GatewayWorkerPool(gateway, workers=2) as pool:
            doomed = gateway.submit(sessions[peer_a], update_for(table_a, "doomed"))
            assert pool.join_idle(timeout=30.0)
            # The failure is recorded, the member is terminal, the pool lives.
            assert pool.errors and "injected" in pool.errors[0]
            assert doomed.status == STATUS_ERROR
            assert pool.running
            # And the pool still commits follow-up work (the fire budget is
            # spent, so the next batch sails through).
            survivor = gateway.submit(sessions[peer_b], update_for(table_b, "ok"))
            assert pool.join_idle(timeout=30.0)
            assert survivor.status == STATUS_OK
        assert injector.events_by_kind() == {"commit.fail": 1}
        patient_id = int(table_b.split(":")[1])
        view = system.peer(peer_b).shared_table(table_b)
        assert view.get((patient_id,))["clinical_data"] == "ok"


class TestCommitPumpSurvival:
    def test_pump_records_error_and_keeps_pumping(self):
        async def scenario():
            system = build_system(patients=2)
            tables = tenant_tables(system)
            gateway = SharingGateway(system)
            inject(system, FaultSpec(kind="commit.fail", max_fires=1))
            (peer_a, table_a), (peer_b, table_b) = sorted(tables.items())
            async with AsyncSharingGateway(gateway, seal_depth=1) as front:
                session_a = front.open_session(peer_a)
                session_b = front.open_session(peer_b)
                doomed = await asyncio.wait_for(
                    front.submit(session_a, update_for(table_a, "doomed")), 30)
                assert doomed.status == STATUS_ERROR
                assert "injected" in doomed.error
                # The pump survived the blow-up and recorded it (the future
                # resolves a beat before the pump's executor await returns,
                # so give the recording a moment).
                assert front.running
                while not front.commit_errors:
                    await asyncio.sleep(0.001)
                assert "injected" in front.commit_errors[0]
                survivor = await asyncio.wait_for(
                    front.submit(session_b, update_for(table_b, "ok")), 30)
                assert survivor.status == STATUS_OK
                assert front.running
            assert system.all_shared_tables_consistent()

        asyncio.run(asyncio.wait_for(scenario(), timeout=90))

    def test_drain_survives_repeated_failures(self):
        """drain() must terminate even when every queued batch blows up."""

        async def scenario():
            system = build_system(patients=2)
            tables = tenant_tables(system)
            gateway = SharingGateway(system)
            inject(system, FaultSpec(kind="commit.fail", max_fires=10))
            async with AsyncSharingGateway(gateway, seal_depth=50,
                                           idle_timeout=5.0) as front:
                futures = []
                for peer, metadata_id in sorted(tables.items()):
                    session = front.open_session(peer)
                    futures.append(front.submit_nowait(
                        session, update_for(metadata_id, "doomed")))
                await front.drain()
                responses = await asyncio.gather(*futures)
                assert all(response.status == STATUS_ERROR for response in responses)
                assert front.running

        asyncio.run(asyncio.wait_for(scenario(), timeout=90))


class TestCachePatchFailure:
    def test_unpatchable_cached_view_is_dropped_not_torn(self):
        """If a commit's diff does not apply cleanly to one cached view (the
        entry drifted), that entry is dropped — never left half-patched —
        and the next read reloads from the installed tables."""
        system = build_system(patients=2)
        tables = tenant_tables(system)
        gateway = SharingGateway(system)
        sessions = {peer: gateway.open_session(peer) for peer in tables}
        peer, metadata_id = sorted(tables.items())[0]
        patient_id = int(metadata_id.split(":")[1])
        assert gateway.submit(sessions[peer], ReadViewRequest(metadata_id)).ok
        cached = gateway.cache.peek(peer, metadata_id)
        assert cached is not None
        # Inject drift: the row the upcoming diff updates vanishes from the
        # cached copy, so the patch raises a diff conflict.
        cached.delete_by_key((patient_id,))
        response = gateway.submit(sessions[peer], update_for(metadata_id, "fresh"))
        gateway.drain()
        assert response.status == STATUS_OK
        # The poisoned entry is gone; a new read serves the committed value.
        assert gateway.cache.peek(peer, metadata_id) is not cached
        reread = gateway.submit(sessions[peer], ReadViewRequest(metadata_id))
        rows = {tuple([row["patient_id"]]): row for row in reread.payload["table"]["rows"]}
        assert rows[(patient_id,)]["clinical_data"] == "fresh"
