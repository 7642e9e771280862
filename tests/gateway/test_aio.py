"""The asyncio gateway transport: futures, commit pump, triggers, parity."""

import asyncio
from types import SimpleNamespace

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
from repro.obs import Tracer
from repro.workloads.topology import TopologySpec, build_topology_system
from repro.workloads.traffic import (
    TimedRequest,
    TrafficGenerator,
    default_tenant_profiles,
)

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


def replay_seeded_trace(seed, traced=False, on_terminal=None):
    """Replay one seeded open-loop trace (3 patients, a quarter reads)
    through a depth-1 async front end and await every response."""
    system = build_system(patients=3)
    tracer = Tracer(system.simulator.clock) if traced else None
    gateway = SharingGateway(system, max_batch_size=16, tracer=tracer)
    if on_terminal is not None:
        gateway.subscribe_terminal(
            lambda response: on_terminal(gateway, response))
    clock = system.simulator.clock
    profiles = default_tenant_profiles(system, request_rate=1.0, read_fraction=0.25)
    arrivals = TrafficGenerator(system, seed=seed).open_loop(
        profiles, duration=6.0, start_time=clock.now())
    sessions = {profile.peer: gateway.open_session(profile.peer)
                for profile in profiles}

    async def scenario():
        async with AsyncSharingGateway(gateway, seal_depth=1) as front:
            futures = await front.replay(arrivals, sessions)
            return await asyncio.gather(*futures), front.statistics()

    responses, statistics = run(scenario())
    return SimpleNamespace(system=system, gateway=gateway, tracer=tracer,
                           arrivals=arrivals, responses=responses,
                           statistics=statistics)


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
    def test_replay_admits_due_arrivals_at_round_boundaries(self):
        """Before each consensus round of a commit mines, the replay admits
        every arrival the simulated clock has reached — so for a fixed trace
        the number admitted during commits is one exact value."""

        def replay():
            replayed = replay_seeded_trace(seed=5)
            assert [response.tenant for response in replayed.responses] == [
                timed.tenant for timed in replayed.arrivals]
            assert all(response.ok for response in replayed.responses)
            assert replayed.system.all_shared_tables_consistent()
            transport = replayed.gateway.metrics()["transport"]
            assert transport["commits_in_flight"] == 0
            return (len(replayed.arrivals), transport["admitted_during_commit"],
                    transport["pump"]["commits"], replayed.statistics["sealed_by"])

        sealed = {"depth": 7, "deadline": 0, "idle": 0, "flush": 0}
        assert replay() == replay() == (20, 18, 7, sealed)

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


class TestReplay:
    def test_the_outcome_is_a_function_of_the_seed(self):
        def outcome(seed):
            replayed = replay_seeded_trace(seed=seed)
            return (
                [(response.request_id, response.status, response.enqueued_at,
                  response.completed_at) for response in replayed.responses],
                replayed.gateway.metrics()["transport"]["admitted_during_commit"],
                replayed.statistics["sealed_by"],
                {metadata_id: replayed.system.peer(f"patient-{metadata_id.split(':')[1]}")
                 .shared_table(metadata_id).fingerprint()
                 for metadata_id in replayed.system.agreement_ids},
            )

        first = outcome(5)
        assert outcome(5) == first
        assert outcome(6) == outcome(6) != first

    def test_reads_admitted_inside_a_commit_are_served_after_it(self):
        """A read admitted at a round boundary would otherwise see a commit
        half installed: it is held until that commit has finished."""
        served_in_commit = []

        def on_terminal(gateway, response):
            if response.kind == "read-view":
                served_in_commit.append(gateway.commits_in_flight)

        replayed = replay_seeded_trace(seed=5, on_terminal=on_terminal)
        assert replayed.statistics["reads_in_flight_peak"] == 3
        assert replayed.statistics["reads_in_flight"] == 0
        reads = [response for response in replayed.responses
                 if response.kind == "read-view"]
        assert reads and all(response.ok for response in reads)
        assert served_in_commit == [0] * len(reads)

    def test_admissions_at_round_boundaries_are_trace_roots(self):
        """An arrival admitted while a commit mines is not part of that
        commit: its admission span is a root with its own trace id, and the
        whole span set stays structurally sound."""
        replayed = replay_seeded_trace(seed=5, traced=True)
        assert replayed.gateway.metrics()["transport"]["admitted_during_commit"] == 18
        spans = replayed.tracer.spans()
        ids = [span.span_id for span in spans]
        assert len(ids) == len(set(ids))
        by_id = {span.span_id: span for span in spans}
        admits = [span for span in spans if span.name == "gateway.admit"]
        assert len(admits) == len(replayed.arrivals)
        for span in admits:
            assert span.parent_id is None
            assert span.trace_id == span.attrs["request_id"]
        for span in spans:
            assert span.sim_end >= span.sim_start
            if span.parent_id is not None:
                parent = by_id[span.parent_id]
                assert parent.sim_start <= span.sim_start
                assert span.sim_end <= parent.sim_end
        members = {request_id for span in spans if span.name == "gateway.commit"
                   for request_id in span.attrs.get("requests", ())}
        writes = {response.request_id for response in replayed.responses
                  if response.kind != "read-view"}
        assert writes <= members

    def test_removes_its_round_hook_when_it_fails(self):
        system = build_system(patients=3)
        gateway = SharingGateway(system, max_batch_size=16)
        profiles = default_tenant_profiles(system, request_rate=1.0, read_fraction=0.25)
        arrivals = TrafficGenerator(system, seed=5).open_loop(
            profiles, duration=6.0, start_time=system.simulator.clock.now())
        # No session for the first arrival's tenant: the replay fails at once.
        sessions = {profile.peer: gateway.open_session(profile.peer)
                    for profile in profiles if profile.peer != arrivals[0].tenant}

        async def scenario():
            async with AsyncSharingGateway(gateway, seal_depth=1) as front:
                with pytest.raises(KeyError):
                    await front.replay(arrivals, sessions)
                assert system.coordinator.before_round is None
                servable = [timed for timed in arrivals if timed.tenant in sessions]
                futures = await front.replay(servable[:1], sessions)
                return await asyncio.gather(*futures)

        (response,) = run(scenario())
        assert response.ok
        assert system.coordinator.before_round is None

    def test_interleaved_reads_never_observe_a_torn_patch(self):
        """Each write sets two columns to one tag in one edit, and reads of
        every table arrive between the writes — many of them inside a
        commit.  No read may see the two columns disagree, and afterwards
        every cached view equals a freshly materialised one."""
        rounds = 6
        system = build_system(patients=2)
        tables = tenant_tables(system)
        gateway = SharingGateway(system, max_batch_size=4)
        sessions = {"doctor": gateway.open_session("doctor")}
        start = system.simulator.clock.now()
        arrivals = []
        for round_index in range(rounds):
            at = start + 0.5 * round_index
            for metadata_id in sorted(tables.values()):
                patient_id = int(metadata_id.split(":")[1])
                tag = f"tag-{round_index}"
                arrivals.append(TimedRequest(at, "doctor", UpdateEntryRequest(
                    metadata_id=metadata_id, key=(patient_id,),
                    updates={"clinical_data": tag, "dosage": tag})))
                arrivals.append(TimedRequest(at + 0.25, "doctor",
                                             ReadViewRequest(metadata_id)))
        arrivals.sort(key=lambda timed: timed.arrival_time)

        async def scenario():
            async with AsyncSharingGateway(gateway, seal_depth=2) as front:
                futures = await front.replay(arrivals, sessions)
                return await asyncio.gather(*futures), front.statistics()

        responses, statistics = run(scenario())
        assert all(response.status == STATUS_OK for response in responses)
        assert statistics["reads_in_flight_peak"] > 0
        torn = [(row["clinical_data"], row["dosage"])
                for response in responses if response.kind == "read-view"
                for row in response.payload["table"]["rows"]
                if row["clinical_data"].startswith("tag-")
                and row["dosage"] != row["clinical_data"]]
        assert torn == []
        final_tag = f"tag-{rounds - 1}"
        for peer, metadata_id in tables.items():
            fresh = system.coordinator.read_shared_data(peer, metadata_id)
            cached = gateway.cache.peek(peer, metadata_id)
            if cached is not None:
                assert cached.table.fingerprint() == fresh.fingerprint()
            patient_id = int(metadata_id.split(":")[1])
            assert fresh.get((patient_id,))["clinical_data"] == final_tag
        assert system.all_shared_tables_consistent()


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
