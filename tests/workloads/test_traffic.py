"""The open-loop multi-tenant traffic generator."""

import pytest

from repro.config import SystemConfig
from repro.gateway.requests import ReadViewRequest, UpdateEntryRequest
from repro.workloads.topology import TopologySpec, build_topology_system
from repro.workloads.traffic import (
    TenantProfile,
    TrafficGenerator,
    default_tenant_profiles,
)


@pytest.fixture(scope="module")
def topology_system():
    return build_topology_system(TopologySpec(patients=3, researchers=0),
                                 SystemConfig.private_chain(1.0))


class TestTenantProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            TenantProfile(peer="p", request_rate=0.0)
        with pytest.raises(ValueError):
            TenantProfile(peer="p", read_fraction=1.5)


class TestOpenLoop:
    def test_arrivals_are_sorted_and_bounded(self, topology_system):
        profiles = default_tenant_profiles(topology_system, request_rate=2.0)
        assert len(profiles) == 3
        arrivals = TrafficGenerator(topology_system, seed=5).open_loop(
            profiles, duration=20.0, start_time=100.0)
        assert arrivals
        times = [timed.arrival_time for timed in arrivals]
        assert times == sorted(times)
        assert all(100.0 <= t < 120.0 for t in times)
        assert {timed.tenant for timed in arrivals} == {p.peer for p in profiles}

    def test_deterministic_for_a_seed(self, topology_system):
        profiles = default_tenant_profiles(topology_system, request_rate=1.0)
        first = TrafficGenerator(topology_system, seed=9).open_loop(profiles, 15.0)
        second = TrafficGenerator(topology_system, seed=9).open_loop(profiles, 15.0)
        assert [t.to_dict() for t in first] == [t.to_dict() for t in second]

    def test_read_fraction_shapes_the_mix(self, topology_system):
        profiles = [TenantProfile(peer=p.peer, request_rate=3.0, read_fraction=1.0)
                    for p in default_tenant_profiles(topology_system)]
        arrivals = TrafficGenerator(topology_system, seed=2).open_loop(profiles, 20.0)
        assert all(isinstance(t.request, ReadViewRequest) for t in arrivals)
        writers = [TenantProfile(peer=p.peer, request_rate=3.0, read_fraction=0.0)
                   for p in profiles]
        writes = TrafficGenerator(topology_system, seed=2).open_loop(writers, 20.0)
        assert all(isinstance(t.request, UpdateEntryRequest) for t in writes)
        # Generated writes respect the contract: patients edit clinical_data only.
        assert all(set(t.request.updates) <= {"clinical_data"} for t in writes)

    def test_tenants_only_target_their_own_agreements(self, topology_system):
        profiles = default_tenant_profiles(topology_system, read_fraction=0.0)
        arrivals = TrafficGenerator(topology_system, seed=4).open_loop(profiles, 30.0)
        for timed in arrivals:
            peer_agreements = topology_system.peer(timed.tenant).agreement_ids
            assert timed.request.metadata_id in peer_agreements

    def test_duration_must_be_positive(self, topology_system):
        generator = TrafficGenerator(topology_system)
        with pytest.raises(ValueError):
            generator.open_loop(default_tenant_profiles(topology_system), 0.0)


class TestAsyncReplay:
    def test_replay_through_async_gateway_end_to_end(self, topology_system):
        import asyncio

        from repro.config import SystemConfig
        from repro.gateway import AsyncSharingGateway, SharingGateway
        from repro.workloads.topology import TopologySpec, build_topology_system

        system = build_topology_system(TopologySpec(patients=2, researchers=0),
                                       SystemConfig.private_chain(1.0))
        profiles = default_tenant_profiles(system, request_rate=2.0,
                                           read_fraction=0.25)
        clock = system.simulator.clock
        arrivals = TrafficGenerator(system, seed=3).open_loop(
            profiles, duration=4.0, start_time=clock.now())
        gateway = SharingGateway(system)
        sessions = {p.peer: gateway.open_session(p.peer) for p in profiles}

        async def scenario():
            async with AsyncSharingGateway(gateway, seal_depth=4,
                                           max_delay=1.0) as front:
                futures = await front.replay(arrivals, sessions)
                # The replay ends with a flush: nothing is left queued.
                assert gateway.queue_depth == 0
                return await asyncio.gather(*futures)

        responses = asyncio.run(asyncio.wait_for(scenario(), timeout=60))
        # One future per arrival, in trace order, each admitted no earlier
        # than its arrival time.
        assert [response.tenant for response in responses] == [
            timed.tenant for timed in arrivals]
        assert all(response.enqueued_at >= timed.arrival_time
                   for response, timed in zip(responses, arrivals))
        assert clock.now() >= arrivals[-1].arrival_time
        assert all(response.terminal for response in responses)
        assert all(response.ok for response in responses)
        assert system.all_shared_tables_consistent()


def test_synchronous_entry_points_do_not_import_asyncio():
    """The asyncio transport loads on first use, not with the packages a
    synchronous run imports."""
    import os
    import pathlib
    import subprocess
    import sys

    import repro

    code = ("import sys, repro.gateway, repro.workloads.topology, "
            "repro.workloads.traffic; print('asyncio' in sys.modules)")
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.stdout.strip() == "False"
    from repro.gateway import AsyncSharingGateway
    from repro.gateway.aio import AsyncSharingGateway as defined
    assert AsyncSharingGateway is defined
