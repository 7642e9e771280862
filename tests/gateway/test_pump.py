"""The commit pump is written once: one seal rule, one record, one drain.

Regression tests for the three ways the sync loop, the (since removed)
threaded worker pool and the asyncio pump used to disagree (a capacity-bound
queue the async pump never sealed, replicas left behind after an async drain,
two trigger counts for one run), plus the rule itself and ``close()``.
"""

import asyncio
import dataclasses
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.chaos import FaultInjector, FaultPlan, FaultSpec
from repro.cli import run_gateway_loadtest
from repro.config import DurabilityConfig, ReplicationConfig, SystemConfig
from repro.gateway import (
    AsyncSharingGateway,
    ReadViewRequest,
    SharingGateway,
    STATUS_OK,
    STATUS_THROTTLED,
    UpdateEntryRequest,
)
from repro.workloads.topology import TopologySpec, build_topology_system

#: Real-time bound on a pump-driven commit: long enough for a slow runner,
#: short enough that a pump that never seals fails instead of hanging.
WAIT = 20.0
#: An idle timeout no test reaches: a batch sealed under it was sealed by
#: the trigger under test, never by the arrival stream going quiet.
NEVER_IDLE = 600.0


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=WAIT * 3))


def build_system(patients=2, config=None):
    return build_topology_system(TopologySpec(patients=patients, researchers=0),
                                 config or SystemConfig.private_chain(1.0))


def tenant_tables(system):
    return sorted((f"patient-{mid.split(':')[1]}", mid)
                  for mid in system.agreement_ids)


def update_for(metadata_id, tag):
    patient_id = int(metadata_id.split(":")[1])
    return UpdateEntryRequest(metadata_id=metadata_id, key=(patient_id,),
                              updates={"clinical_data": tag})


def replicated_system(tmp_path, patients=2):
    """Durable peers and two replicas that only a *forced* shipment reaches
    (the ship interval is far past anything the test's clock sees)."""
    config = dataclasses.replace(
        SystemConfig.private_chain(1.0),
        durability=DurabilityConfig(state_dir=str(tmp_path)),
        replication=ReplicationConfig(replicas=2, ship_interval=1000.0,
                                      max_lag=5.0))
    return build_system(patients, config)


def assert_replicas_equal_primary(system, gateway):
    live = system.state_fingerprints()
    assert [replica.fingerprints() for replica in gateway.shipper.replicas] == [
        live, live]
    assert max(gateway.metrics()["replication"]["lags"].values()) == 0.0


class TestSealRule:
    def test_empty_queue_never_seals(self, topology_gateway):
        gateway = topology_gateway
        assert gateway.seal_trigger() is None
        assert gateway.seal_trigger(idle=True, flushing=True) is None

    def test_precedence_flush_depth_deadline_idle(self):
        system = build_system(patients=3)
        gateway = SharingGateway(system, max_batch_size=3)
        clock = system.simulator.clock
        sessions = [(gateway.open_session(peer), mid)
                    for peer, mid in tenant_tables(system)]
        session, metadata_id = sessions[0]
        gateway.submit(session, update_for(metadata_id, "first"))
        assert gateway.seal_trigger() is None
        assert gateway.seal_trigger(idle=True) == "idle"
        assert gateway.seal_trigger(max_delay=5.0, idle=True) == "idle"
        clock.advance(5.0)
        assert gateway.seal_trigger(max_delay=5.0, idle=True) == "deadline"
        assert gateway.seal_trigger(seal_depth=1, max_delay=5.0) == "depth"
        assert gateway.seal_trigger(seal_depth=1, flushing=True) == "flush"
        for session, metadata_id in sessions[1:]:
            gateway.submit(session, update_for(metadata_id, "more"))
        assert gateway.seal_trigger() == "depth"  # max_batch_size reached
        assert gateway.seal_trigger(seal_depth=50) is None

    def test_depth_is_bounded_by_queue_capacity(self):
        system = build_system(patients=2)
        gateway = SharingGateway(system, max_batch_size=16, max_queue_depth=2)
        (peer_a, table_a), (peer_b, table_b) = tenant_tables(system)
        gateway.submit(gateway.open_session(peer_a), update_for(table_a, "a"))
        assert gateway.seal_trigger() is None
        gateway.submit(gateway.open_session(peer_b), update_for(table_b, "b"))
        assert gateway.seal_trigger() == "depth"
        assert gateway.seal_trigger(seal_depth=50) == "depth"

    def test_triggers_count_planned_batches_only(self, topology_gateway):
        gateway = topology_gateway
        (peer, metadata_id), *_ = tenant_tables(gateway.system)
        gateway.submit(gateway.open_session(peer), update_for(metadata_id, "x"))
        assert gateway.commit_once("depth") is not None
        assert gateway.commit_once("depth") is None  # the loser of a race
        pump = gateway.metrics()["transport"]["pump"]
        assert pump["triggers"] == {"deadline": 0, "depth": 1, "flush": 0, "idle": 0}
        assert (pump["commits"], pump["empty_plans"], pump["errors"]) == (1, 1, [])


class TestCapacityBoundQueueSeals:
    """Divergence 1: a queue that sheds at a capacity below the seal depth."""

    def test_async_pump_seals_at_capacity(self):
        async def scenario():
            system = build_system(patients=2)
            gateway = SharingGateway(system, max_batch_size=16, max_queue_depth=2)
            async with AsyncSharingGateway(gateway,
                                           idle_timeout=NEVER_IDLE) as front:
                futures = [front.submit_nowait(front.open_session(peer),
                                               update_for(metadata_id, "full"))
                           for peer, metadata_id in tenant_tables(system)]
                # No drain: depth 16 is unreachable at capacity 2, so the
                # pump must take the capacity for its depth.
                responses = await asyncio.wait_for(asyncio.gather(*futures), WAIT)
                assert [response.status for response in responses] == [STATUS_OK] * 2
                assert front.sealed_by["depth"] >= 1

        run(scenario())

    @pytest.mark.parametrize("waker", ["read", "throttled"])
    def test_every_admission_reevaluates_the_deadline(self, waker):
        async def scenario():
            system = build_system(patients=2)
            (peer_a, table_a), (peer_b, table_b) = tenant_tables(system)
            async with AsyncSharingGateway(system, seal_depth=50, max_delay=1.0,
                                           idle_timeout=NEVER_IDLE) as front:
                limited = front.open_session(peer_b, rate=0.001, burst=1.0)
                await front.submit(limited, ReadViewRequest(table_b))  # its one token
                write = front.submit_nowait(front.open_session(peer_a),
                                            update_for(table_a, "waits"))
                await asyncio.sleep(0)  # the pump looks: nothing to seal yet
                system.simulator.clock.advance(5.0)
                # The next admission queues nothing, yet it is what tells the
                # pump that simulated time has passed the deadline.
                if waker == "read":
                    other = front.submit_nowait(front.open_session(peer_b),
                                                ReadViewRequest(table_b))
                else:
                    other = front.submit_nowait(limited, update_for(table_b, "no"))
                    assert (await other).status == STATUS_THROTTLED
                assert (await asyncio.wait_for(write, WAIT)).status == STATUS_OK
                await other
                assert front.sealed_by["deadline"] >= 1

        run(scenario())

    def test_async_loadtest_commits_more_than_its_final_flush(self):
        result = run_gateway_loadtest(tenants=8, duration=20, max_queue_depth=4,
                                      transport="async")
        metrics = result["metrics"]
        sealed = metrics["async_transport"]["sealed_by"]
        assert sealed["depth"] + sealed["deadline"] >= 1
        # The final flush alone can commit one queue-full at most.
        assert metrics["batches"]["writes_committed"] > 4


class TestEveryFrontEndQuiescesAlike:
    """Divergence 2: replicas behind a throttled shipper after the drain."""

    def test_async_drain_force_ships_and_flushes(self, tmp_path):
        async def scenario():
            system = replicated_system(tmp_path / "peers")
            gateway = SharingGateway(system, state_dir=tmp_path / "gateway")
            async with AsyncSharingGateway(gateway, seal_depth=2) as front:
                futures = [front.submit_nowait(front.open_session(peer),
                                               update_for(metadata_id, f"v{index}"))
                           for index in range(3)
                           for peer, metadata_id in tenant_tables(system)]
                await front.drain()
                assert all(future.done() for future in futures)
                assert_replicas_equal_primary(system, gateway)
                assert gateway.journal.backend.syncs >= 1
            gateway.close()
            system.close()

        run(scenario())

    def test_async_loadtest_replicas_converge(self):
        result = run_gateway_loadtest(tenants=4, duration=10, replicas=2,
                                      replica_ship_interval=1000,
                                      transport="async")
        replication = result["metrics"]["replication"]
        assert max(replication["lags"].values()) == 0.0
        assert replication["shipper"]["entries_shipped"] > 0


class TestOneRecord:
    """Divergence 3: the front ends' counters are the gateway's record."""

    @staticmethod
    def doomed_system():
        """A 2-tenant system whose first commit blows up (one fire)."""
        system = build_system(patients=2)
        system.attach_chaos(FaultInjector(
            FaultPlan(specs=(FaultSpec(kind="commit.fail", max_fires=1),)),
            system.simulator.clock))
        return system

    def test_async_views_equal_the_record(self):
        async def scenario():
            system = self.doomed_system()
            async with AsyncSharingGateway(system, seal_depth=1) as front:
                for index in range(2):
                    for peer, metadata_id in tenant_tables(system):
                        await front.submit(front.open_session(peer),
                                           update_for(metadata_id, f"v{index}"))
                await front.drain()
            pump = front.gateway.metrics()["transport"]["pump"]
            assert front.sealed_by == pump["triggers"]
            assert front.commits == pump["commits"] == 4
            assert front.commit_errors == pump["errors"]
            assert len(pump["errors"]) == 1 and "injected" in pump["errors"][0]
            # Once per planned batch, the blown-up one included.
            assert sum(pump["triggers"].values()) == pump["commits"]
            stats = front.statistics()
            assert (stats["sealed_by"], stats["commits"], stats["commit_errors"]) == (
                pump["triggers"], 4, 1)

        run(scenario())

class TestClose:
    def test_gateway_and_system_close_are_idempotent(self, tmp_path):
        system = replicated_system(tmp_path / "peers")
        gateway = SharingGateway(system, state_dir=tmp_path / "gateway")
        (peer, metadata_id), *_ = tenant_tables(system)
        response = gateway.submit(gateway.open_session(peer),
                                  update_for(metadata_id, "kept"))
        gateway.drain()
        for _ in range(2):
            gateway.close()
            system.close()
        assert gateway.get_response(response.request_id).status == STATUS_OK
        assert all(peer.database.wal.backend._handle is None
                   for peer in system.peers)

    def test_loadtest_and_soak_close_what_they_opened(self):
        """``ResourceWarning`` is raised in finalisers, where ``-W error``
        would only print it — so run under ``-X dev`` and read stderr."""
        script = ("from repro.cli import run_chaos_soak, run_gateway_loadtest\n"
                  "run_gateway_loadtest(tenants=4, duration=10, replicas=2)\n"
                  "run_chaos_soak(tenants=3, rounds=3)\n")
        source = str(pathlib.Path(repro.__file__).resolve().parents[1])
        finished = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "always::ResourceWarning",
             "-c", script],
            env={**os.environ, "PYTHONPATH": source}, capture_output=True,
            text=True, timeout=300)
        assert finished.returncode == 0, finished.stderr
        assert "ResourceWarning" not in finished.stderr, finished.stderr
