"""Gateway resilience: the latency shedder, fair queueing, breaker-driven
admission, outcome recording semantics, and degraded reads."""

import pytest

from repro.chaos import STATE_CLOSED, STATE_OPEN
from repro.config import SystemConfig
from repro.gateway import (
    LatencyShedder,
    ReadViewRequest,
    SharingGateway,
    STATUS_OK,
    STATUS_QUEUED,
    STATUS_REJECTED,
    STATUS_SHED,
    UpdateEntryRequest,
    WriteScheduler,
    fair_share_exceeded,
)
from repro.ledger.clock import SimClock
from repro.workloads.topology import TopologySpec, build_topology_system


def build_gateway(patients=2, **kwargs):
    system = build_topology_system(TopologySpec(patients=patients, researchers=0),
                                   SystemConfig.private_chain(1.0))
    return SharingGateway(system, **kwargs), system


def tenant_tables(system):
    return {f"patient-{mid.split(':')[1]}": mid for mid in system.agreement_ids}


def update_for(metadata_id, tag):
    patient_id = int(metadata_id.split(":")[1])
    return UpdateEntryRequest(metadata_id=metadata_id, key=(patient_id,),
                              updates={"clinical_data": tag})


class TestLatencyShedder:
    @pytest.mark.parametrize("bad", [
        dict(target=0.0),
        dict(target=-1.0),
        dict(target=1.0, window=0.0),
        dict(target=1.0, min_samples=0),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            LatencyShedder(SimClock(), **bad)

    def test_disabled_when_target_is_none(self):
        shedder = LatencyShedder(SimClock(), None)
        shedder.record_latency(99.0)
        shedder.record_service(99.0, 1)
        assert shedder.p99 is None
        assert shedder.decision(10_000) is None
        assert shedder.healthy

    def test_p99_needs_min_samples(self):
        shedder = LatencyShedder(SimClock(), 1.0, min_samples=5)
        for _ in range(4):
            shedder.record_latency(10.0)
        assert shedder.p99 is None
        assert shedder.healthy  # no evidence yet
        shedder.record_latency(10.0)
        assert shedder.p99 == pytest.approx(10.0)
        assert not shedder.healthy

    def test_p99_interpolates(self):
        shedder = LatencyShedder(SimClock(), 100.0, min_samples=1)
        for value in range(1, 102):  # 1..101 → rank 0.99*100 = 99
            shedder.record_latency(float(value))
        assert shedder.p99 == pytest.approx(100.0)

    def test_window_forgets_old_samples(self):
        clock = SimClock()
        shedder = LatencyShedder(clock, 1.0, window=10.0, min_samples=1)
        shedder.record_latency(50.0)
        assert not shedder.healthy
        clock.advance(10.001)
        assert shedder.p99 is None  # the spike aged out
        assert shedder.healthy

    def test_predicted_delay_uses_windowed_mean_service(self):
        shedder = LatencyShedder(SimClock(), 5.0, min_samples=1)
        assert shedder.predicted_delay(10) is None  # no service evidence
        shedder.record_service(4.0, writes=8)   # 0.5 s/write
        shedder.record_service(12.0, writes=8)  # 1.5 s/write
        assert shedder.mean_service == pytest.approx(1.0)
        assert shedder.predicted_delay(10) == pytest.approx(10.0)

    def test_decision_reasons_and_counters(self):
        shedder = LatencyShedder(SimClock(), 2.0, min_samples=1)
        assert shedder.decision(0) is None
        shedder.record_service(4.0, writes=1)  # 4 s/write
        reason = shedder.decision(1)
        assert reason is not None and "predicted queueing delay" in reason
        assert shedder.shed_predicted == 1
        shedder.record_latency(9.0)
        reason = shedder.decision(0)
        assert reason is not None and "p99" in reason
        assert shedder.shed_p99 == 1
        stats = shedder.statistics()
        assert stats["shed_p99"] == 1 and stats["shed_predicted"] == 1


class TestFairShare:
    def test_unbounded_queue_never_sheds(self):
        scheduler = WriteScheduler()
        assert fair_share_exceeded(scheduler, "anyone") is None

    def test_share_splits_capacity_across_active_tenants(self):
        scheduler = WriteScheduler(max_queue_depth=8)

        class Stub:
            def __init__(self, counts):
                self.queue_capacity = 8
                self._counts = counts

            def queued_for(self, tenant):
                return self._counts.get(tenant, 0)

            @property
            def active_tenants(self):
                return len([c for c in self._counts.values() if c])

        # A lone tenant may hold the whole queue minus nothing: share = 8.
        assert fair_share_exceeded(Stub({"a": 7}), "a") is None
        assert fair_share_exceeded(Stub({"a": 8}), "a") is not None
        # Two active tenants: share = ceil(8/2) = 4.
        assert fair_share_exceeded(Stub({"a": 3, "b": 1}), "a") is None
        reason = fair_share_exceeded(Stub({"a": 4, "b": 1}), "a")
        assert reason is not None and "fair share 4" in reason
        # A tenant with nothing queued is never shed by fairness.
        assert fair_share_exceeded(Stub({"a": 8}), "b") is None
        del scheduler


class TestGatewayShedding:
    def test_latency_shed_reason_and_counter(self):
        gateway, system = build_gateway(latency_target=1.0)
        tables = tenant_tables(system)
        peer, metadata_id = sorted(tables.items())[0]
        session = gateway.open_session(peer)
        # Simulate a run of slow committed writes.
        for _ in range(5):
            gateway.shedder.record_latency(5.0)
        response = gateway.submit(session, update_for(metadata_id, "late"))
        assert response.status == STATUS_SHED
        assert "p99" in response.error and "retry later" in response.error
        assert gateway.metrics()["resilience"]["shed_by_reason"]["latency"] == 1

    def test_fair_share_sheds_hot_tenant_but_admits_others(self):
        gateway, system = build_gateway(patients=2, max_queue_depth=4)
        tables = tenant_tables(system)
        (peer_a, table_a), (peer_b, table_b) = sorted(tables.items())
        session_a = gateway.open_session(peer_a)
        session_b = gateway.open_session(peer_b)
        # Tenant A fills its fair share of the bounded queue (4/2 = 2 once
        # both tenants are active; while alone its share is the full 4 — so
        # enqueue one B write first to make the queue contended).
        assert gateway.submit(session_b, update_for(table_b, "b0")).status == STATUS_QUEUED
        assert gateway.submit(session_a, update_for(table_a, "a0")).status == STATUS_QUEUED
        shed = None
        for index in range(4):
            response = gateway.submit(session_a, update_for(table_a, f"a{index + 1}"))
            if response.status == STATUS_SHED:
                shed = response
                break
        assert shed is not None, "the hot tenant was never shed"
        assert "fair share" in shed.error
        # The other tenant still gets in.
        assert gateway.submit(session_b, update_for(table_b, "b1")).status == STATUS_QUEUED
        assert gateway.metrics()["resilience"]["shed_by_reason"]["fair_share"] >= 1
        gateway.drain()

    def test_open_commit_breaker_sheds_writes_then_half_open_probe_admits(self):
        gateway, system = build_gateway()
        tables = tenant_tables(system)
        peer, metadata_id = sorted(tables.items())[0]
        session = gateway.open_session(peer)
        for _ in range(3):
            gateway.breakers.record("commit", False)
        response = gateway.submit(session, update_for(metadata_id, "blocked"))
        assert response.status == STATUS_SHED
        assert "circuit breaker" in response.error
        assert gateway.metrics()["resilience"]["shed_by_reason"]["breaker"] == 1
        assert gateway.commit_path_unhealthy()
        # After the reset timeout the half-open breaker admits a probe write,
        # and its successful commit closes the breaker.  (A hair past the
        # timeout: the clock carries topology-build float residue.)
        system.simulator.clock.advance(10.001)
        probe = gateway.submit(session, update_for(metadata_id, "probe"))
        assert probe.status == STATUS_QUEUED
        gateway.commit_once()
        assert probe.status == STATUS_OK
        assert gateway.breakers.peek("commit").state == STATE_CLOSED
        assert not gateway.commit_path_unhealthy()

    def test_tenant_breaker_only_sheds_that_tenant(self):
        gateway, system = build_gateway(patients=2)
        tables = tenant_tables(system)
        (peer_a, table_a), (peer_b, table_b) = sorted(tables.items())
        session_a = gateway.open_session(peer_a)
        session_b = gateway.open_session(peer_b)
        for _ in range(3):
            gateway.breakers.record(f"tenant:{peer_a}", False)
        assert gateway.submit(session_a, update_for(table_a, "x")).status == STATUS_SHED
        assert gateway.submit(session_b, update_for(table_b, "y")).status == STATUS_QUEUED
        gateway.drain()


class TestOutcomeRecording:
    def test_contract_rejection_counts_as_breaker_success(self):
        """A REJECTED write is the contract doing its job — the commit path
        is healthy and must not accumulate breaker failures."""
        gateway, system = build_gateway()
        tables = tenant_tables(system)
        peer, metadata_id = sorted(tables.items())[0]
        session = gateway.open_session(peer)
        # A missing-key edit passes admission and is rejected by the batch
        # workflow at commit time.
        bad = UpdateEntryRequest(metadata_id=metadata_id, key=(9999,),
                                 updates={"clinical_data": "ghost"})
        response = gateway.submit(session, bad)
        assert response.status == STATUS_QUEUED
        gateway.commit_once()
        assert response.status == STATUS_REJECTED
        commit = gateway.breakers.peek("commit")
        assert commit is not None and commit.state == STATE_CLOSED
        assert commit.statistics()["consecutive_failures"] == 0

    def test_successful_commit_materialises_breakers(self):
        gateway, system = build_gateway()
        tables = tenant_tables(system)
        peer, metadata_id = sorted(tables.items())[0]
        session = gateway.open_session(peer)
        assert gateway.breakers.peek("commit") is None
        gateway.submit(session, update_for(metadata_id, "fine"))
        gateway.commit_once()
        states = gateway.breakers.states()
        assert states["commit"] == STATE_CLOSED
        assert states[f"tenant:{peer}"] == STATE_CLOSED
        assert any(name.startswith("lane:") for name in states)


class TestDegradedReads:
    def prime(self, gateway, session, metadata_id):
        response = gateway.submit(session, ReadViewRequest(metadata_id))
        assert response.status == STATUS_OK
        assert "degraded" not in response.payload
        return response

    def trip_commit_path(self, gateway):
        for _ in range(3):
            gateway.breakers.record("commit", False)
        assert gateway.commit_path_unhealthy()

    def test_unhealthy_commit_path_serves_bounded_stale_reads(self):
        gateway, system = build_gateway(degraded_reads=True)
        tables = tenant_tables(system)
        peer, metadata_id = sorted(tables.items())[0]
        session = gateway.open_session(peer)
        self.prime(gateway, session, metadata_id)
        self.trip_commit_path(gateway)
        system.simulator.clock.advance(2.0)
        response = gateway.submit(session, ReadViewRequest(metadata_id))
        assert response.status == STATUS_OK
        assert response.payload["degraded"] is True
        assert response.payload["staleness"] == pytest.approx(2.0)
        assert gateway.metrics()["resilience"]["degraded_reads_served"] == 1
        assert gateway.metrics()["resilience"]["degraded_reads_served"] == 1

    def test_over_age_entries_fall_back_to_the_normal_path(self):
        gateway, system = build_gateway(degraded_reads=True)
        assert gateway.max_staleness == 30.0
        tables = tenant_tables(system)
        peer, metadata_id = sorted(tables.items())[0]
        session = gateway.open_session(peer)
        self.prime(gateway, session, metadata_id)
        self.trip_commit_path(gateway)
        system.simulator.clock.advance(30.001)
        response = gateway.submit(session, ReadViewRequest(metadata_id))
        assert response.status == STATUS_OK
        assert "degraded" not in response.payload
        assert gateway.metrics()["resilience"]["degraded_reads_served"] == 0

    def test_disabled_by_default(self):
        gateway, system = build_gateway()
        tables = tenant_tables(system)
        peer, metadata_id = sorted(tables.items())[0]
        session = gateway.open_session(peer)
        self.prime(gateway, session, metadata_id)
        self.trip_commit_path(gateway)
        response = gateway.submit(session, ReadViewRequest(metadata_id))
        assert "degraded" not in response.payload

    def test_healthy_commit_path_never_marks_reads(self):
        gateway, system = build_gateway(degraded_reads=True)
        tables = tenant_tables(system)
        peer, metadata_id = sorted(tables.items())[0]
        session = gateway.open_session(peer)
        self.prime(gateway, session, metadata_id)
        response = gateway.submit(session, ReadViewRequest(metadata_id))
        assert "degraded" not in response.payload


class TestColdStartShedding:
    """Regression: an empty/thin latency window must read as "no evidence"
    (None), never as a 0.0-second p99 — and unanimous over-target early
    evidence sheds instead of waving writes through until min_samples."""

    def test_empty_window_is_no_evidence(self):
        from repro.obs import Histogram

        histogram = Histogram()
        assert histogram.percentile(99.0) == 0.0  # report-friendly default
        assert histogram.percentile(99.0, default=None) is None  # decisions
        shedder = LatencyShedder(SimClock(), 2.0, min_samples=5)
        assert shedder.p99 is None
        assert shedder.decision(0) is None  # nothing measured: admit

    def test_unanimous_slow_cold_start_sheds(self):
        shedder = LatencyShedder(SimClock(), 1.0, min_samples=5)
        for _ in range(3):  # below min_samples — p99 still withheld
            shedder.record_latency(10.0)
        assert shedder.p99 is None
        assert shedder.healthy  # degraded-read gating is unchanged
        reason = shedder.decision(0)
        assert reason is not None and "cold start" in reason
        assert shedder.shed_cold_start == 1
        assert shedder.statistics()["shed_cold_start"] == 1

    def test_mixed_cold_start_admits(self):
        shedder = LatencyShedder(SimClock(), 1.0, min_samples=5)
        shedder.record_latency(10.0)
        shedder.record_latency(0.5)  # one fast write: not unanimous
        assert shedder.decision(0) is None
        assert shedder.shed_cold_start == 0

    def test_warm_window_uses_p99_not_cold_start(self):
        shedder = LatencyShedder(SimClock(), 1.0, min_samples=2)
        shedder.record_latency(10.0)
        shedder.record_latency(10.0)
        reason = shedder.decision(0)
        assert reason is not None and "p99" in reason
        assert shedder.shed_cold_start == 0


class TestStalenessWiring:
    """Regression for the clock-default bug: entries installed without a
    clock have *unknown* age and must never be served degraded."""

    def test_unknown_age_refuses_degraded_read(self):
        gateway, system = build_gateway(degraded_reads=True)
        tables = tenant_tables(system)
        peer, metadata_id = sorted(tables.items())[0]
        session = gateway.open_session(peer)
        # Simulate a pre-fix entry: installed while no clock was attached.
        gateway.cache.clock = None
        response = gateway.submit(session, ReadViewRequest(metadata_id))
        assert response.status == STATUS_OK
        gateway.cache.clock = system.simulator.clock
        view, age = gateway.cache.peek_entry(peer, metadata_id)
        assert age is None
        for _ in range(3):
            gateway.breakers.record("commit", False)
        assert gateway.commit_path_unhealthy()
        system.simulator.clock.advance(2.0)
        response = gateway.submit(session, ReadViewRequest(metadata_id))
        # Unknown age fails the staleness cutoff: the read takes the normal
        # path instead of being served degraded at an unbounded age.
        assert "degraded" not in response.payload
        assert gateway.metrics()["resilience"]["degraded_reads_served"] == 0

    def test_gateway_asserts_clock_wiring(self):
        from repro.errors import GatewayError

        system = build_topology_system(
            TopologySpec(patients=2, researchers=0),
            SystemConfig.private_chain(1.0))
        system.simulator.clock = None
        with pytest.raises(GatewayError):
            SharingGateway(system)

    def test_cache_clock_is_wired(self):
        gateway, system = build_gateway()
        assert gateway.cache.clock is system.simulator.clock
