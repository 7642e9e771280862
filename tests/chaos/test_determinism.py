"""Chaos determinism: identical seeds must replay identical fault schedules,
retry timelines, breaker transitions, shed decisions — and byte-identical
trace exports, reusing the PR 6 export-determinism harness."""

import json

import pytest

from repro.chaos import FaultInjector, FaultPlan, FaultSpec, RetryPolicy
from repro.cli import default_soak_plan, run_chaos_soak, run_gateway_loadtest
from repro.config import SystemConfig
from repro.gateway import SharingGateway, UpdateEntryRequest
from repro.workloads.topology import TopologySpec, build_topology_system

pytestmark = [pytest.mark.integration]


def update_for(metadata_id, tag):
    patient_id = int(metadata_id.split(":")[1])
    return UpdateEntryRequest(metadata_id=metadata_id, key=(patient_id,),
                              updates={"clinical_data": tag})


class TestSoakDeterminism:
    def test_identical_seeds_replay_identical_soaks(self):
        first = run_chaos_soak(tenants=3, rounds=4, seed=23)
        second = run_chaos_soak(tenants=3, rounds=4, seed=23)
        assert first["fault_events"] == second["fault_events"]
        assert first["events_by_kind"] == second["events_by_kind"]
        assert first["fingerprints"] == second["fingerprints"]
        assert first["chain_lengths"] == second["chain_lengths"]
        assert first["statuses"] == second["statuses"]
        assert first["transport"] == second["transport"]
        assert first["simulated_seconds"] == second["simulated_seconds"]

    def test_plan_seed_changes_the_fault_schedule(self):
        base = run_chaos_soak(tenants=3, rounds=4, seed=23)
        other_plan = default_soak_plan(tenants=3, rounds=4, seed=99)
        other = run_chaos_soak(tenants=3, rounds=4, seed=23, plan=other_plan)
        # Same workload seed, different fault seed: the schedules differ but
        # the relational outcome still converges to the same oracle state.
        assert base["events_by_kind"] != other["events_by_kind"]
        oracle = run_chaos_soak(tenants=3, rounds=4, seed=23, inject=False)
        assert base["fingerprints"] == oracle["fingerprints"]
        assert other["fingerprints"] == oracle["fingerprints"]


class TestComponentTimelineDeterminism:
    def consensus_run(self):
        system = build_topology_system(
            TopologySpec(patients=2, researchers=0, seed=7),
            SystemConfig.private_chain(1.0))
        plan = FaultPlan(seed=5, specs=(
            FaultSpec(kind="consensus.fail", probability=0.5, max_fires=3),))
        system.attach_chaos(FaultInjector(plan, system.simulator.clock),
                            retry_policy=RetryPolicy())
        gateway = SharingGateway(system)
        tables = {f"patient-{mid.split(':')[1]}": mid
                  for mid in system.agreement_ids}
        sessions = {peer: gateway.open_session(peer) for peer in tables}
        for _round in range(4):
            for peer, metadata_id in sorted(tables.items()):
                gateway.submit(sessions[peer],
                               update_for(metadata_id, f"r{_round}"))
            gateway.commit_once()
            system.simulator.clock.advance(1.0)
        gateway.drain()
        return system, gateway

    def test_retry_timelines_are_replayable(self):
        first, _ = self.consensus_run()
        second, _ = self.consensus_run()
        timeline = first.coordinator.retrier.timeline
        assert timeline, "the plan never forced a retry"
        assert timeline == second.coordinator.retrier.timeline

    def breaker_run(self):
        system = build_topology_system(
            TopologySpec(patients=2, researchers=0, seed=7),
            SystemConfig.private_chain(1.0))
        # Terminal (non-retryable) commit faults: three blown batches trip
        # the commit breaker, and after the reset timeout a probe closes it.
        plan = FaultPlan(specs=(
            FaultSpec(kind="commit.fail", max_fires=3),))
        system.attach_chaos(FaultInjector(plan, system.simulator.clock))
        gateway = SharingGateway(system)
        tables = {f"patient-{mid.split(':')[1]}": mid
                  for mid in system.agreement_ids}
        sessions = {peer: gateway.open_session(peer) for peer in tables}
        peer, metadata_id = sorted(tables.items())[0]
        for index in range(3):
            response = gateway.submit(sessions[peer],
                                      update_for(metadata_id, f"f{index}"))
            assert response is not None
            try:
                gateway.commit_once()
            except Exception:
                pass
        system.simulator.clock.advance(10.001)
        probe = gateway.submit(sessions[peer], update_for(metadata_id, "probe"))
        gateway.commit_once()
        assert probe.ok
        return gateway.breakers.peek("commit").transitions

    def test_breaker_transitions_are_replayable(self):
        first = self.breaker_run()
        assert [(old, new) for _, old, new in first] == [
            ("closed", "open"), ("open", "half-open"), ("half-open", "closed")]
        assert first == self.breaker_run()

    def shed_run(self):
        result = run_gateway_loadtest(tenants=3, duration=6.0, rate=2.0,
                                      read_fraction=0.0, interval=1.0,
                                      batch_size=4, seed=23,
                                      latency_target=2.0)
        resilience = result["metrics"]["resilience"]
        return (result["metrics"]["requests"]["by_status"],
                resilience["shed_by_reason"], resilience["shedder"])

    def test_shed_decisions_are_replayable(self):
        first = self.shed_run()
        statuses, by_reason, shedder = first
        assert statuses.get("shed", 0) > 0, "the overload never shed"
        assert by_reason["latency"] == statuses["shed"]
        assert first == self.shed_run()


class TestExportDeterminism:
    """The PR 6 trace-determinism harness, now with a fault plan attached."""

    def traced(self, tmp_path, tag, plan_seed=7):
        plan = default_soak_plan(tenants=3, rounds=4, seed=plan_seed).to_dict()
        out = tmp_path / f"trace-{tag}.jsonl"
        events = tmp_path / f"events-{tag}.jsonl"
        result = run_gateway_loadtest(
            tenants=3, duration=8.0, seed=23, interval=1.0,
            state_dir=str(tmp_path / f"state-{tag}"),
            trace=True, trace_out=str(out),
            chaos=plan, chaos_events_out=str(events))
        return result, out, events

    def test_identical_seeds_export_byte_identical_traces_under_chaos(
            self, tmp_path):
        first_result, first, first_events = self.traced(tmp_path, "a")
        second_result, second, second_events = self.traced(tmp_path, "b")
        assert first_result["chaos"]["fault_events"] > 0
        first_bytes = first.read_bytes()
        assert first_bytes
        assert first_bytes == second.read_bytes()
        assert first_events.read_bytes() == second_events.read_bytes()
        assert first_result["chaos"]["events_by_kind"] == \
            second_result["chaos"]["events_by_kind"]

    def test_fault_seed_changes_the_trace(self, tmp_path):
        _, first, first_events = self.traced(tmp_path, "a")
        _, other, other_events = self.traced(tmp_path, "c", plan_seed=8)
        assert first_events.read_bytes() != other_events.read_bytes()
        assert first.read_bytes() != other.read_bytes()

    def test_event_log_round_trips_as_json(self, tmp_path):
        _, _, events = self.traced(tmp_path, "a")
        lines = events.read_text(encoding="utf-8").splitlines()
        assert lines
        for line in lines:
            event = json.loads(line)
            assert {"seq", "time", "kind", "target", "outcome"} <= set(event)


class TestChaosCountersReachTheRegistry:
    """The injector, the retriers and the gateway share one registry, so the
    snapshot ``repro metrics`` prints names every injected fault and retry."""

    def test_registry_counters_agree_with_the_event_log(self, tmp_path):
        plan = FaultPlan(seed=7, specs=(
            FaultSpec(kind="transport.drop", probability=0.1, max_fires=5),
            FaultSpec(kind="consensus.fail", probability=0.3, max_fires=4),
            FaultSpec(kind="wal.fsync", probability=0.2, max_fires=3)))
        result = run_gateway_loadtest(
            tenants=3, duration=8.0, seed=23, interval=1.0,
            state_dir=str(tmp_path), chaos=plan, registry=True)
        by_kind = result["chaos"]["events_by_kind"]
        counters = result["registry"]["counters"]
        assert by_kind["consensus.fail"] > 0 and by_kind["transport.drop"] > 0
        assert {kind: counters[f'chaos_faults_injected{{kind="{kind}"}}']
                for kind in by_kind} == by_kind
        # Every failed consensus round was retried, none gave up.
        assert counters['chaos_retries{scope="consensus"}'] == by_kind["consensus.fail"]
        assert counters['chaos_retries_exhausted{scope="consensus"}'] == 0
        assert counters['chaos_retries{scope="wal:journal"}'] == by_kind["wal.fsync"]
