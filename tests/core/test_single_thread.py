"""Every load test runs on the caller's thread: none starts another.

All time is simulated, so nothing needs a second thread — the async
transport admits arrivals at consensus-round boundaries, parallel cascades
run their lane groups in a loop and the loopback fleet serves its workers one
after another.  With ``threading.Thread.start`` made to raise, each front end
must still complete.
"""

import threading

import pytest

from repro.cli import run_gateway_loadtest
from repro.config import ConsensusConfig, LedgerConfig, SystemConfig
from repro.gateway import SharingGateway, UpdateEntryRequest
from repro.workloads.topology import (
    HOSPITAL_TABLE_ID,
    TopologySpec,
    build_join_topology_system,
    patients_by_medication,
)


def _refuse_to_start(thread):
    raise AssertionError(f"a thread was started: {thread.name}")


@pytest.mark.parametrize("options", [
    {},
    {"transport": "async"},
    {"processes": 2, "fleet_mode": "loopback"},
    {"transport": "async", "replicas": 2},
], ids=["sync", "async", "loopback-fleet", "async-replicated"])
def test_loadtest_starts_no_thread(monkeypatch, options):
    monkeypatch.setattr(threading.Thread, "start", _refuse_to_start)
    result = run_gateway_loadtest(tenants=4, duration=6, **options)
    committed = result.get("committed_writes")  # a fleet's aggregate
    if committed is None:
        committed = result["metrics"]["batches"]["writes_committed"]
    assert committed > 0
    assert threading.active_count() == 1


def test_parallel_cascade_starts_no_thread(monkeypatch):
    """A hospital write fans out to one view per patient over five consensus
    lanes: the cascade's shared-round run takes every lane group in turn."""
    system = build_join_topology_system(
        TopologySpec(patients=12, researchers=0, distinct_medications=3,
                     first_patient_id=1008),
        SystemConfig(ledger=LedgerConfig(
            consensus=ConsensusConfig(kind="poa", block_interval=1.0),
            max_transactions_per_block=16, consensus_shards=5)))
    coordinator = system.coordinator
    parallel_runs = []
    run_legs = coordinator._run_legs

    def spy(legs, submit, rounds):
        if rounds.requests == "cascade_requests":
            parallel_runs.append(len(legs))
        return run_legs(legs, submit, rounds)

    monkeypatch.setattr(coordinator, "_run_legs", spy)
    monkeypatch.setattr(threading.Thread, "start", _refuse_to_start)
    gateway = SharingGateway(system)
    _medication, patient_ids = max(patients_by_medication(system).items(),
                                   key=lambda item: len(item[1]))
    hospital = gateway.open_session("hospital")
    responses = [gateway.submit(hospital, UpdateEntryRequest(
        metadata_id=HOSPITAL_TABLE_ID, key=(patient_id,),
        updates={"mechanism_of_action": "MeA-one-thread"}))
        for patient_id in patient_ids]
    gateway.drain()
    assert all(response.ok for response in responses)
    assert parallel_runs and max(parallel_runs) > 1
    for patient_id in patient_ids:
        view = f"D13&D31:{patient_id}"
        stored = system.peer(f"patient-{patient_id}").shared_table(view)
        assert {row["mechanism_of_action"] for row in stored.rows} == {"MeA-one-thread"}
    assert threading.active_count() == 1
