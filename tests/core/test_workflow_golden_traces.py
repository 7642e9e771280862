"""Golden workflow traces of the three Fig. 5 drivers.

One seeded run per driver — the sequential protocol, the gateway's batched
commit and the shared-round parallel cascade — hashed step by step (actor,
action, description, simulated time, block number, data) together with the
tracer's ``(name, attrs)`` spans.  The hex values were captured on the commit
*before* the three drivers were collapsed onto one set of stage functions
(PR 12): step text, timestamps, ``consensus.round`` phases and span
attributes must not move.
"""

from dataclasses import replace

import pytest

from repro.config import ConsensusConfig, LedgerConfig, NetworkConfig, SystemConfig
from repro.core.scenario import CARE_TABLE, STUDY_TABLE, build_extended_scenario
from repro.core.workflow import BatchGroup, EntryEdit
from repro.crypto.hashing import hash_payload
from repro.errors import UpdateRejected
from repro.gateway import SharingGateway, UpdateEntryRequest
from repro.obs.tracer import Tracer
from repro.workloads.topology import (
    HOSPITAL_TABLE_ID,
    TopologySpec,
    build_join_topology_system,
    patients_by_medication,
)

GOLDEN = {
    "sequential-delta": "2b475488e80da4559e3cbdba80c20f242552f3ac870e5a3da527c8d115168fbe",
    "sequential-full": "61d78b5f1867e2cd02b143ffe845dd2b0d304eaccce52e0cebd3069bd46b7692",
    "batch": "7766944f353310d11381c322f13f38b75e328ebcef032f903a5fca804031db3f",
    "parallel": "90b3a3f43146655e09a3d3b31de23a8a5d36e9e9c06898dd8d5e373c47c77f67",
}


def _trace_payload(trace) -> dict:
    payload = trace.to_dict()
    # Steps are pinned in full; of the envelope only what the issue names.
    return {key: payload[key] for key in
            ("initiator", "metadata_id", "operation", "steps", "succeeded",
             "error", "blocks_created", "cascaded_metadata_ids")}


def _spans(tracer, ordered: bool = True) -> list:
    spans = [[span.name, dict(span.attrs)] for span in tracer.spans()]
    if not ordered:
        # Executor threads finish their leg spans in scheduler order; the
        # multiset is deterministic, the interleaving is not.
        spans.sort(key=hash_payload)
    return spans


def _sequential(delta: bool) -> dict:
    """Direct coordinator calls on one lane: Researcher → Doctor → Patient
    cascade, once with the CARE leg rejected (unhealed-view mark) and once
    healed, then create / delete / propagate and a rejected primary."""
    config = replace(SystemConfig.private_chain(1.0), delta_propagation=delta)
    system = build_extended_scenario(config)
    tracer = Tracer(system.simulator.clock)
    system.attach_tracer(tracer)
    coordinator = system.coordinator
    coordinator.change_permission("doctor", CARE_TABLE, "dosage", ["Patient"])
    traces = [coordinator.update_shared_entry(
        "researcher", STUDY_TABLE, (188,), {"dosage": "missed dose"})]
    unhealed = sorted(system.server_app("doctor").manager.unhealed_views)
    coordinator.change_permission("doctor", CARE_TABLE, "dosage", ["Doctor"])
    traces.append(coordinator.update_shared_entry(
        "researcher", STUDY_TABLE, (189,), {"dosage": "other dose"}))
    traces.append(coordinator.create_shared_entry(
        "doctor", CARE_TABLE,
        {"patient_id": 500, "medication_name": "Aspirin",
         "clinical_data": "CliD-500", "dosage": "low dose"}))
    traces.append(coordinator.delete_shared_entry("doctor", CARE_TABLE, (189,)))
    system.peer("doctor").database.table("D3").update_by_key(
        (188,), {"dosage": "edited at the source"})
    traces.append(coordinator.propagate_local_change("doctor", CARE_TABLE))
    with pytest.raises(UpdateRejected) as rejected:
        coordinator.update_shared_entry(
            "patient", CARE_TABLE, (188,), {"dosage": "not the patient's"})
    traces.append(rejected.value.trace)
    assert system.all_shared_tables_consistent()
    return {"traces": [_trace_payload(trace) for trace in traces],
            "unhealed": unhealed, "spans": _spans(tracer)}


def _batch() -> dict:
    """One gateway batch of two groups: CARE folds a doctor and a patient
    edit (plus one invalid edit, rejected alone) and cascades into STUDY;
    the STUDY group itself is refused by the contract."""
    system = build_extended_scenario(SystemConfig.private_chain(1.0))
    tracer = Tracer(system.simulator.clock)
    gateway = SharingGateway(system, tracer=tracer)
    doctor = gateway.open_session("doctor")
    patient = gateway.open_session("patient")
    researcher = gateway.open_session("researcher")
    responses = [
        gateway.submit(doctor, UpdateEntryRequest(
            CARE_TABLE, (188,), {"dosage": "two tablets every 6h"})),
        gateway.submit(patient, UpdateEntryRequest(
            CARE_TABLE, (189,), {"clinical_data": "patient-reported"})),
        gateway.submit(doctor, UpdateEntryRequest(
            CARE_TABLE, (99999,), {"dosage": "ghost"})),
        gateway.submit(researcher, UpdateEntryRequest(
            STUDY_TABLE, (189,), {"mechanism_of_action": "will-be-revoked"})),
    ]
    system.coordinator.change_permission(
        "researcher", STUDY_TABLE, "mechanism_of_action", ["Doctor"])
    result = gateway.commit_once()
    assert gateway.queue_depth == 0
    assert system.all_shared_tables_consistent()
    return {"traces": [_trace_payload(trace) for trace in result.traces],
            "blocks_created": result.blocks_created,
            "consensus_rounds": result.consensus_rounds,
            "edit_errors": result.edit_errors,
            "statuses": [[response.status, response.error] for response in responses],
            "spans": _spans(tracer)}


def _parallel() -> dict:
    """A hospital batch fans out over the 5-lane join topology through the
    shared-round cascade; one leg is refused on-chain."""
    config = SystemConfig(
        ledger=LedgerConfig(
            consensus=ConsensusConfig(kind="poa", block_interval=1.0),
            max_transactions_per_block=16, consensus_shards=5),
        network=NetworkConfig(base_latency=0.002, latency_jitter=0.001))
    system = build_join_topology_system(
        TopologySpec(patients=12, researchers=0, distinct_medications=3,
                     first_patient_id=1008), config)
    tracer = Tracer(system.simulator.clock)
    system.attach_tracer(tracer)
    _medication, patient_ids = max(patients_by_medication(system).items(),
                                   key=lambda item: len(item[1]))
    victim_table = f"D13&D31:{patient_ids[0]}"
    coordinator = system.coordinator
    coordinator.change_permission("doctor", victim_table,
                                  "mechanism_of_action", ["Patient"])
    result = coordinator.commit_entry_batch([BatchGroup(
        peer="hospital", metadata_id=HOSPITAL_TABLE_ID,
        edits=tuple(EntryEdit(op="update", key=(patient_id,),
                              values={"mechanism_of_action": "MeA-fanout"})
                    for patient_id in patient_ids))])
    assert system.all_shared_tables_consistent()
    spans = _spans(tracer, ordered=False)
    assert any(name == "consensus.round" and attrs.get("phase") == "cascade_acks"
               for name, attrs in spans)
    return {"traces": [_trace_payload(trace) for trace in result.traces],
            "blocks_created": result.blocks_created,
            "consensus_rounds": result.consensus_rounds,
            "unhealed": sorted(system.server_app("doctor").manager.unhealed_views),
            "spans": spans}


RUNS = {
    "sequential-delta": lambda: _sequential(delta=True),
    "sequential-full": lambda: _sequential(delta=False),
    "batch": _batch,
    "parallel": _parallel,
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_driver_trace_matches_the_parent_commit(name):
    assert hash_payload(RUNS[name]()) == GOLDEN[name]


if __name__ == "__main__":  # prints the hashes to paste into GOLDEN
    for run_name in sorted(RUNS):
        print(f'    "{run_name}": "{hash_payload(RUNS[run_name]())}",')
