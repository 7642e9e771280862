"""Golden workflow traces of the Fig. 5 phase loop, one seeded run per caller.

The runs are the entry points on one lane (with and without delta
propagation), the gateway's batched commit, and a hospital fan-out whose
cascade legs share two rounds, on five lanes and on one.  Each is hashed
step by step (actor, action, description, simulated time, block number,
data) together with the tracer's ``(name, attrs)`` spans.  Step text,
timestamps, ``consensus.round`` phases and span attributes must not move.

``parallel-one-lane`` was re-captured on purpose when every cascade of two
or more legs took shared rounds on any lane count: its seven legs (one
refused) went from thirteen ``sequential`` rounds to one
``cascade_requests`` and one ``cascade_acks`` round.  The peers' fingerprints are pinned apart from the
traces and did not move.

``sequential-delta``, ``sequential-full``, ``parallel`` and
``parallel-one-lane`` were re-captured on purpose when a refused cascade leg
stopped writing its error onto the trace it shares with its parent: each
run's succeeding parent trace went from ``error=<the leg's refusal>`` to
``error=None``; the refusal stays on the leg's ``contract_request`` step and
every other field is unchanged.

``parallel`` and ``parallel-one-lane`` were re-captured on purpose when the
join topology's patients became light peers: with no block flood to twelve
patient replicas, fewer deliveries advance the simulated clock, so each run's
54 step times moved earlier (the last from 35.417 to 34.328 s on five lanes).
Every other step field, the spans and the fingerprints did not move.
"""

from dataclasses import replace
from functools import lru_cache

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
    "sequential-delta": "766adf7bc5a31c3a3246598ff190e1a00bb0f9411adf30192b3a45e48ba2ac74",
    "sequential-full": "019c8b8842dbf48dfcc687bc03dd85d8a4160465f829aebce09b805d1a25104c",
    "batch": "7766944f353310d11381c322f13f38b75e328ebcef032f903a5fca804031db3f",
    "parallel": "80dd926b4cc374355f29d12e8a02b6adcad54d8c3c6a31a0ab06c28d12342288",
    "parallel-one-lane": "524eb897c06f23af723f49f4abbdc290cd1777fa070c8761bb9d3195972b1012",
}

#: ``state_fingerprints()`` of every peer after the fan-out, on one lane and
#: on five, pinned apart from the trace: how the legs reach the ledger may
#: move the steps and spans, never the tables the peers end with.
FANOUT_FINGERPRINT = "dcb6df79942d3ee1440837bb014e62ce997d86bea740aa71030935d80a8d0b85"


def _trace_payload(trace) -> dict:
    payload = trace.to_dict()
    # Steps are pinned in full; of the envelope only what the issue names.
    return {key: payload[key] for key in
            ("initiator", "metadata_id", "operation", "steps", "succeeded",
             "error", "blocks_created", "cascaded_metadata_ids")}


def _spans(tracer, ordered: bool = True) -> list:
    spans = [[span.name, dict(span.attrs)] for span in tracer.spans()]
    if not ordered:
        # The hash was captured while the legs' middles ran on executor
        # threads, whose span order was not deterministic: pin the multiset.
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


@lru_cache(maxsize=None)
def _fanout(shards: int):
    """A hospital batch fans out over the join topology on ``shards``
    consensus lanes, one cascade leg per patient; one leg is refused
    on-chain.  Returns the hashed payload and the peers' fingerprints."""
    config = SystemConfig(
        ledger=LedgerConfig(
            consensus=ConsensusConfig(kind="poa", block_interval=1.0),
            max_transactions_per_block=16, consensus_shards=shards),
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
    payload = {"traces": [_trace_payload(trace) for trace in result.traces],
               "blocks_created": result.blocks_created,
               "consensus_rounds": result.consensus_rounds,
               "unhealed": sorted(system.server_app("doctor").manager.unhealed_views),
               "spans": spans}
    return payload, hash_payload(system.state_fingerprints())


RUNS = {
    "sequential-delta": lambda: _sequential(delta=True),
    "sequential-full": lambda: _sequential(delta=False),
    "batch": _batch,
    "parallel": lambda: _fanout(5)[0],
    "parallel-one-lane": lambda: _fanout(1)[0],
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_driver_trace_matches_the_parent_commit(name):
    assert hash_payload(RUNS[name]()) == GOLDEN[name]


@pytest.mark.parametrize("shards", [1, 5])
def test_fanout_fingerprints_match_the_parent_commit(shards):
    assert _fanout(shards)[1] == FANOUT_FINGERPRINT


if __name__ == "__main__":  # prints the hashes to paste into GOLDEN
    for run_name in sorted(RUNS):
        print(f'    "{run_name}": "{hash_payload(RUNS[run_name]())}",')
    for lanes in (1, 5):
        print(f"    fingerprints on {lanes} lane(s): {_fanout(lanes)[1]}")
