"""E17 — parallel cascades + join deltas: fan-out propagation over lanes.

Run one leg at a time, a change that fans out to N dependent views pays
2·N consensus rounds (one request round and one acknowledgement round per
leg), even when the legs target independent shared tables on independent
consensus lanes.  The coordinator's one phase loop instead takes all legs
of one cascade at once (``SystemConfig.parallel_cascades``, on any lane
count): they commit through *shared* request/ack rounds and their
ledger-free middles run grouped by consensus lane — 2 rounds per cascade
instead of 2·N — merging deterministically so the post-state is
byte-identical to the sequential oracle.  A failing leg is dropped alone;
the others finish.

The workload is cascade-heavy by construction (see
:func:`repro.workloads.topology.build_join_topology_system`): a hospital
shares the doctor's whole D3 keyed by patient id, and the doctor's
per-patient views are **join-backed** (σ_patient(D3) ⋈ medications,
enriched with the guideline column).  Each round the hospital batch-updates
``mechanism_of_action`` for every patient on a medication — one multi-row
diff, one cascade, one leg per affected patient view, each leg translated
by the keyed-join delta rules — and a few patients write ``clinical_data``
back through the join's backward direction.

Three configurations run the identical workload:

* **parallel + delta** — the measured pipeline;
* **sequential + delta** — ``parallel_cascades=False``, the oracle the
  speedup gate compares against (simulated seconds);
* **parallel + full** — ``delta_propagation=False``, every leg recomputed
  by full get/put (the delta-vs-full A/B: same fingerprints, zero delta
  translations).

Run it with ``python benchmarks/gate.py parallel_cascade [--quick]``.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.config import ConsensusConfig, LedgerConfig, NetworkConfig, SystemConfig
from repro.core.system import MedicalDataSharingSystem
from repro.crypto.signatures import _equation_holds
from repro.gateway import SharingGateway, UpdateEntryRequest
from repro.ledger.transaction import _decode_shared
from repro.workloads.topology import (
    HOSPITAL_TABLE_ID,
    TopologySpec,
    build_join_topology_system,
    patients_by_medication,
)

PATIENTS = 12
MEDICATIONS = 3
#: 5 shards = 4 *data* lanes + the reserved control lane 0; the per-patient
#: metadata ids spread the cascade legs over the data lanes.
SHARDS = 5
FULL_ROUNDS = 2
QUICK_ROUNDS = 1
BLOCK_INTERVAL = 2.0
#: Patient-id base whose medication groups spread their legs over several
#: data lanes of the 5-shard hash (a representative placement).
FIRST_PATIENT_ID = 1_008
#: The acceptance gate: parallel cascades must commit the same fan-out
#: workload in at most half the simulated time of the sequential oracle.
TARGET_SPEEDUP = 2.0


def _build(parallel: bool, delta: bool) -> MedicalDataSharingSystem:
    config = SystemConfig(
        ledger=LedgerConfig(
            consensus=ConsensusConfig(kind="poa", block_interval=BLOCK_INTERVAL),
            max_transactions_per_block=16,
            consensus_shards=SHARDS,
        ),
        # Near-zero transport latency isolates consensus rounds: the simulated
        # clock then measures block intervals, not gossip hops.
        network=NetworkConfig(base_latency=0.002, latency_jitter=0.001),
        parallel_cascades=parallel,
        delta_propagation=delta,
    )
    return build_join_topology_system(
        TopologySpec(patients=PATIENTS, researchers=0,
                     distinct_medications=MEDICATIONS,
                     first_patient_id=FIRST_PATIENT_ID),
        config)


def _manager_totals(system: MedicalDataSharingSystem) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for name in system.peer_names:
        for key, value in system.server_app(name).manager.statistics.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def _run_workload(system: MedicalDataSharingSystem, rounds: int) -> Dict[str, object]:
    """The fan-out workload: per-medication hospital batches (each one
    cascade with one leg per patient on that medication) plus per-round
    patient ``clinical_data`` write-backs through the join's put direction."""
    gateway = SharingGateway(system, max_batch_size=32)
    hospital = gateway.open_session("hospital")
    groups = patients_by_medication(system)
    patient_sessions = {
        patient_id: gateway.open_session(f"patient-{patient_id}")
        for patient_ids in groups.values() for patient_id in patient_ids
    }
    responses = []
    # ``wall_seconds`` of the two arms sit side by side in the output: neither
    # may inherit the other's decoded transactions and signature checks.
    _decode_shared.cache_clear()
    _equation_holds.cache_clear()
    start = system.simulator.clock.now()
    wall_start = time.perf_counter()
    for round_index in range(rounds):
        for medication, patient_ids in groups.items():
            # One batched hospital update per medication: k same-table edits
            # fold into one multi-row diff and one k-leg cascade.
            for patient_id in patient_ids:
                responses.append(gateway.submit(hospital, UpdateEntryRequest(
                    metadata_id=HOSPITAL_TABLE_ID, key=(patient_id,),
                    updates={"mechanism_of_action":
                             f"MeA-{medication}-r{round_index}"})))
            gateway.drain()
        # Patient write-backs: the first patient of every medication group
        # edits clinical_data, reflected at the doctor through the join
        # lens's backward delta (read-only enrichment columns untouched).
        for medication, patient_ids in groups.items():
            patient_id = patient_ids[0]
            responses.append(gateway.submit(
                patient_sessions[patient_id],
                UpdateEntryRequest(metadata_id=f"D13&D31:{patient_id}",
                                   key=(patient_id,),
                                   updates={"clinical_data":
                                            f"CliD-{patient_id}-r{round_index}"})))
        gateway.drain()
    elapsed = system.simulator.clock.now() - start
    wall_seconds = time.perf_counter() - wall_start
    assert all(response.ok for response in responses)
    assert system.all_shared_tables_consistent()
    metrics = gateway.metrics()
    totals = _manager_totals(system)
    return {
        "writes": len(responses),
        "cascade_legs": sum(len(ids) for ids in groups.values()) * rounds,
        "simulated_seconds": elapsed,
        "wall_seconds": wall_seconds,
        "throughput": len(responses) / elapsed,
        "consensus_rounds": metrics["batches"]["consensus_rounds"],
        "delta_get_invocations": totals["delta_get_invocations"],
        "delta_put_invocations": totals["delta_put_invocations"],
        "full_put_invocations": totals["put_invocations"],
        "delta_fallbacks": totals["delta_fallbacks"],
        "shards": metrics["shards"],
    }


def run(quick: bool, out: Optional[Path] = None) -> Dict[str, object]:
    """Parallel vs sequential cascades and delta vs full recompute over the
    identical fan-out workload; returns a JSON-able result."""
    rounds = QUICK_ROUNDS if quick else FULL_ROUNDS
    parallel_system = _build(parallel=True, delta=True)
    parallel = _run_workload(parallel_system, rounds)
    sequential_system = _build(parallel=False, delta=True)
    sequential = _run_workload(sequential_system, rounds)
    full_system = _build(parallel=True, delta=False)
    full = _run_workload(full_system, rounds)

    groups = patients_by_medication(parallel_system)
    return {
        "experiment": "E17_parallel_cascade",
        "workload": (f"{PATIENTS} patients / {MEDICATIONS} medications x "
                     f"{rounds} round(s): per-medication hospital fan-out "
                     "batches + patient write-backs over join-backed views"),
        "patients": PATIENTS,
        "medications": {m: len(ids) for m, ids in groups.items()},
        "shards": SHARDS,
        "rounds": rounds,
        "block_interval": BLOCK_INTERVAL,
        "parallel": parallel,
        "sequential": sequential,
        "full_recompute": full,
        "speedup": sequential["simulated_seconds"] / parallel["simulated_seconds"],
        "intervals_cut": (sequential["shards"]["lanes"]["intervals"]
                          - parallel["shards"]["lanes"]["intervals"]),
        # The sequential oracle and the full-recompute run agree with the
        # measured pipeline, table for table on every peer.
        "fingerprints_identical": (parallel_system.state_fingerprints()
                                   == sequential_system.state_fingerprints()
                                   == full_system.state_fingerprints()),
        "delta_fallbacks": parallel["delta_fallbacks"] + sequential["delta_fallbacks"],
    }


def gate(result: Dict[str, object]) -> List[str]:
    """The E17 acceptance conditions that ``result`` fails."""
    parallel, full = result["parallel"], result["full_recompute"]
    gates = {
        "fingerprints identical": result["fingerprints_identical"],
        f"speedup >= {TARGET_SPEEDUP}": result["speedup"] >= TARGET_SPEEDUP,
        # The keyed-join steady state never falls back to full recomputation.
        "delta_fallbacks == 0": result["delta_fallbacks"] == 0,
        # The deltas did the propagation work in the delta runs ...
        "delta gets > 0": parallel["delta_get_invocations"] > 0,
        "delta puts > 0": parallel["delta_put_invocations"] > 0,
        # ... and the full-recompute run did none (it full-put every leg).
        "full recompute made no delta puts": full["delta_put_invocations"] == 0,
        "full recompute made full puts": full["full_put_invocations"] > 0,
        # Fewer mining intervals is *where* the simulated time went: the legs'
        # request/ack rounds collapsed into shared intervals across lanes.
        "intervals cut": result["intervals_cut"] > 0,
    }
    return [name for name, passed in gates.items() if not passed]
