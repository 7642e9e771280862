"""E13 — sharded consensus lanes: parallel block production + batch folding.

The seed serialises every shared-data commit through one chain: one mempool,
one block-size budget, one consensus round at a time, so *independent* shared
tables contend even though nothing in the protocol couples them.  The sharded
pipeline (``LedgerConfig.consensus_shards``) routes each table to a lane by a
stable hash of its metadata id; every lane has its own mempool shard and
block budget, and all lanes with pending work seal blocks in the **same**
simulated block interval.

This experiment drives the identical multi-tenant write workload (8 patient
tenants, each committing to its own shared table through the gateway, with a
per-block budget of 2 transactions so block space is the bottleneck) through

* the **1-shard baseline** — exactly the seed pipeline; and
* the **5-shard lanes** — the same workload, tables spread over the 4 data
  lanes (lane 0 is reserved for control traffic),

and reports commit throughput in writes per simulated second, each run's
state fingerprints, and whether the explicit 1-shard configuration
reproduces the default (unsharded) block hash sequence.

A second section measures **cross-peer batch folding** on the paper's CARE
table: doctor (dosage) and patient (clinical_data) writes on disjoint
attribute sets commit through one ``request_folded_update`` round pair
instead of one pair per peer.

Run it with ``python benchmarks/gate.py sharded_consensus [--quick]``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional

from repro.config import ConsensusConfig, LedgerConfig, NetworkConfig, SystemConfig
from repro.core.scenario import CARE_TABLE, build_extended_scenario
from repro.core.system import MedicalDataSharingSystem
from repro.gateway import SharingGateway, UpdateEntryRequest
from repro.workloads.topology import TopologySpec, build_topology_system

TENANTS = 8
#: 5 shards = 4 *data* lanes + the reserved control lane 0.
SHARDS = 5
FULL_ROUNDS = 3
QUICK_ROUNDS = 1
BLOCK_INTERVAL = 2.0
#: Two transactions per block: block space is the bottleneck the lanes
#: parallelise (the paper's single-chain budget).
MAX_TXS_PER_BLOCK = 2
#: Patient-id base whose 8 sequential metadata ids spread 2/2/2/2 over the
#: 4 data lanes of the 5-shard hash (a representative, not adversarial,
#: table placement).
FIRST_PATIENT_ID = 1_008
#: The acceptance gate: ≥2× commit throughput at 4 data lanes / 8 tenants.
TARGET_SPEEDUP = 2.0


def _build(**ledger) -> MedicalDataSharingSystem:
    """The 8-tenant topology; ``ledger`` adds ``LedgerConfig`` fields."""
    config = SystemConfig(
        ledger=LedgerConfig(
            consensus=ConsensusConfig(kind="poa", block_interval=BLOCK_INTERVAL),
            max_transactions_per_block=MAX_TXS_PER_BLOCK,
            **ledger,
        ),
        # Near-zero transport latency isolates the consensus pipeline: the
        # simulated clock then measures block intervals, not gossip hops.
        network=NetworkConfig(base_latency=0.002, latency_jitter=0.001),
    )
    return build_topology_system(
        TopologySpec(patients=TENANTS, researchers=0,
                     first_patient_id=FIRST_PATIENT_ID),
        config)


def _run_workload(system: MedicalDataSharingSystem, rounds: int) -> Dict[str, object]:
    """Per-tenant updates through the gateway, drained once per round."""
    gateway = SharingGateway(system, max_batch_size=TENANTS)
    tables = {f"patient-{mid.split(':')[1]}": mid for mid in system.agreement_ids}
    sessions = {peer: gateway.open_session(peer) for peer in tables}
    responses = []
    start = system.simulator.clock.now()
    for round_index in range(rounds):
        for peer, metadata_id in sorted(tables.items()):
            patient_id = int(metadata_id.split(":")[1])
            responses.append(gateway.submit(
                sessions[peer],
                UpdateEntryRequest(metadata_id=metadata_id, key=(patient_id,),
                                   updates={"clinical_data":
                                            f"CliD-{patient_id}-r{round_index}"})))
        gateway.drain()
    elapsed = system.simulator.clock.now() - start
    assert all(response.ok for response in responses)
    assert system.all_shared_tables_consistent()
    metrics = gateway.metrics()
    return {
        "writes": len(responses),
        "simulated_seconds": elapsed,
        "throughput": len(responses) / elapsed,
        "consensus_rounds": metrics["batches"]["consensus_rounds"],
        "shards": metrics["shards"],
    }


def _block_hashes(system: MedicalDataSharingSystem) -> List[str]:
    return [block.block_hash for block in system.simulator.nodes[0].chain.blocks]


def _run_fold_comparison(rounds: int) -> Dict[str, object]:
    """Cross-peer folding on the CARE table: fold on vs off, same writes."""

    def drive(fold: bool) -> Dict[str, object]:
        system = build_extended_scenario(SystemConfig.private_chain(BLOCK_INTERVAL))
        gateway = SharingGateway(system, fold_cross_peer=fold)
        doctor = gateway.open_session("doctor")
        patient = gateway.open_session("patient")
        responses = []
        for round_index in range(rounds):
            responses.append(gateway.submit(doctor, UpdateEntryRequest(
                CARE_TABLE, (188,), {"dosage": f"dose-r{round_index}"})))
            responses.append(gateway.submit(patient, UpdateEntryRequest(
                CARE_TABLE, (189,), {"clinical_data": f"note-r{round_index}"})))
            gateway.drain()
        assert all(response.ok for response in responses)
        assert system.all_shared_tables_consistent()
        assert system.check_contract_specification().passed
        metrics = gateway.metrics()
        return {
            "writes": len(responses),
            "consensus_rounds": metrics["batches"]["consensus_rounds"],
            "folded_writes": metrics["batches"]["folded_writes"],
            "fold_rounds_saved": metrics["batches"]["fold_rounds_saved"],
            "fingerprints": system.state_fingerprints(),
        }

    folded = drive(True)
    serialised = drive(False)
    return {
        "rounds": rounds,
        "fingerprints_identical": (folded.pop("fingerprints")
                                   == serialised.pop("fingerprints")),
        "folded": folded,
        "serialised": serialised,
        "rounds_cut": serialised["consensus_rounds"] - folded["consensus_rounds"],
    }


def run(quick: bool, out: Optional[Path] = None) -> Dict[str, object]:
    """1-shard vs N-shard over the same workload, then cross-peer folding;
    returns the JSON-able result."""
    rounds = QUICK_ROUNDS if quick else FULL_ROUNDS
    # --- seed-equivalence oracle: the explicit 1-shard configuration must
    # reproduce the default configuration's block sequence exactly.
    default_system = _build()
    _run_workload(default_system, rounds)
    baseline_system = _build(consensus_shards=1)
    baseline = _run_workload(baseline_system, rounds)
    sharded_system = _build(consensus_shards=SHARDS)
    sharded = _run_workload(sharded_system, rounds)

    gossip = sharded_system.simulator.gossip
    return {
        "experiment": "E13_sharded_consensus",
        "workload": (f"{TENANTS} tenants x {rounds} round(s) of single-row updates, "
                     f"{MAX_TXS_PER_BLOCK} txs/block budget"),
        "tenants": TENANTS,
        "shards": SHARDS,
        "rounds": rounds,
        "block_interval": BLOCK_INTERVAL,
        "baseline_1_shard": baseline,
        "sharded": sharded,
        "speedup": sharded["throughput"] / baseline["throughput"],
        "fingerprints_identical": (baseline_system.state_fingerprints()
                                   == sharded_system.state_fingerprints()),
        "single_shard_block_sequence_identical": (
            _block_hashes(baseline_system) == _block_hashes(default_system)),
        "tx_batch_topics": dict(sorted(gossip.topic_messages.items())),
        "fold": _run_fold_comparison(rounds),
    }


def gate(result: Dict[str, object]) -> List[str]:
    """The E13 acceptance conditions that ``result`` fails."""
    lanes = result["sharded"]["shards"]["lanes"]
    fold = result["fold"]
    gates = {
        "fingerprints identical": result["fingerprints_identical"],
        "1-shard block sequence identical":
            result["single_shard_block_sequence_identical"],
        f"speedup >= {TARGET_SPEEDUP}": result["speedup"] >= TARGET_SPEEDUP,
        # Lanes actually ran in parallel: several lanes produced blocks ...
        ">= 2 lanes produced blocks":
            sum(1 for count in lanes["blocks_per_lane"] if count) >= 2,
        # ... inside fewer intervals than blocks.
        "intervals < blocks": lanes["intervals"] < sum(lanes["blocks_per_lane"]),
        "tx-batch gossip on per-shard topics": any(
            topic.startswith("tx-batch/shard-") for topic in result["tx_batch_topics"]),
        # Folding cut the cross-peer hot path's rounds (2 per folded batch)
        # without changing the post-state.
        "fold fingerprints identical": fold["fingerprints_identical"],
        "fold rounds_cut >= 2 x rounds": fold["rounds_cut"] >= 2 * result["rounds"],
        "fold folded_writes == rounds":
            fold["folded"]["folded_writes"] == result["rounds"],
    }
    return [name for name, passed in gates.items() if not passed]
