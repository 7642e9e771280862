"""E18 — WAL-shipping read replicas: read scaling at flat commit latency.

The serving question behind the ROADMAP's "millions of readers" item: does
fanning ``ReadViewRequest``\\ s across N WAL-replaying followers scale read
throughput while the writer's commit path stays untouched?  The experiment
runs the *same* deterministic write-plus-read-burst workload against fleets
of 1 and 4 replicas and measures read throughput (burst size over burst
makespan on the replicas' deterministic service lanes), the writers' mean
committed latency, every replica-served answer's staleness against the
simulated-time oracle ``(primary's last commit time − replica's
replayed-through time)``, replica fingerprints at quiesce (drain force-ships
the tail) and replica cache misses.  A replica-less control gateway checks
that diff-driven pre-warming serves post-commit reads for both agreement
peers without a read-through miss.

Run it with ``python benchmarks/gate.py read_replicas [--quick]``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import List, Optional

from repro.config import (
    ConsensusConfig,
    DurabilityConfig,
    LedgerConfig,
    ReplicationConfig,
    SystemConfig,
)
from repro.gateway import ReadViewRequest, SharingGateway, UpdateEntryRequest
from repro.workloads.topology import TopologySpec, build_topology_system

FULL_ROUNDS = 40
QUICK_ROUNDS = 8
READS_PER_ROUND = 24
PATIENTS = 4
BLOCK_INTERVAL = 1.0
SHIP_INTERVAL = 2.0
MAX_LAG = 30.0
READ_SERVICE_TIME = 0.002
#: Acceptance gates: ≥2× read throughput from 1 to 4 replicas with the
#: writers' mean commit latency within ±10% (replication rides the commit
#: boundary, it never sits on the commit path).
MIN_READ_SCALING = 2.0
MAX_COMMIT_DRIFT = 0.10


def _build(state_dir: str, replicas: int) -> SharingGateway:
    config = SystemConfig(
        ledger=LedgerConfig(
            consensus=ConsensusConfig(kind="poa",
                                      block_interval=BLOCK_INTERVAL)),
        durability=DurabilityConfig(state_dir=state_dir),
        replication=ReplicationConfig(replicas=replicas,
                                      ship_interval=SHIP_INTERVAL,
                                      max_lag=MAX_LAG,
                                      read_service_time=READ_SERVICE_TIME),
    )
    system = build_topology_system(
        TopologySpec(patients=PATIENTS, researchers=0), config)
    return SharingGateway(system)


def _sessions(gateway: SharingGateway):
    """Sorted patient names, their sessions, the doctor's session, and each
    patient's shared table."""
    system = gateway.system
    patients = sorted(n for n in system.peer_names if n.startswith("patient"))
    sessions = {name: gateway.open_session(name) for name in patients}
    doctor = gateway.open_session("doctor")
    mids = {name: system.peer(name).agreement_ids[0] for name in patients}
    return patients, sessions, doctor, mids


def _submit_writes(gateway: SharingGateway, sessions, mids, tag: str) -> None:
    """One ``clinical_data`` write per patient, to its own shared table."""
    for name, metadata_id in mids.items():
        patient_id = int(metadata_id.split(":")[1])
        gateway.submit(sessions[name], UpdateEntryRequest(
            metadata_id=metadata_id, key=(patient_id,),
            updates={"clinical_data": f"{tag}-{name}"}))


def _run_fleet(replicas: int, rounds: int) -> dict:
    """One deterministic write+read workload against a fleet of ``replicas``."""
    with tempfile.TemporaryDirectory(prefix=f"e18-{replicas}r-") as state_dir:
        gateway = _build(state_dir, replicas)
        system = gateway.system
        clock = system.simulator.clock
        patients, sessions, doctor, mids = _sessions(gateway)

        staleness_violations = 0
        oracle_mismatches = 0
        replica_answers = 0
        burst_makespans: list = []
        total_reads = 0
        last_commit_at = 0.0

        for round_number in range(rounds):
            _submit_writes(gateway, sessions, mids, f"r{round_number}")
            gateway.commit_once()
            last_commit_at = clock.now()  # the staleness oracle's reference

            burst_start = clock.now()
            burst_done = burst_start
            for read_number in range(READS_PER_ROUND):
                name = patients[read_number % len(patients)]
                session = doctor if read_number % 2 else sessions[name]
                response = gateway.submit(
                    session, ReadViewRequest(metadata_id=mids[name]))
                assert response.status == "ok", response.error
                total_reads += 1
                if "replica" in response.payload:
                    replica_answers += 1
                    staleness = response.payload["staleness"]
                    if staleness > MAX_LAG:
                        staleness_violations += 1
                    serving = next(r for r in gateway.shipper.replicas
                                   if r.name == response.payload["replica"])
                    expected = max(0.0,
                                   last_commit_at - serving.replayed_through)
                    if abs(staleness - expected) > 1e-9:
                        oracle_mismatches += 1
                    # The service-lane latency is queue wait + service time
                    # measured from the burst's issue instant, so the burst
                    # completes when the last lane frees up.
                    burst_done = max(burst_done,
                                     burst_start + response.payload["latency"])
            if burst_done > burst_start:
                burst_makespans.append(burst_done - burst_start)

        gateway.drain()  # quiesce: force-ship so the fleet converges
        primary_fp = system.state_fingerprints()
        fingerprints_identical = all(
            replica.fingerprints() == primary_fp
            for replica in gateway.shipper.replicas)
        replica_cache_misses = sum(replica.cache.misses
                                   for replica in gateway.shipper.replicas)
        replica_cache_hits = sum(replica.cache.hits
                                 for replica in gateway.shipper.replicas)

        metrics = gateway.metrics()
        tenants = metrics["tenants"]
        commit_latencies = [stats["mean"] for tenant, stats
                            in sorted(tenants.items()) if tenant in patients]
        mean_commit_latency = (sum(commit_latencies) / len(commit_latencies)
                               if commit_latencies else 0.0)
        read_throughput = (total_reads / sum(burst_makespans)
                           if burst_makespans and sum(burst_makespans) > 0
                           else 0.0)
        return {
            "replicas": replicas,
            "rounds": rounds,
            "reads": total_reads,
            "replica_answers": replica_answers,
            "primary_fallbacks": metrics["replication"]["primary_fallbacks"],
            "read_throughput_per_sim_second": read_throughput,
            "mean_commit_latency": mean_commit_latency,
            "staleness_violations": staleness_violations,
            "oracle_mismatches": oracle_mismatches,
            "max_replica_lag_at_quiesce": max(
                (replica.lag(last_commit_at)
                 for replica in gateway.shipper.replicas), default=0.0),
            "fingerprints_identical": fingerprints_identical,
            "replica_cache_misses": replica_cache_misses,
            "replica_cache_hits": replica_cache_hits,
            "shipments": gateway.shipper.shipments,
            "entries_shipped": gateway.shipper.entries_shipped,
        }


def _run_prewarm_control(rounds: int) -> dict:
    """Replica-less control: the primary cache alone must serve post-commit
    reads for both peers of every touched agreement with zero misses."""
    with tempfile.TemporaryDirectory(prefix="e18-prewarm-") as state_dir:
        gateway = _build(state_dir, replicas=0)
        patients, sessions, doctor, mids = _sessions(gateway)
        for round_number in range(max(2, rounds // 4)):
            _submit_writes(gateway, sessions, mids, f"p{round_number}")
            gateway.drain()
            misses_before = gateway.cache.misses
            for name in patients:  # both peers of every touched agreement
                gateway.submit(sessions[name],
                               ReadViewRequest(metadata_id=mids[name]))
                gateway.submit(doctor,
                               ReadViewRequest(metadata_id=mids[name]))
            read_through_misses = gateway.cache.misses - misses_before
        return {
            "prewarms": gateway.cache.prewarms,
            "post_commit_read_through_misses": read_through_misses,
            "hits": gateway.cache.hits,
        }


def run(quick: bool, out: Optional[Path] = None) -> dict:
    """1 vs 4 replicas plus the pre-warm control; the JSON-able result."""
    rounds = QUICK_ROUNDS if quick else FULL_ROUNDS
    single = _run_fleet(1, rounds)
    fleet = _run_fleet(4, rounds)
    prewarm = _run_prewarm_control(rounds)
    scaling = (fleet["read_throughput_per_sim_second"]
               / single["read_throughput_per_sim_second"]
               if single["read_throughput_per_sim_second"] else 0.0)
    drift = (abs(fleet["mean_commit_latency"] - single["mean_commit_latency"])
             / single["mean_commit_latency"]
             if single["mean_commit_latency"] else 0.0)
    return {
        "experiment": "E18_read_replicas",
        "workload": (f"{rounds} rounds × {PATIENTS} writes + "
                     f"{READS_PER_ROUND} reads, ship every {SHIP_INTERVAL}s, "
                     f"service {READ_SERVICE_TIME}s/read"),
        "single": single,
        "fleet": fleet,
        "prewarm_control": prewarm,
        "read_scaling": scaling,
        "commit_latency_drift": drift,
    }


def gate(result: dict) -> List[str]:
    """The E18 acceptance conditions that ``result`` fails."""
    gates = {
        f"read scaling >= {MIN_READ_SCALING}x":
            result["read_scaling"] >= MIN_READ_SCALING,
        f"commit latency drift <= {MAX_COMMIT_DRIFT:.0%}":
            result["commit_latency_drift"] <= MAX_COMMIT_DRIFT,
    }
    for label in ("single", "fleet"):
        arm = result[label]
        gates[f"{label}: staleness within bound"] = arm["staleness_violations"] == 0
        gates[f"{label}: staleness matches oracle"] = arm["oracle_mismatches"] == 0
        gates[f"{label}: fingerprints identical"] = arm["fingerprints_identical"]
        gates[f"{label}: replicas answered"] = arm["replica_answers"] > 0
    # Diff-driven pre-warming leaves no read-through miss, on the replicas ...
    gates["fleet: no replica cache misses"] = result["fleet"]["replica_cache_misses"] == 0
    # ... nor on a replica-less primary's freshly committed tables.
    gates["prewarm: no read-through misses"] = (
        result["prewarm_control"]["post_commit_read_through_misses"] == 0)
    return [name for name, passed in gates.items() if not passed]
