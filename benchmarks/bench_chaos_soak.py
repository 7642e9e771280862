"""E16 — chaos soak: fault-injection convergence and latency-aware shedding.

Two gates, both over the seeded deterministic fault machinery in
:mod:`repro.chaos`:

**Convergence.**  :func:`repro.cli.run_chaos_soak` drives the identical
multi-tenant update workload twice — once fault-free (the oracle), once under
the default soak plan (message drops, WAL append/fsync errors, slow and
failing consensus rounds, one patient-node crash/restart window) with
retries, circuit breakers and parked-message replay switched on.  The
faulted run must end with **byte-identical relational state fingerprints**
(:meth:`MedicalDataSharingSystem.state_fingerprints` — block timestamps
deliberately excluded, since retry backoffs legitimately stretch the faulted
clock), converged chain lengths, every admitted request terminal, and every
shared table consistent across its subscribers.

**Overload.**  A driver admits writes faster than batches clear them (one
commit per ``COMMIT_EVERY`` arrivals against batches of ``BATCH_SIZE``), so
backlog genuinely accumulates.  With queue-depth-only shedding the backlog
runs to capacity and committed-write p99 grows with the run; with a
commit-latency target the :class:`~repro.gateway.LatencyShedder` (windowed
p99 + predicted queueing delay) sheds at admission instead.  The gate: the
latency-driven run keeps committed-write p99 within ``P99_BOUND_FACTOR`` ×
target while the depth-only run blows through it.

Run it with ``python benchmarks/gate.py chaos_soak [--quick] [--out DIR]``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.cli import run_chaos_soak
from repro.config import SystemConfig
from repro.gateway import SharingGateway, UpdateEntryRequest
from repro.workloads.topology import TopologySpec, build_topology_system
from repro.workloads.updates import UpdateStreamGenerator

# Convergence gate sizes (soak rounds; one write per tenant per round).
FULL_ROUNDS = 12
QUICK_ROUNDS = 6
SOAK_TENANTS = 4
SOAK_SEED = 23

# Overload gate: arrivals paced ARRIVAL_GAP sim-seconds apart, one commit per
# COMMIT_EVERY arrivals against batches of BATCH_SIZE — each cycle adds
# (COMMIT_EVERY - BATCH_SIZE) writes of backlog, a sustained overload.
FULL_ARRIVALS = 480
QUICK_ARRIVALS = 240
OVERLOAD_TENANTS = 6
ARRIVAL_GAP = 0.2
COMMIT_EVERY = 16
BATCH_SIZE = 8
QUEUE_CAPACITY = 256
#: Commit-latency p99 target (simulated seconds) for the latency-driven run.
LATENCY_TARGET = 8.0
#: Acceptance gate: the latency-driven run's committed-write p99 stays within
#: this multiple of the target; the depth-only run must exceed it.
P99_BOUND_FACTOR = 3.0


def _overload_run(latency_target: Optional[float], arrivals: int) -> Dict[str, Any]:
    """One overload run; ``latency_target=None`` is the depth-only baseline.

    Arrival pacing uses relative ``clock.advance`` (not ``advance_to`` over a
    precomputed trace): batch mining advances the shared simulated clock, so
    absolute arrival times would collapse into the past and queueing delay
    would vanish from the measurement.
    """
    system = build_topology_system(
        TopologySpec(patients=OVERLOAD_TENANTS, researchers=0, seed=SOAK_SEED),
        SystemConfig.private_chain(1.0))
    gateway = SharingGateway(system, max_batch_size=BATCH_SIZE,
                             max_queue_depth=QUEUE_CAPACITY,
                             latency_target=latency_target)
    updates = UpdateStreamGenerator(system, seed=SOAK_SEED)
    names = sorted(peer.name for peer in system.peers if peer.role == "Patient")
    sessions = {name: gateway.open_session(name) for name in names}
    clock = system.simulator.clock
    for index in range(arrivals):
        clock.advance(ARRIVAL_GAP)
        name = names[index % len(names)]
        metadata_id = system.peer(name).agreement_ids[0]
        event = updates.event_for(metadata_id, peer=name)
        gateway.submit(sessions[name], UpdateEntryRequest(
            metadata_id=metadata_id, key=event.key, updates=event.updates))
        if (index + 1) % COMMIT_EVERY == 0:
            gateway.commit_once()
    gateway.drain()
    gateway.close()
    metrics = gateway.metrics()
    statuses = metrics["requests"]["by_status"]
    return {
        "latency_target": latency_target,
        "arrivals": arrivals,
        # Worst per-tenant p99: the workload is write-only, so every tenant
        # latency sample is a committed write.
        "committed_p99": max((stats["p99"] for stats in metrics["tenants"].values()
                              if stats["count"]), default=0.0),
        "writes_committed": metrics["batches"]["writes_committed"],
        "shed_by_reason": metrics["resilience"]["shed_by_reason"],
        "statuses": statuses,
        "all_terminal": statuses.get("queued", 0) == 0,
    }


def run(quick: bool, out: Optional[Path] = None) -> Dict[str, Any]:
    """Both experiments; the faulted run's fault events go to
    ``out/chaos_soak-events.jsonl`` when ``out`` is given."""
    rounds = QUICK_ROUNDS if quick else FULL_ROUNDS
    arrivals = QUICK_ARRIVALS if quick else FULL_ARRIVALS
    events_out = out / "chaos_soak-events.jsonl" if out is not None else None
    oracle = run_chaos_soak(tenants=SOAK_TENANTS, rounds=rounds,
                            seed=SOAK_SEED, inject=False)
    faulted = run_chaos_soak(tenants=SOAK_TENANTS, rounds=rounds,
                             seed=SOAK_SEED, inject=True,
                             events_out=events_out)
    fingerprints_identical = oracle["fingerprints"] == faulted["fingerprints"]
    chains_converged = (
        len(set(faulted["chain_lengths"].values())) == 1
        and faulted["chain_lengths"] == oracle["chain_lengths"])
    convergence = {
        "rounds": rounds,
        "fingerprints_identical": fingerprints_identical,
        "chains_converged": chains_converged,
        "all_terminal": oracle["all_terminal"] and faulted["all_terminal"],
        "shared_tables_consistent": faulted["shared_tables_consistent"],
        "fault_events": faulted["fault_events"],
        "events_by_kind": faulted["events_by_kind"],
        "messages_retransmitted": faulted["transport"]["retransmits"],
        "messages_lost": faulted["transport"]["lost"],
        "oracle_statuses": oracle["statuses"],
        "faulted_statuses": faulted["statuses"],
    }

    depth_only = _overload_run(None, arrivals)
    latency_aware = _overload_run(LATENCY_TARGET, arrivals)
    bound = P99_BOUND_FACTOR * LATENCY_TARGET
    overload = {
        "arrivals": arrivals,
        "latency_target": LATENCY_TARGET,
        "p99_bound": bound,
        "depth_only": depth_only,
        "latency_aware": latency_aware,
    }
    result: Dict[str, Any] = {
        "experiment": "E16_chaos_soak",
        "convergence": convergence,
        "overload": overload,
    }
    if events_out is not None:
        result["events_path"] = faulted["events_path"]
        result["events_written"] = faulted["events_written"]
    return result


def gate(result: Dict[str, Any]) -> List[str]:
    """The E16 acceptance conditions that ``result`` fails."""
    convergence, overload = result["convergence"], result["overload"]
    depth_only, latency_aware = overload["depth_only"], overload["latency_aware"]
    bound = overload["p99_bound"]
    gates = {
        # The faulted run's relational state equals the fault-free oracle's.
        "fingerprints identical": convergence["fingerprints_identical"],
        "chains converged": convergence["chains_converged"],
        "every soak request terminal": convergence["all_terminal"],
        "shared tables consistent": convergence["shared_tables_consistent"],
        "faults fired": convergence["fault_events"] > 0,
        # A dropped message that is never retransmitted is silent loss.
        "messages_lost == 0": convergence["messages_lost"] == 0,
        f"latency-aware p99 <= {bound:g}s": latency_aware["committed_p99"] <= bound,
        # Otherwise the workload is not an overload: raise the pressure.
        f"depth-only p99 > {bound:g}s": depth_only["committed_p99"] > bound,
        "latency-aware run committed writes": latency_aware["writes_committed"] > 0,
        "every overload request terminal":
            depth_only["all_terminal"] and latency_aware["all_terminal"],
    }
    return [name for name, passed in gates.items() if not passed]
