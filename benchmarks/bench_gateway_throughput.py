"""E11 — gateway serving: batched ledger commits vs sequential updates.

The gateway's write scheduler folds compatible updates from many tenants
into batches that share two consensus rounds (one for all requests, one for
all acknowledgements), instead of paying two rounds per update.  This
experiment drives the same multi-tenant write workload through

* the **sequential baseline** — one
  :meth:`~repro.core.workflow.UpdateCoordinator.update_shared_entry` call per
  update, exactly what the seed reproduction offered; and
* the **gateway** — requests queued per tenant session, planned into batches
  and committed through
  :meth:`~repro.core.workflow.UpdateCoordinator.commit_entry_batch`,

and reports accepted-writes-per-simulated-second for both, the speedup, the
read cache hit rate and each tenant's latency p95.  It also gates the
observability layer: the same batched workload with a pipeline tracer
attached must keep ≥95% of the tracer-off simulated throughput (tracing
never advances the simulated clock, so the ratio should be exactly 1.0 —
wall-clock overhead is reported but informational).  Run it with
``python benchmarks/gate.py gateway_throughput [--quick]``.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.config import SystemConfig
from repro.core.system import MedicalDataSharingSystem
from repro.crypto.signatures import _equation_holds
from repro.gateway import ReadViewRequest, SharingGateway, UpdateEntryRequest
from repro.ledger.transaction import _decode_shared
from repro.obs import Tracer
from repro.workloads.topology import TopologySpec, build_topology_system

DEFAULT_TENANTS = 8
FULL_ROUNDS = 2
QUICK_ROUNDS = 1
BLOCK_INTERVAL = 2.0
SCALING_TENANTS = (2, 4, 8)
#: Acceptance gates: batched commits >= 3x the sequential baseline, reads
#: between commits mostly served by the cache, tracing within 5%.
TARGET_SPEEDUP = 3.0
MIN_CACHE_HIT_RATE = 0.3
MIN_TRACED_RATIO = 0.95


def _build(tenants: int) -> MedicalDataSharingSystem:
    return build_topology_system(TopologySpec(patients=tenants, researchers=0),
                                 SystemConfig.private_chain(BLOCK_INTERVAL))


def _tenant_tables(system: MedicalDataSharingSystem) -> Dict[str, str]:
    """peer name → the metadata id of its patient↔doctor shared table."""
    return {f"patient-{metadata_id.split(':')[1]}": metadata_id
            for metadata_id in system.agreement_ids}


def _write_events(tables: Dict[str, str], rounds: int) -> List[Dict[str, object]]:
    """The identical per-tenant update stream both systems replay."""
    events = []
    for round_index in range(rounds):
        for peer, metadata_id in sorted(tables.items()):
            patient_id = int(metadata_id.split(":")[1])
            events.append({
                "peer": peer,
                "metadata_id": metadata_id,
                "key": (patient_id,),
                "updates": {"clinical_data": f"CliD-{patient_id}-r{round_index}"},
                "round": round_index,
            })
    return events


def _run_batched(tenants: int, rounds: int, reads_per_write: int = 0,
                 trace: bool = False) -> Tuple[SharingGateway, float, float]:
    """The write workload through one gateway, drained once per round, with
    ``reads_per_write`` passes of reads over every table before each round's
    writes (they exercise the view cache); ``trace`` attaches a pipeline
    tracer.  Returns the gateway and the simulated and wall seconds taken."""
    # Arms replay the same seeded transactions in one process: without this a
    # later arm finds every decode and signature check already done by an
    # earlier one, and ``wall_overhead`` measures that instead of the tracer.
    _decode_shared.cache_clear()
    _equation_holds.cache_clear()
    system = _build(tenants)
    tracer = Tracer(system.simulator.clock) if trace else None
    gateway = SharingGateway(system, max_batch_size=tenants, tracer=tracer)
    tables = _tenant_tables(system)
    sessions = {peer: gateway.open_session(peer) for peer in tables}
    events = _write_events(tables, rounds)
    start_sim, start_wall = system.simulator.clock.now(), time.perf_counter()
    responses = []
    for round_index in range(rounds):
        for _ in range(reads_per_write):
            for peer, metadata_id in sorted(tables.items()):
                gateway.submit(sessions[peer], ReadViewRequest(metadata_id))
        for event in events:
            if event["round"] == round_index:
                responses.append(gateway.submit(
                    sessions[event["peer"]],
                    UpdateEntryRequest(metadata_id=event["metadata_id"],
                                       key=event["key"], updates=event["updates"])))
        gateway.drain()
    wall_seconds = time.perf_counter() - start_wall
    sim_seconds = system.simulator.clock.now() - start_sim
    assert all(response.ok for response in responses)
    assert system.all_shared_tables_consistent()
    return gateway, sim_seconds, wall_seconds


def run_gateway_throughput_comparison(tenants: int = DEFAULT_TENANTS,
                                      rounds: int = FULL_ROUNDS) -> Dict[str, object]:
    """Run both systems over the same workload; returns the JSON-able result."""
    # --- sequential baseline: one protocol run (two consensus rounds) per update.
    sequential = _build(tenants)
    events = _write_events(_tenant_tables(sequential), rounds)
    start = sequential.simulator.clock.now()
    for event in events:
        trace = sequential.coordinator.update_shared_entry(
            event["peer"], event["metadata_id"], event["key"], event["updates"])
        assert trace.succeeded
    sequential_seconds = sequential.simulator.clock.now() - start
    sequential_throughput = len(events) / sequential_seconds

    # --- gateway: same writes batched per round, plus read traffic.
    gateway, batched_seconds, _ = _run_batched(tenants, rounds, reads_per_write=2)
    batched_throughput = len(events) / batched_seconds
    metrics = gateway.metrics()
    return {
        "tenants": tenants,
        "rounds": rounds,
        "writes": len(events),
        "block_interval": BLOCK_INTERVAL,
        "sequential": {
            "simulated_seconds": sequential_seconds,
            "throughput": sequential_throughput,
            "consensus_rounds": 2 * len(events),
        },
        "batched": {
            "simulated_seconds": batched_seconds,
            "throughput": batched_throughput,
            "consensus_rounds": metrics["batches"]["consensus_rounds"],
            "batches": metrics["batches"]["committed"],
            "mean_batch_size": metrics["batches"]["mean_size"],
        },
        "speedup": batched_throughput / sequential_throughput,
        "cache_hit_rate": metrics["cache"]["hit_rate"],
        "per_tenant_p95": {tenant: stats["p95"]
                           for tenant, stats in metrics["tenants"].items()},
    }


def run_tracing_overhead_check(tenants: int = DEFAULT_TENANTS,
                               rounds: int = 1) -> Dict[str, object]:
    """Identical write workload, tracer off vs on.

    The tracer must be zero-cost on the simulated timeline (it only reads
    the clock), so ``sim_ratio`` — traced throughput over untraced — is what
    the ≤5% overhead gate checks.  Wall-clock numbers are included for the
    curious but host-dependent, so nothing gates on them.
    """
    _, sim_off, wall_off = _run_batched(tenants, rounds)
    traced, sim_on, wall_on = _run_batched(tenants, rounds, trace=True)
    writes = tenants * rounds
    throughput_off, throughput_on = writes / sim_off, writes / sim_on
    return {
        "tenants": tenants,
        "rounds": rounds,
        "writes": writes,
        "sim_throughput_off": throughput_off,
        "sim_throughput_on": throughput_on,
        "sim_ratio": throughput_on / throughput_off,
        "wall_seconds_off": wall_off,
        "wall_seconds_on": wall_on,
        "wall_overhead": (wall_on - wall_off) / wall_off if wall_off > 0 else 0.0,
        "spans_recorded": len(traced.tracer),
    }


def run(quick: bool, out: Optional[Path] = None) -> Dict[str, object]:
    """The 8-tenant comparison, the 2/4/8-tenant batch-size scaling and the
    tracing-overhead check, in one JSON-able result."""
    result = run_gateway_throughput_comparison(
        rounds=QUICK_ROUNDS if quick else FULL_ROUNDS)
    result["batch_scaling"] = []
    for tenants in SCALING_TENANTS:
        scaled = run_gateway_throughput_comparison(tenants=tenants, rounds=1)
        result["batch_scaling"].append({
            "tenants": tenants, "throughput": scaled["batched"]["throughput"],
            "speedup": scaled["speedup"]})
    result["tracing_overhead"] = run_tracing_overhead_check()
    return result


def gate(result: Dict[str, object]) -> List[str]:
    """The E11/E12 acceptance conditions that ``result`` fails."""
    scaling = [point["throughput"] for point in result["batch_scaling"]]
    overhead = result["tracing_overhead"]
    gates = {
        "writes == tenants x rounds":
            result["writes"] == result["tenants"] * result["rounds"],
        f"speedup >= {TARGET_SPEEDUP}": result["speedup"] >= TARGET_SPEEDUP,
        # The read traffic between commits must actually hit the cache ...
        f"cache_hit_rate > {MIN_CACHE_HIT_RATE}":
            result["cache_hit_rate"] > MIN_CACHE_HIT_RATE,
        # ... and every tenant's latency distribution is reported.
        "p95 > 0 for every tenant":
            len(result["per_tenant_p95"]) == result["tenants"]
            and all(p95 > 0 for p95 in result["per_tenant_p95"].values()),
        # Larger batches amortise consensus rounds: more batchable tenants,
        # more throughput.
        "throughput grows with tenants": scaling[-1] > scaling[0],
        # The traced run traced something and cost (at most) 5% of simulated
        # throughput; the tracer never advances the clock, so it is 1.0.
        "spans recorded": overhead["spans_recorded"] > 0,
        f"tracing sim_ratio >= {MIN_TRACED_RATIO}":
            overhead["sim_ratio"] >= MIN_TRACED_RATIO,
    }
    return [name for name, passed in gates.items() if not passed]
