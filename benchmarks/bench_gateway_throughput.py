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
wall-clock overhead is reported but informational).  Runnable two ways::

    python -m pytest benchmarks/bench_gateway_throughput.py   # asserts ≥3×
    python benchmarks/bench_gateway_throughput.py             # prints JSON
    python benchmarks/bench_gateway_throughput.py --quick     # CI smoke + gates
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Dict, List

from repro.config import SystemConfig
from repro.core.system import MedicalDataSharingSystem
from repro.crypto.signatures import _equation_holds
from repro.gateway import ReadViewRequest, SharingGateway, UpdateEntryRequest
from repro.ledger.transaction import _decode_shared
from repro.obs import Tracer
from repro.workloads.topology import TopologySpec, build_topology_system

DEFAULT_TENANTS = 8
DEFAULT_ROUNDS = 2
DEFAULT_INTERVAL = 2.0


def _build(tenants: int, interval: float) -> MedicalDataSharingSystem:
    return build_topology_system(TopologySpec(patients=tenants, researchers=0),
                                 SystemConfig.private_chain(interval))


def _tenant_tables(system: MedicalDataSharingSystem) -> Dict[str, str]:
    """peer name → the metadata id of its patient↔doctor shared table."""
    tables = {}
    for metadata_id in system.agreement_ids:
        patient_id = metadata_id.split(":")[1]
        tables[f"patient-{patient_id}"] = metadata_id
    return tables


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


def run_gateway_throughput_comparison(tenants: int = DEFAULT_TENANTS,
                                      rounds: int = DEFAULT_ROUNDS,
                                      interval: float = DEFAULT_INTERVAL,
                                      reads_per_write: int = 2) -> Dict[str, object]:
    """Run both systems over the same workload; returns the JSON-able result."""
    # --- sequential baseline: one protocol run (two consensus rounds) per update.
    sequential = _build(tenants, interval)
    events = _write_events(_tenant_tables(sequential), rounds)
    start = sequential.simulator.clock.now()
    for event in events:
        trace = sequential.coordinator.update_shared_entry(
            event["peer"], event["metadata_id"], event["key"], event["updates"])
        assert trace.succeeded
    sequential_seconds = sequential.simulator.clock.now() - start
    sequential_throughput = len(events) / sequential_seconds

    # --- gateway: same writes batched per round, plus read traffic that
    # exercises the view cache between commits.
    batched = _build(tenants, interval)
    gateway = SharingGateway(batched, max_batch_size=tenants)
    tables = _tenant_tables(batched)
    sessions = {peer: gateway.open_session(peer) for peer in tables}
    start = batched.simulator.clock.now()
    responses = []
    for round_index in range(rounds):
        for _ in range(reads_per_write):
            for peer, metadata_id in sorted(tables.items()):
                gateway.submit(sessions[peer], ReadViewRequest(metadata_id))
        for event in events:
            if event["round"] != round_index:
                continue
            responses.append(gateway.submit(
                sessions[event["peer"]],
                UpdateEntryRequest(metadata_id=event["metadata_id"],
                                   key=event["key"], updates=event["updates"])))
        gateway.drain()
    batched_seconds = batched.simulator.clock.now() - start
    assert all(response.ok for response in responses)
    assert batched.all_shared_tables_consistent()
    batched_throughput = len(events) / batched_seconds

    metrics = gateway.metrics()
    return {
        "tenants": tenants,
        "rounds": rounds,
        "writes": len(events),
        "block_interval": interval,
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


def _run_batched_workload(tenants: int, rounds: int, interval: float,
                          trace: bool) -> Dict[str, object]:
    """One batched-gateway run of the shared write workload, timed both on
    the simulated clock and the wall clock; ``trace`` attaches a pipeline
    tracer (the thing whose cost is being measured)."""
    # Both arms replay the same seeded transactions in one process: without
    # this the second arm finds every decode and signature check already done
    # by the first, and ``wall_overhead`` measures that instead of the tracer.
    _decode_shared.cache_clear()
    _equation_holds.cache_clear()
    system = _build(tenants, interval)
    tracer = Tracer(system.simulator.clock) if trace else None
    gateway = SharingGateway(system, max_batch_size=tenants, tracer=tracer)
    tables = _tenant_tables(system)
    sessions = {peer: gateway.open_session(peer) for peer in tables}
    events = _write_events(tables, rounds)
    start_sim = system.simulator.clock.now()
    start_wall = time.perf_counter()
    for round_index in range(rounds):
        for event in events:
            if event["round"] != round_index:
                continue
            response = gateway.submit(
                sessions[event["peer"]],
                UpdateEntryRequest(metadata_id=event["metadata_id"],
                                   key=event["key"], updates=event["updates"]))
            assert response.status is not None
        gateway.drain()
    wall_seconds = time.perf_counter() - start_wall
    sim_seconds = system.simulator.clock.now() - start_sim
    assert system.all_shared_tables_consistent()
    return {
        "writes": len(events),
        "sim_seconds": sim_seconds,
        "wall_seconds": wall_seconds,
        "spans_recorded": len(tracer) if tracer is not None else 0,
    }


def run_tracing_overhead_check(tenants: int = DEFAULT_TENANTS,
                               rounds: int = DEFAULT_ROUNDS,
                               interval: float = DEFAULT_INTERVAL) -> Dict[str, object]:
    """Identical workload, tracer off vs on; gate on simulated throughput.

    The tracer must be zero-cost on the simulated timeline (it only reads
    the clock), so ``sim_ratio`` — traced throughput over untraced — is the
    ≤5% overhead gate (``>= 0.95``).  Wall-clock numbers are included for
    the curious but host-dependent, so nothing asserts on them.
    """
    off = _run_batched_workload(tenants, rounds, interval, trace=False)
    on = _run_batched_workload(tenants, rounds, interval, trace=True)
    throughput_off = off["writes"] / off["sim_seconds"]
    throughput_on = on["writes"] / on["sim_seconds"]
    sim_ratio = throughput_on / throughput_off
    wall_overhead = ((on["wall_seconds"] - off["wall_seconds"])
                     / off["wall_seconds"]) if off["wall_seconds"] > 0 else 0.0
    return {
        "tenants": tenants,
        "rounds": rounds,
        "writes": off["writes"],
        "sim_throughput_off": throughput_off,
        "sim_throughput_on": throughput_on,
        "sim_ratio": sim_ratio,
        "wall_seconds_off": off["wall_seconds"],
        "wall_seconds_on": on["wall_seconds"],
        "wall_overhead": wall_overhead,
        "spans_recorded": on["spans_recorded"],
        "within_bound": sim_ratio >= 0.95,
    }


def test_gateway_batched_throughput_vs_sequential(emit):
    """Batched commits must be ≥3× the sequential baseline at 8 tenants."""
    result = run_gateway_throughput_comparison()
    emit("E11_gateway_throughput", json.dumps(result, indent=2, sort_keys=True))
    assert result["writes"] == DEFAULT_TENANTS * DEFAULT_ROUNDS
    assert result["speedup"] >= 3.0
    # The read traffic between commits must actually hit the cache ...
    assert result["cache_hit_rate"] > 0.3
    # ... and every tenant's latency distribution is reported.
    assert len(result["per_tenant_p95"]) == DEFAULT_TENANTS
    assert all(p95 > 0 for p95 in result["per_tenant_p95"].values())


def test_gateway_batch_size_scaling(emit):
    """Larger batches amortise consensus rounds: fewer rounds, more throughput."""
    rows = []
    throughputs = []
    for tenants in (2, 4, 8):
        result = run_gateway_throughput_comparison(tenants=tenants, rounds=1)
        throughputs.append(result["batched"]["throughput"])
        rows.append((tenants, result["writes"],
                     round(result["batched"]["throughput"], 4),
                     round(result["speedup"], 2)))
    emit("E11_gateway_batch_scaling", json.dumps(
        [{"tenants": row[0], "writes": row[1], "throughput": row[2],
          "speedup": row[3]} for row in rows], indent=2))
    # Throughput grows with the number of batchable tenants.
    assert throughputs[-1] > throughputs[0]


def test_tracing_overhead_within_bound(emit):
    """Tracing the whole pipeline must keep ≥95% of simulated throughput."""
    result = run_tracing_overhead_check(rounds=1)
    emit("E12_tracing_overhead", json.dumps(result, indent=2, sort_keys=True))
    # The traced run actually traced something ...
    assert result["spans_recorded"] > 0
    # ... and cost (at most) 5% of simulated throughput.  The tracer never
    # advances the simulated clock, so the ratio should be exactly 1.0.
    assert result["sim_ratio"] >= 0.95


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tenants", type=int, default=DEFAULT_TENANTS)
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS)
    parser.add_argument("--interval", type=float, default=DEFAULT_INTERVAL)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: one-round comparison plus the "
                             "tracing-overhead gate, combined JSON")
    args = parser.parse_args()
    if args.quick:
        comparison = run_gateway_throughput_comparison(
            tenants=args.tenants, rounds=1, interval=args.interval)
        overhead = run_tracing_overhead_check(
            tenants=args.tenants, rounds=1, interval=args.interval)
        print(json.dumps({"throughput": comparison,
                          "tracing_overhead": overhead},
                         indent=2, sort_keys=True))
        return 0 if (comparison["speedup"] >= 3.0
                     and overhead["within_bound"]) else 1
    result = run_gateway_throughput_comparison(
        tenants=args.tenants, rounds=args.rounds, interval=args.interval)
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0 if result["speedup"] >= 3.0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
