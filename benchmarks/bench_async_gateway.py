"""E14 — async gateway transport: open-loop interleaving vs eager sync drain.

The synchronous gateway front end couples admission to commit progress: a
driver that calls ``commit_once`` holds the serving path, so open-loop
traffic drains between arrivals and every queued write is committed nearly
as soon as it lands — one two-round consensus pair per arrival burst, with
the consensus pipeline idle while the driver admits the next arrival.  The
asyncio transport (:mod:`repro.gateway.aio`) decouples the two: a commit
admits the arrivals due at each of its consensus-round boundaries and a
commit pump seals batches on queue-depth/deadline triggers, so each
consensus round pair carries a whole batch of interleaved writes.

This experiment replays the *identical* open-loop multi-tenant arrival trace
(8 patient tenants, Poisson arrivals, mixed reads and writes) through

* the **sync eager-drain baseline** — commit as soon as any write is queued,
  interleaved with the arrival replay; and
* the **async transport** — the same gateway facade behind
  :class:`~repro.gateway.aio.AsyncSharingGateway` with a real event loop
  and commit pump, replaying the trace with
  :meth:`~repro.gateway.aio.AsyncSharingGateway.replay`,

and reports committed writes per simulated second for both, plus each
arm's state fingerprints and how much the async run interleaved.

Everything runs on one thread in simulated time, so the whole result is
byte-identical run to run; only the runner's ``seconds`` differ.

Run it with ``python benchmarks/gate.py async_gateway [--quick]``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.config import SystemConfig
from repro.gateway import AsyncSharingGateway, SharingGateway
from repro.workloads.topology import TopologySpec, build_topology_system
from repro.workloads.traffic import TrafficGenerator, default_tenant_profiles

TENANTS = 8
FULL_DURATION = 12.0
QUICK_DURATION = 6.0
BLOCK_INTERVAL = 2.0
REQUEST_RATE = 1.0
READ_FRACTION = 0.25
BATCH_SIZE = 16
SEED = 23
#: Async pump deadline: seal once the oldest queued write waited one block
#: interval — the natural batching horizon of the chain.
MAX_DELAY = BLOCK_INTERVAL
#: The acceptance gate: ≥2× committed-write throughput for the async
#: transport over the sync eager-drain baseline at 8 tenants.
TARGET_SPEEDUP = 2.0


def _setup(duration: float):
    """One arm's system, gateway, arrival trace and sessions (same seed)."""
    system = build_topology_system(
        TopologySpec(patients=TENANTS, researchers=0, seed=SEED),
        SystemConfig.private_chain(BLOCK_INTERVAL))
    gateway = SharingGateway(system, max_batch_size=BATCH_SIZE)
    profiles = default_tenant_profiles(system, request_rate=REQUEST_RATE,
                                       read_fraction=READ_FRACTION)
    arrivals = TrafficGenerator(system, seed=SEED).open_loop(
        profiles, duration=duration, start_time=system.simulator.clock.now())
    sessions = {tenant: gateway.open_session(tenant)
                for tenant in {timed.tenant for timed in arrivals}}
    return system, gateway, arrivals, sessions


def _summarise(system, gateway: SharingGateway, responses: Sequence[object],
               elapsed: float) -> Dict[str, object]:
    assert all(response.terminal for response in responses), (
        "a response was left in a non-terminal state")
    assert system.all_shared_tables_consistent()
    metrics = gateway.metrics()
    writes = metrics["batches"]["writes_committed"]
    assert metrics["batches"]["writes_rejected"] == 0
    return {
        "arrivals": len(responses),
        "writes_committed": writes,
        "simulated_seconds": elapsed,
        "throughput": writes / elapsed if elapsed else 0.0,
        "consensus_rounds": metrics["batches"]["consensus_rounds"],
        "batches": metrics["batches"]["committed"],
        "mean_batch_size": metrics["batches"]["mean_size"],
        "admitted_during_commit": metrics["transport"]["admitted_during_commit"],
        "cache_hit_rate": metrics["cache"]["hit_rate"],
        "state_digest": hashlib.sha256(json.dumps(
            system.state_fingerprints(), sort_keys=True).encode()).hexdigest(),
    }


def _run_sync_baseline(duration: float) -> Dict[str, object]:
    """Eager drain: submit an arrival, then commit whatever is queued."""
    system, gateway, arrivals, sessions = _setup(duration)
    clock = system.simulator.clock
    start = clock.now()
    responses = []
    for timed in arrivals:
        clock.advance_to(timed.arrival_time)
        responses.append(gateway.submit(sessions[timed.tenant], timed.request))
        while gateway.queue_depth > 0:
            gateway.commit_once()
    gateway.drain()
    return _summarise(system, gateway, responses, clock.now() - start)


def _run_async(duration: float) -> Dict[str, object]:
    system, gateway, arrivals, sessions = _setup(duration)
    clock = system.simulator.clock

    async def drive():
        start = clock.now()
        async with AsyncSharingGateway(gateway, seal_depth=TENANTS,
                                       max_delay=MAX_DELAY) as front:
            futures = await front.replay(arrivals, sessions)
            await front.drain()
            responses = await asyncio.gather(*futures)
            return responses, clock.now() - start, front.statistics()

    responses, elapsed, transport_stats = asyncio.run(drive())
    result = _summarise(system, gateway, responses, elapsed)
    result["transport"] = transport_stats
    return result


def run(quick: bool, out: Optional[Path] = None) -> Dict[str, object]:
    """Run both transports over one trace; returns the JSON-able result."""
    duration = QUICK_DURATION if quick else FULL_DURATION
    sync_result, async_result = _run_sync_baseline(duration), _run_async(duration)
    sync_digest = sync_result.pop("state_digest")
    async_digest = async_result.pop("state_digest")
    return {
        "experiment": "E14_async_gateway",
        "workload": (f"{TENANTS} tenants, Poisson open loop at "
                     f"{REQUEST_RATE}/s/tenant for {duration}s, "
                     f"{int(READ_FRACTION * 100)}% reads"),
        "tenants": TENANTS,
        "duration": duration,
        "block_interval": BLOCK_INTERVAL,
        "deterministic": {
            "sync_eager_drain": sync_result,
            "async": async_result,
            "state_digest": sync_digest,
            "fingerprints_identical": sync_digest == async_digest,
            "speedup": async_result["throughput"] / sync_result["throughput"],
            "rounds_cut": (sync_result["consensus_rounds"]
                           - async_result["consensus_rounds"]),
        },
    }


def gate(result: Dict[str, object]) -> List[str]:
    """The E14 acceptance conditions that ``result`` fails."""
    measured = result["deterministic"]
    sealed = measured["async"]["transport"]["sealed_by"]
    gates = {
        # Byte-identical tables on every peer across both arms.
        "fingerprints identical": measured["fingerprints_identical"],
        f"speedup >= {TARGET_SPEEDUP}": measured["speedup"] >= TARGET_SPEEDUP,
        # Open-loop interleaving actually happened: arrivals were admitted
        # while a commit round was mining, and batches carried > 1 write.
        "admitted during commit": measured["async"]["admitted_during_commit"] > 0,
        "mean batch size > 1": measured["async"]["mean_batch_size"] > 1.0,
        # The pump sealed on its triggers, not only on the final flush.
        "sealed on a trigger": sealed["depth"] + sealed["deadline"] + sealed["idle"] > 0,
        # The batch amortisation is where the speedup comes from.
        "rounds cut": measured["rounds_cut"] > 0,
    }
    return [name for name, passed in gates.items() if not passed]
