"""E19 — multi-process gateway fleet: parallel commits behind the runtime boundary.

The scaling question behind the process-ready node boundary: once worker
slices talk to the coordinator through :mod:`repro.runtime` envelopes
instead of an in-process call graph, does placing them in separate OS
processes actually buy parallel commit throughput — without changing what
any slice computes?  The experiment partitions one tenant population into
worker slices and runs the same specs under both placements.

The 1 → 4 process ``speedup`` (total committed writes over coordinator
wall-clock) is reported, not gated: it depends on the machine's cores and on
how cheap a single-process commit is.  The gates are behaviour, identical on
every machine: a one-worker loopback fleet matches the direct engine call
byte for byte (the message boundary is a placement change, not a semantic
one), loopback and multiprocess placements of the 4 slices agree, merged
clocks equal the max of the worker reports, and every multiprocess link
counts run+shutdown out and clock+result in.

Run it with ``python benchmarks/gate.py gateway_fleet [--quick]``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional

from repro.cli import run_gateway_fleet, run_gateway_loadtest
from repro.crypto.hashing import canonical_json

TENANTS = 8
FULL_DURATION = 20.0
QUICK_DURATION = 8.0
RATE = 1.0
INTERVAL = 1.0
BATCH_SIZE = 8
SEED = 23
WIRE_CODEC = "binary"


def _fleet(processes: int, duration: float, mode: str,
           include_fingerprints: bool = False) -> dict:
    return run_gateway_fleet(
        processes=processes, tenants=TENANTS, duration=duration, rate=RATE,
        interval=INTERVAL, batch_size=BATCH_SIZE, seed=SEED, mode=mode,
        wire_codec=WIRE_CODEC, include_fingerprints=include_fingerprints)


def _worker_fingerprints(fleet_result: dict) -> dict:
    return {name: worker.get("fingerprints")
            for name, worker in sorted(fleet_result["workers"].items())}


def run(quick: bool, out: Optional[Path] = None) -> dict:
    """The scaling pair and the parity trio; the JSON-able result."""
    duration = QUICK_DURATION if quick else FULL_DURATION
    # Scaling pair: same tenant population, 1 vs 4 forked worker processes.
    single = _fleet(1, duration, "multiprocess")
    fleet = _fleet(4, duration, "multiprocess", include_fingerprints=True)
    speedup = (fleet["aggregate_throughput"] / single["aggregate_throughput"]
               if single["aggregate_throughput"] else 0.0)

    # Parity trio: the direct single-process engine, the same slice behind a
    # loopback fleet, and the 4-slice specs under both placements.
    direct = run_gateway_loadtest(
        tenants=TENANTS, duration=duration, rate=RATE, interval=INTERVAL,
        batch_size=BATCH_SIZE, seed=SEED, include_fingerprints=True)
    direct_fingerprints = json.loads(canonical_json(direct["fingerprints"]))
    loop_single = _fleet(1, duration, "loopback", include_fingerprints=True)
    loop_fleet = _fleet(4, duration, "loopback", include_fingerprints=True)

    loopback_matches_direct = (
        loop_single["workers"]["worker-0"]["fingerprints"]
        == direct_fingerprints)
    placements_match = (
        _worker_fingerprints(loop_fleet) == _worker_fingerprints(fleet)
        and loop_fleet["committed_writes"] == fleet["committed_writes"])

    clock_merge_exact = all(
        abs(run["clock"]["merged_now"]
            - max(run["clock"]["reports"].values())) < 1e-9
        for run in (single, fleet, loop_single, loop_fleet))
    framing_ok = all(
        stats["sent"] == 2 and stats["received"] == 2
        and stats["wire_bytes_out"] > 0 and stats["wire_bytes_in"] > 0
        for run in (single, fleet)
        for stats in run["transport"].values())

    def _summary(run: dict) -> dict:
        return {
            "mode": run["mode"],
            "processes": run["processes"],
            "wall_seconds": run["wall_seconds"],
            "committed_writes": run["committed_writes"],
            "aggregate_throughput": run["aggregate_throughput"],
            "merged_clock": run["clock"]["merged_now"],
            "per_worker_writes": {
                name: worker["metrics"]["batches"]["writes_committed"]
                for name, worker in sorted(run["workers"].items())},
        }

    return {
        "experiment": "E19_gateway_fleet",
        "workload": (f"{TENANTS} tenants × {duration}s sim @ rate {RATE}, "
                     f"interval {INTERVAL}s, wire codec {WIRE_CODEC}"),
        "single_process": _summary(single),
        "fleet_4": _summary(fleet),
        "loopback_1": _summary(loop_single),
        "loopback_4": _summary(loop_fleet),
        "speedup": speedup,
        "loopback_matches_direct": loopback_matches_direct,
        "placements_match": placements_match,
        "clock_merge_exact": clock_merge_exact,
        "framing_ok": framing_ok,
    }


def gate(result: dict) -> List[str]:
    """The E19 acceptance conditions that ``result`` fails (``speedup`` is
    reported, not gated)."""
    gates = {
        "loopback matches direct": result["loopback_matches_direct"],
        "placements match": result["placements_match"],
        "clock merge exact": result["clock_merge_exact"],
        "framing ok": result["framing_ok"],
    }
    return [name for name, passed in gates.items() if not passed]
