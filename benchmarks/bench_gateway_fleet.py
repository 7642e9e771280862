"""E19 — multi-process gateway fleet: parallel commits behind the runtime boundary.

The scaling question behind the process-ready node boundary: once worker
slices talk to the coordinator through :mod:`repro.runtime` envelopes
instead of an in-process call graph, does placing them in separate OS
processes actually buy parallel commit throughput — without changing what
any slice computes?  The experiment partitions one tenant population into
worker slices and runs the same specs under both placements.  Reported,
not gated (it is committed writes per *wall* second, so it depends on the
machine's cores and on how cheap a single-process commit is):

* **process scaling** — aggregate committed-writes throughput (total
  committed writes over coordinator wall-clock) from 1 to 4 worker
  processes, as ``speedup``.

Gated — behaviour, identical on every machine:

* **loopback parity** — a one-worker loopback fleet produces state
  fingerprints byte-identical to calling the single-process engine
  directly: the message boundary is a placement change, not a semantic
  one;
* **placement parity** — the 4-worker loopback and 4-worker multiprocess
  fleets (same specs) produce byte-identical per-worker fingerprints and
  identical committed-write counts;
* **clock merge** — the coordinator's merged simulated clock equals the
  max of the workers' reported clocks under both placements;
* **framing accounting** — every multiprocess worker link reports the
  expected envelope counts (run+shutdown out, clock+result in) and
  non-zero wire bytes both ways.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.cli import run_gateway_fleet, run_gateway_loadtest  # noqa: E402
from repro.crypto.hashing import canonical_json  # noqa: E402

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


def run_fleet_scaling(duration: float) -> dict:
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


def _gates_pass(result: dict) -> bool:
    return (result["loopback_matches_direct"]
            and result["placements_match"]
            and result["clock_merge_exact"]
            and result["framing_ok"])


def test_gateway_fleet(emit, quick):
    """Loopback fingerprints byte-identical to the direct engine, both
    placements byte-identical to each other, exact clock merges, and sane
    frame accounting on every worker link; the 1 → 4 process wall-clock
    speedup is emitted, not asserted."""
    duration = QUICK_DURATION if quick else FULL_DURATION
    result = run_fleet_scaling(duration)
    emit("E19_gateway_fleet", json.dumps(result, indent=2, sort_keys=True))
    assert result["loopback_matches_direct"], (
        "loopback worker fingerprints diverged from the direct "
        "single-process run")
    assert result["placements_match"], (
        "loopback and multiprocess placements of the same specs diverged")
    assert result["clock_merge_exact"]
    assert result["framing_ok"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=FULL_DURATION,
                        help="simulated seconds of traffic per worker slice")
    parser.add_argument("--quick", action="store_true",
                        help="use the reduced CI smoke workload")
    parser.add_argument("--json", action="store_true",
                        help="print the full JSON result (default)")
    args = parser.parse_args()
    duration = QUICK_DURATION if args.quick else args.duration
    result = run_fleet_scaling(duration)
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0 if _gates_pass(result) else 1


if __name__ == "__main__":
    raise SystemExit(main())
