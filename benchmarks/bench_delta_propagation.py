"""E12 — delta propagation: single-row edits against large shared tables.

The Fig. 5 propagation leg of the seed re-ran every BX ``get``/``put`` over
whole tables, so a one-row dosage update against a 10k-row shared table cost
O(rows) at every leg.  The delta engine (``repro.bx.delta``) pushes the
row-level ``TableDiff`` through every lens, index and cache instead, making
the leg O(changed rows).

This experiment drives the *same* cascading single-row updates (researcher →
STUDY → doctor's D3 → CARE → patient, the paper's Fig. 5 narrative) through

* the **full-recompute path** — ``SystemConfig.delta_propagation=False``,
  exactly the seed behaviour; and
* the **delta path** — the default configuration,

over a grid of base-table sizes, and reports wall-clock time per edit, the
speedup, and the correctness oracle: after each run, every table of every
peer must have a byte-identical ``Table.fingerprint()`` across the two
paths.  Runnable two ways::

    python -m pytest benchmarks/bench_delta_propagation.py            # asserts ≥5x at 10k rows
    python -m pytest benchmarks/bench_delta_propagation.py --quick    # reduced grid (CI smoke)
    python benchmarks/bench_delta_propagation.py --json               # prints JSON
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import replace
from typing import Dict, List

from repro.config import SystemConfig
from repro.core.scenario import STUDY_TABLE, build_extended_scenario
from repro.core.system import MedicalDataSharingSystem
from repro.crypto.signatures import _equation_holds
from repro.ledger.transaction import _decode_shared

FULL_SIZES = (1_000, 10_000)
QUICK_SIZES = (200, 1_000)
DEFAULT_EDITS = 5
BLOCK_INTERVAL = 2.0
#: The acceptance gate, asserted at the largest size of the *full* grid
#: (10k rows), where the measured margin is comfortable (>10x locally).
TARGET_SPEEDUP = 5.0
#: The --quick (CI smoke) grid tops out at 1k rows where the honest win is
#: ~5-7x — too close to 5.0 to gate on a noisy shared runner.  Quick mode
#: keeps the full correctness oracle (fingerprint equality) and only smoke-
#: checks that the delta path wins at all.
QUICK_TARGET_SPEEDUP = 1.5

MEDICATIONS = ("Ibuprofen", "Wellbutrin", "Aspirin", "Metformin")


def _records(rows: int) -> List[Dict[str, object]]:
    """``rows`` synthetic full records; the mechanism/mode of action stay
    functionally determined by the medication name (the D2 invariant)."""
    records = []
    for index in range(rows):
        medication = MEDICATIONS[index % len(MEDICATIONS)]
        records.append({
            "patient_id": 1_000 + index,
            "medication_name": medication,
            "clinical_data": f"CliD-{index}",
            "address": f"Addr-{index}",
            "dosage": f"{(index % 4) + 1} tablets daily",
            "mechanism_of_action": f"MeA-{medication}",
            "mode_of_action": f"MoA-{medication}",
        })
    return records


def _build(rows: int, delta: bool) -> MedicalDataSharingSystem:
    config = SystemConfig.private_chain(BLOCK_INTERVAL)
    if not delta:
        config = replace(config, delta_propagation=False)
    return build_extended_scenario(config, records=_records(rows))


def _run_edits(system: MedicalDataSharingSystem, edits: int) -> float:
    """Run ``edits`` cascading single-row dosage updates; returns seconds."""
    # The two arms sign the same transactions in one process: start each from
    # empty per-process caches, or the second is timed on the first's work.
    _decode_shared.cache_clear()
    _equation_holds.cache_clear()
    started = time.perf_counter()
    for edit in range(edits):
        patient_id = 1_000 + edit
        trace = system.coordinator.update_shared_entry(
            "researcher", STUDY_TABLE, (patient_id,),
            {"dosage": f"delta-bench dose r{edit}"})
        assert trace.succeeded
    return time.perf_counter() - started


def _fingerprints(system: MedicalDataSharingSystem) -> Dict[str, str]:
    return {
        f"{peer.name}:{table_name}": peer.database.table(table_name).fingerprint()
        for peer in system.peers
        for table_name in sorted(peer.database.table_names)
    }


def run_delta_propagation_comparison(sizes=FULL_SIZES,
                                     edits: int = DEFAULT_EDITS) -> Dict[str, object]:
    """Run both paths over the size grid; returns the JSON-able result."""
    grid = []
    for rows in sizes:
        full_system = _build(rows, delta=False)
        full_seconds = _run_edits(full_system, edits)

        delta_system = _build(rows, delta=True)
        delta_seconds = _run_edits(delta_system, edits)

        full_prints = _fingerprints(full_system)
        delta_prints = _fingerprints(delta_system)
        assert full_prints == delta_prints, (
            f"delta path diverged from full recompute at {rows} rows: "
            f"{[k for k in full_prints if full_prints[k] != delta_prints.get(k)]}"
        )

        researcher_stats = delta_system.server_app("researcher").manager.statistics
        doctor_stats = delta_system.server_app("doctor").manager.statistics
        grid.append({
            "rows": rows,
            "edits": edits,
            "full_seconds": full_seconds,
            "delta_seconds": delta_seconds,
            "full_ms_per_edit": 1_000 * full_seconds / edits,
            "delta_ms_per_edit": 1_000 * delta_seconds / edits,
            "speedup": full_seconds / delta_seconds,
            "fingerprints_identical": True,
            "delta_puts": researcher_stats["delta_put_invocations"]
                          + doctor_stats["delta_put_invocations"],
            "delta_fallbacks": researcher_stats["delta_fallbacks"]
                               + doctor_stats["delta_fallbacks"],
            "delta_verifications": researcher_stats["delta_verifications"]
                                   + doctor_stats["delta_verifications"],
        })
    return {
        "experiment": "E12_delta_propagation",
        "workload": "cascading single-row dosage updates (Fig. 5 narrative)",
        "sizes": list(sizes),
        "grid": grid,
        "largest": grid[-1],
    }


def test_delta_propagation_speedup_and_fingerprints(emit, quick):
    """The delta path must be ≥5× the full-recompute path for single-row
    edits at the largest grid size, with byte-identical table fingerprints
    across the whole grid (asserted inside the run)."""
    sizes = QUICK_SIZES if quick else FULL_SIZES
    result = run_delta_propagation_comparison(sizes=sizes)
    emit("E12_delta_propagation", json.dumps(result, indent=2, sort_keys=True))
    largest = result["largest"]
    assert all(point["fingerprints_identical"] for point in result["grid"])
    assert all(point["delta_puts"] > 0 for point in result["grid"])
    assert largest["speedup"] >= (QUICK_TARGET_SPEEDUP if quick else TARGET_SPEEDUP)
    if not quick:
        # The win grows with table size: the delta path is O(changed rows),
        # the full path O(rows).
        speedups = [point["speedup"] for point in result["grid"]]
        assert speedups[-1] > speedups[0]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=list(FULL_SIZES))
    parser.add_argument("--edits", type=int, default=DEFAULT_EDITS)
    parser.add_argument("--quick", action="store_true",
                        help="use the reduced CI smoke grid")
    parser.add_argument("--json", action="store_true",
                        help="print the full JSON result (default)")
    args = parser.parse_args()
    sizes = list(QUICK_SIZES) if args.quick else args.sizes
    result = run_delta_propagation_comparison(sizes=sizes, edits=args.edits)
    print(json.dumps(result, indent=2, sort_keys=True))
    target = QUICK_TARGET_SPEEDUP if args.quick else TARGET_SPEEDUP
    return 0 if result["largest"]["speedup"] >= target else 1


if __name__ == "__main__":
    raise SystemExit(main())
