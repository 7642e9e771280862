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
paths.  Run it with ``python benchmarks/gate.py delta_propagation [--quick]``.
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional

from repro.config import SystemConfig
from repro.core.scenario import STUDY_TABLE, build_extended_scenario
from repro.core.system import MedicalDataSharingSystem
from repro.crypto.signatures import _equation_holds
from repro.ledger.transaction import _decode_shared

FULL_SIZES = (1_000, 10_000)
QUICK_SIZES = (200, 1_000)
EDITS = 5
BLOCK_INTERVAL = 2.0
#: The acceptance gate at the largest size of the full grid (10k rows),
#: where the measured margin is comfortable (>10x locally).
TARGET_SPEEDUP = 5.0
#: The quick grid tops out at 1k rows where the honest win (~5-7x) is too
#: close to 5.0 to gate on a noisy shared runner: it only checks that the
#: delta path wins at all (the fingerprint oracle is the same).
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


def _run_edits(system: MedicalDataSharingSystem) -> float:
    """Run ``EDITS`` cascading single-row dosage updates; returns seconds."""
    # The two arms sign the same transactions in one process: start each from
    # empty per-process caches, or the second is timed on the first's work.
    _decode_shared.cache_clear()
    _equation_holds.cache_clear()
    started = time.perf_counter()
    for edit in range(EDITS):
        patient_id = 1_000 + edit
        trace = system.coordinator.update_shared_entry(
            "researcher", STUDY_TABLE, (patient_id,),
            {"dosage": f"delta-bench dose r{edit}"})
        assert trace.succeeded
    return time.perf_counter() - started


def run(quick: bool, out: Optional[Path] = None) -> Dict[str, object]:
    """Run both paths over the size grid; returns the JSON-able result."""
    sizes = QUICK_SIZES if quick else FULL_SIZES
    grid = []
    for rows in sizes:
        full_system = _build(rows, delta=False)
        full_seconds = _run_edits(full_system)

        delta_system = _build(rows, delta=True)
        delta_seconds = _run_edits(delta_system)

        researcher_stats = delta_system.server_app("researcher").manager.statistics
        doctor_stats = delta_system.server_app("doctor").manager.statistics
        grid.append({
            "rows": rows,
            "edits": EDITS,
            "full_seconds": full_seconds,
            "delta_seconds": delta_seconds,
            "full_ms_per_edit": 1_000 * full_seconds / EDITS,
            "delta_ms_per_edit": 1_000 * delta_seconds / EDITS,
            "speedup": full_seconds / delta_seconds,
            "fingerprints_identical": (full_system.state_fingerprints()
                                       == delta_system.state_fingerprints()),
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
        "quick": quick,
        "sizes": list(sizes),
        "grid": grid,
        "largest": grid[-1],
    }


def gate(result: Dict[str, object]) -> List[str]:
    """The E12 acceptance conditions that ``result`` fails."""
    grid = result["grid"]
    target = QUICK_TARGET_SPEEDUP if result["quick"] else TARGET_SPEEDUP
    gates = {
        "fingerprints identical": all(point["fingerprints_identical"]
                                      for point in grid),
        "delta puts > 0 at every size": all(point["delta_puts"] > 0
                                            for point in grid),
        f"speedup >= {target} at the largest size":
            result["largest"]["speedup"] >= target,
    }
    if not result["quick"]:
        # The win grows with table size: the delta path is O(changed rows),
        # the full path O(rows).
        gates["speedup grows with rows"] = grid[-1]["speedup"] > grid[0]["speedup"]
    return [name for name, passed in gates.items() if not passed]
