"""Seeded fuzz: random multi-tenant interleavings through the write path.

Each case generates a random—but valid, permission-respecting—multi-tenant
write workload, pushes it through the full gateway stack (``WriteScheduler``
planning, batched ledger commits, and for the sharded cases a two-lane
mempool and lane scheduler behind the miner) under a *randomised commit cadence*
(commits fire at seeded-random points between submissions, so batch
boundaries land everywhere), and checks three invariants the concurrency
design promises:

* **arrival-order serialisation** — for every shared ``(table, key,
  attribute)`` the values land on-chain in exactly the submission order, and
  no tenant's writes on one table ever reorder;
* **fold discipline** — every cross-peer batch group the planner ever built
  has pairwise-disjoint per-contributor column sets and touches distinct
  rows;
* **fingerprint equivalence** — the final state of every table on every peer
  is byte-identical to a sequential oracle that applies the same events one
  protocol run at a time (and the 2-shard pipeline matches the same oracle).

Every case is reproducible from its printed seed:
``pytest tests/integration/test_fuzz_scheduler.py -k <seed>``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import pytest

from repro.config import ConsensusConfig, LedgerConfig, NetworkConfig, SystemConfig
from repro.core.scenario import CARE_TABLE, build_extended_scenario
from repro.gateway import SharingGateway, UpdateEntryRequest, WriteScheduler
from repro.workloads.topology import TopologySpec, build_topology_system
from repro.workloads.updates import UpdateStreamGenerator

pytestmark = [pytest.mark.integration, pytest.mark.slow]

SEEDS = (101, 202, 303, 404, 505, 606, 707, 808)
SHARDED_SEEDS = (11, 22, 33, 44)
FOLD_SEEDS = (5, 6, 7)
EVENTS_PER_CASE = 18
COMMIT_PROBABILITY = 0.35


class RecordingScheduler(WriteScheduler):
    """A write scheduler that keeps every plan it produced for inspection."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.plans = []

    def plan(self, limit=None, **kwargs):
        produced = super().plan(limit, **kwargs)
        if not produced.is_empty:
            self.plans.append(produced)
        return produced


def _topology_config(shards: int = 1) -> SystemConfig:
    return SystemConfig(
        ledger=LedgerConfig(consensus=ConsensusConfig(kind="poa", block_interval=1.0),
                            consensus_shards=shards),
        network=NetworkConfig(base_latency=0.002, latency_jitter=0.001),
    )


def _fingerprints(system) -> Dict[str, str]:
    return {
        f"{peer.name}:{name}": peer.database.table(name).fingerprint()
        for peer in system.peers
        for name in sorted(peer.database.table_names)
    }


def _generate_events(system, seed: int, metadata_ids=None):
    """A random valid write workload plus a value → event-index map.

    ``UpdateStreamGenerator`` values embed a per-generator counter, so every
    generated value is unique and the on-chain landing order of events can
    be recovered from the observed view diffs.
    """
    generator = UpdateStreamGenerator(system, seed=seed)
    events = generator.stream(EVENTS_PER_CASE, metadata_ids=metadata_ids)
    # Keyed by (metadata_id, value): a value may also surface in *cascaded*
    # tables' diffs (e.g. a CARE dosage write cascading into STUDY), whose
    # notification order relative to the originating group is an
    # implementation detail — landing order is only asserted on the table
    # the write targeted.
    value_to_index = {}
    for index, event in enumerate(events):
        for value in event.updates.values():
            value_to_index[(event.metadata_id, value)] = index
    assert len(value_to_index) == len(events), "generated values must be unique"
    return events, value_to_index


def _drive_gateway(system, events, seed: int, fold: bool = True):
    """Replay events through the gateway with a random commit cadence.

    Returns (recording scheduler, landing order): for every event index the
    sequence number of the commit diff it landed in.
    """
    gateway = SharingGateway(system, fold_cross_peer=fold)
    recorder = RecordingScheduler(
        max_batch_size=gateway.scheduler.max_batch_size,
        max_edits_per_group=gateway.scheduler.max_edits_per_group,
        fold_cross_peer=fold)
    gateway.scheduler = recorder

    landings: List[Tuple[str, dict]] = []

    def observe(metadata_id, operation, peers, diff=None):
        if diff is not None:
            landings.append((metadata_id, {
                tuple(change.key): dict(change.after or {})
                for change in diff.changes
            }))

    system.coordinator.subscribe_shared_diff(observe)

    rng = random.Random(seed * 7919)
    sessions = {}
    responses = []
    for event in events:
        if event.peer not in sessions:
            sessions[event.peer] = gateway.open_session(event.peer)
        responses.append(gateway.submit(sessions[event.peer], UpdateEntryRequest(
            metadata_id=event.metadata_id, key=event.key, updates=event.updates)))
        while rng.random() < COMMIT_PROBABILITY and gateway.queue_depth > 0:
            gateway.commit_once()
    gateway.drain()

    failed = [response for response in responses if not response.ok]
    assert not failed, (f"seed {seed}: {len(failed)} fuzzed writes failed: "
                        f"{[response.error for response in failed[:3]]}")
    return recorder, landings


def _landing_sequence(landings, value_to_index) -> Dict[int, int]:
    """event index → sequence number of the diff that carried its value."""
    landed = {}
    for sequence, (metadata_id, rows) in enumerate(landings):
        for _key, row in rows.items():
            for value in row.values():
                index = value_to_index.get((metadata_id, value))
                if index is not None and index not in landed:
                    landed[index] = sequence
    return landed


def _assert_order_invariants(events, landings, value_to_index, seed):
    landed = _landing_sequence(landings, value_to_index)
    assert len(landed) == len(events), (
        f"seed {seed}: {len(events) - len(landed)} committed writes never "
        "surfaced in a view diff")
    # Per (table, key, attribute): landing order == submission order.
    by_cell: Dict[Tuple, List[int]] = {}
    for index, event in enumerate(events):
        for attribute in event.updates:
            by_cell.setdefault((event.metadata_id, event.key, attribute),
                               []).append(index)
    for cell, indexes in by_cell.items():
        sequences = [landed[index] for index in indexes]
        assert sequences == sorted(sequences), (
            f"seed {seed}: writes to {cell} landed out of submission order: "
            f"{list(zip(indexes, sequences))}")
        # Same-key same-attribute writes must also land in *distinct* commits
        # (the planner defers them), or a later value could be lost.
        assert len(set(sequences)) == len(sequences), (
            f"seed {seed}: conflicting writes to {cell} folded into one batch")
    # Per (tenant, table): a tenant's writes never reorder on one table.
    by_tenant_table: Dict[Tuple, List[int]] = {}
    for index, event in enumerate(events):
        by_tenant_table.setdefault((event.peer, event.metadata_id), []).append(index)
    for pair, indexes in by_tenant_table.items():
        sequences = [landed[index] for index in indexes]
        assert sequences == sorted(sequences), (
            f"seed {seed}: tenant {pair[0]} writes on {pair[1]} reordered: "
            f"{list(zip(indexes, sequences))}")


def _assert_fold_invariants(recorder: RecordingScheduler, seed: int):
    for plan in recorder.plans:
        for group in plan.groups:
            keys = [edit.key for edit in group.edits if edit.key is not None]
            assert len(set(keys)) == len(keys), (
                f"seed {seed}: one batch group carries duplicate row keys {keys}")
            if not group.folded:
                continue
            columns_by_peer: Dict[str, set] = {}
            for edit, peer in zip(group.edits, group.edit_peers):
                assert edit.op == "update", (
                    f"seed {seed}: non-update edit folded cross-peer")
                columns_by_peer.setdefault(peer, set()).update(edit.values or {})
            peers = sorted(columns_by_peer)
            for i, peer_a in enumerate(peers):
                for peer_b in peers[i + 1:]:
                    overlap = columns_by_peer[peer_a] & columns_by_peer[peer_b]
                    assert not overlap, (
                        f"seed {seed}: folded group on {group.metadata_id} has "
                        f"overlapping columns {overlap} between {peer_a} and {peer_b}")


def _run_sequential_oracle(system, events):
    for event in events:
        trace = system.coordinator.update_shared_entry(
            event.peer, event.metadata_id, event.key, event.updates)
        assert trace.succeeded, trace.error
    return _fingerprints(system)


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzzed_interleavings_match_sequential_oracle(seed):
    """Random multi-tenant workloads on the hub topology (single shard)."""
    spec = TopologySpec(patients=3, researchers=1, seed=seed)
    gateway_system = build_topology_system(spec, _topology_config(shards=1))
    events, value_to_index = _generate_events(gateway_system, seed)

    recorder, landings = _drive_gateway(gateway_system, events, seed)
    _assert_order_invariants(events, landings, value_to_index, seed)
    _assert_fold_invariants(recorder, seed)
    assert gateway_system.all_shared_tables_consistent()

    oracle_system = build_topology_system(spec, _topology_config(shards=1))
    oracle_prints = _run_sequential_oracle(oracle_system, events)
    gateway_prints = _fingerprints(gateway_system)
    assert gateway_prints == oracle_prints, (
        f"seed {seed}: gateway diverged from the sequential oracle on "
        f"{[k for k in oracle_prints if gateway_prints.get(k) != oracle_prints[k]]}")


@pytest.mark.parametrize("seed", SHARDED_SEEDS)
def test_fuzzed_interleavings_through_sharded_mempool(seed):
    """The same invariants with two consensus lanes (a two-lane mempool and
    lane scheduler) behind the miner; the final state must still match the
    (one-lane) sequential oracle."""
    spec = TopologySpec(patients=3, researchers=1, seed=seed,
                        first_patient_id=1_008)
    gateway_system = build_topology_system(spec, _topology_config(shards=2))
    # The sharded pipeline is actually in play.
    assert gateway_system.simulator.router.num_shards == 2
    events, value_to_index = _generate_events(gateway_system, seed)

    recorder, landings = _drive_gateway(gateway_system, events, seed)
    _assert_order_invariants(events, landings, value_to_index, seed)
    _assert_fold_invariants(recorder, seed)
    assert gateway_system.all_shared_tables_consistent()

    oracle_system = build_topology_system(spec, _topology_config(shards=1))
    oracle_prints = _run_sequential_oracle(oracle_system, events)
    assert _fingerprints(gateway_system) == oracle_prints


@pytest.mark.parametrize("seed", FOLD_SEEDS)
def test_fuzzed_cross_peer_folding_on_shared_table(seed):
    """Doctor and patient fuzzing one shared CARE table: folds must obey the
    disjointness rules and the folded final state must equal both the
    sequential oracle and a fold-disabled gateway run."""
    folded_system = build_extended_scenario(SystemConfig.private_chain(1.0))
    events, value_to_index = _generate_events(folded_system, seed,
                                              metadata_ids=[CARE_TABLE])
    recorder, landings = _drive_gateway(folded_system, events, seed, fold=True)
    _assert_order_invariants(events, landings, value_to_index, seed)
    _assert_fold_invariants(recorder, seed)
    folded_prints = _fingerprints(folded_system)

    serial_system = build_extended_scenario(SystemConfig.private_chain(1.0))
    _drive_gateway(serial_system, events, seed, fold=False)
    assert _fingerprints(serial_system) == folded_prints, (
        f"seed {seed}: cross-peer folding changed the post-state")

    oracle_system = build_extended_scenario(SystemConfig.private_chain(1.0))
    assert _run_sequential_oracle(oracle_system, events) == folded_prints
