"""E6 — §V storage claim: metadata-on-chain (ours) vs raw-data-on-chain (HDG).

The paper criticises Healthcare Data Gateways [22] for storing medical data
itself on the blockchain ("the data become burdens for blockchain nodes'
storage") and stores only metadata on-chain instead.  This experiment
quantifies that: for the same set of records and updates, it compares the
per-node chain/state footprint of the two designs.
"""

from __future__ import annotations

import pytest

from repro.baselines.onchain_storage import OnChainStorageBaseline
from repro.config import SystemConfig
from repro.core.scenario import build_scaled_scenario
from repro.metrics.paper import StorageComparison
from repro.metrics.reporting import format_table
from repro.workloads.generator import MedicalRecordGenerator


def _metadata_on_chain_bytes(records):
    """Per-node on-chain footprint of the paper's design for these records."""
    system = build_scaled_scenario(records=records,
                                   config=SystemConfig.private_chain(block_interval=1.0))
    node = system.server_app("doctor").node
    return node.chain.storage_bytes() + node.chain.state.storage_bytes(), system


def _data_on_chain_bytes(records):
    """Per-node chain footprint of the HDG-style store-everything design."""
    baseline = OnChainStorageBaseline()
    baseline.store_records(records)
    return baseline.per_node_storage_bytes(), baseline


@pytest.mark.parametrize("record_count", [10, 50, 200])
def test_sec5_storage_comparison(benchmark, emit, record_count):
    records = MedicalRecordGenerator(seed=31, first_patient_id=188).records(
        record_count, distinct_medications=12)

    data_bytes, _baseline = benchmark(lambda: _data_on_chain_bytes(records))
    metadata_bytes, _system = _metadata_on_chain_bytes(records)
    comparison = StorageComparison(record_count=record_count,
                                   metadata_on_chain_bytes=metadata_bytes,
                                   data_on_chain_bytes=data_bytes)
    emit(f"E6_sec5_storage_{record_count}", format_table(
        ("design", "per-node on-chain bytes"),
        [("metadata on-chain (this paper)", metadata_bytes),
         ("raw data on-chain (HDG [22])", data_bytes),
         ("ratio (HDG / ours)", round(comparison.ratio, 2))],
        title=f"§V storage pressure with {record_count} records"))
    # The HDG design must grow with the data; with enough records it overtakes
    # the metadata-only design (whose on-chain footprint is per-agreement).
    if record_count >= 50:
        assert comparison.ratio > 1.0


def test_sec5_storage_growth_series(benchmark, emit):
    """Growth curves: ours is flat in the record count, HDG's is linear."""
    rows = []
    previous_ours = previous_hdg = None
    benchmark.pedantic(
        lambda: _data_on_chain_bytes(
            MedicalRecordGenerator(seed=32, first_patient_id=188).records(10)),
        rounds=1, iterations=1)
    for record_count in (10, 50, 200):
        records = MedicalRecordGenerator(seed=32, first_patient_id=188).records(
            record_count, distinct_medications=12)
        metadata_bytes, _ = _metadata_on_chain_bytes(records)
        data_bytes, _ = _data_on_chain_bytes(records)
        ours_growth = (metadata_bytes / previous_ours) if previous_ours else 1.0
        hdg_growth = (data_bytes / previous_hdg) if previous_hdg else 1.0
        rows.append((record_count, metadata_bytes, data_bytes,
                     round(ours_growth, 2), round(hdg_growth, 2)))
        previous_ours, previous_hdg = metadata_bytes, data_bytes
    emit("E6_sec5_storage_series", format_table(
        ("records", "ours (bytes)", "HDG (bytes)", "ours growth x", "HDG growth x"),
        rows, title="§V: per-node on-chain storage growth"))
    # HDG grows much faster than the metadata-only design from 10 to 200 records.
    assert rows[-1][2] / rows[0][2] > 5 * (rows[-1][1] / rows[0][1])


def test_sec5_update_history_storage(benchmark, emit):
    """Updates add only diff hashes/metadata on-chain in our design, but whole
    payloads in the HDG design."""
    records = MedicalRecordGenerator(seed=33, first_patient_id=188).records(
        20, distinct_medications=8)

    # Our design: run 5 protocol updates and measure chain growth.
    system = benchmark.pedantic(
        lambda: build_scaled_scenario(records=records,
                                      config=SystemConfig.private_chain(block_interval=1.0)),
        rounds=1, iterations=1)
    node = system.server_app("doctor").node
    before = node.chain.storage_bytes()
    from repro.workloads.updates import UpdateStreamGenerator

    for event in UpdateStreamGenerator(system, seed=34).stream(5):
        system.coordinator.update_shared_entry(event.peer, event.metadata_id,
                                               event.key, event.updates)
    ours_growth = node.chain.storage_bytes() - before

    # HDG: the same 5 updates are stored as full payload transactions.
    baseline = OnChainStorageBaseline()
    baseline.store_records(records)
    before_hdg = baseline.per_node_storage_bytes()
    for index in range(5):
        baseline.store_update(records[index]["patient_id"],
                              {"mechanism_of_action": f"MeA-updated-{index}",
                               "full_record": records[index]})
    baseline.finalize()
    hdg_growth = baseline.per_node_storage_bytes() - before_hdg

    emit("E6_sec5_update_history", format_table(
        ("design", "chain growth for 5 updates (bytes)"),
        [("metadata on-chain (this paper)", ours_growth),
         ("raw data on-chain (HDG [22])", hdg_growth)],
        title="§V: on-chain growth caused by shared-data updates"))
    assert ours_growth > 0 and hdg_growth > 0
