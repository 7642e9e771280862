"""Differential gate for the shared decode table: every scenario runs once with
the table's bound at 0 (each node decodes, hashes and verifies its own copy of
every transaction, as before the table existed) and once at the default bound,
and nothing a replica commits to or the network counts may differ."""

from __future__ import annotations

import pytest

from repro.chaos import FaultInjector, FaultPlan, FaultSpec, RetryPolicy
from repro.config import SystemConfig
from repro.core.scenario import CARE_TABLE, build_extended_scenario
from repro.workloads.topology import TopologySpec, build_topology_system

import test_fuzz_scheduler as fuzz
import test_golden_state_roots as golden

pytestmark = [pytest.mark.integration, pytest.mark.slow]


def _fuzz_hub(seed, shards=1, **spec):
    system = build_topology_system(TopologySpec(patients=3, researchers=1, seed=seed, **spec),
                                   fuzz._topology_config(shards=shards))
    events, _ = fuzz._generate_events(system, seed)
    fuzz._drive_gateway(system, events, seed)
    return system


def _fuzz_fold(seed):
    system = build_extended_scenario(SystemConfig.private_chain(1.0))
    events, _ = fuzz._generate_events(system, seed, metadata_ids=[CARE_TABLE])
    fuzz._drive_gateway(system, events, seed, fold=True)
    return system


def _drop_and_retransmit(system):
    """Retransmitted clones (``dict(message.payload)``) go through the table too."""
    plan = FaultPlan(seed=13, specs=(
        FaultSpec(kind="transport.drop", probability=0.15, max_fires=40),))
    system.attach_chaos(FaultInjector(plan, system.simulator.clock),
                        retry_policy=RetryPolicy())


def _binary_wire(system):
    """Every delivery is a freshly decoded dict, lists where the origin had tuples."""
    system.simulator.transport.configure_wire_codec("binary")


SCENARIOS = {
    **{f"fuzz-{seed}": (lambda seed=seed: _fuzz_hub(seed)) for seed in fuzz.SEEDS},
    **{f"fuzz-sharded-{seed}": (lambda seed=seed: _fuzz_hub(
        seed, shards=2, first_patient_id=1_008)) for seed in fuzz.SHARDED_SEEDS},
    **{f"fuzz-fold-{seed}": (lambda seed=seed: _fuzz_fold(seed)) for seed in fuzz.FOLD_SEEDS},
    "golden": golden._run,
    "golden-drop-retry": lambda: golden._run(_drop_and_retransmit),
    "golden-binary-wire": lambda: golden._run(_binary_wire),
}


def _observe(system):
    nodes = system.simulator.nodes
    transport = system.simulator.transport
    return {
        "state_roots": [node.state_root() for node in nodes],
        "heads": [(len(node.chain), node.chain.head.block_hash) for node in nodes],
        "receipts": [[receipt.to_dict() for receipt in node.chain.receipts()] for node in nodes],
        "fingerprints": system.state_fingerprints(),
        "contract_statistics": [node.runtime.statistics for node in nodes],
        "transport_statistics": transport.statistics,
        "bytes_transferred": transport.bytes_transferred(),
        "clock": system.simulator.clock.now(),
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_sharing_decoded_transactions_changes_nothing_observable(name, decode_table):
    every_decode_fresh = decode_table(0)
    fresh = _observe(SCENARIOS[name]())
    assert every_decode_fresh.cache_info().hits == 0
    assert every_decode_fresh.cache_info().misses > 0
    shared_table = decode_table()
    shared = _observe(SCENARIOS[name]())
    assert shared_table.cache_info().hits > shared_table.cache_info().misses > 0
    for aspect, value in fresh.items():
        assert shared[aspect] == value, f"{name}: {aspect} differs once transactions are shared"
    assert len(set(shared["state_roots"])) == 1
    if name == "golden":
        assert shared["state_roots"][0] == golden.GOLDEN_STATE_ROOT
    if name == "golden-drop-retry":
        assert shared["transport_statistics"]["retransmits"] > 0
        assert shared["transport_statistics"]["lost"] == 0
