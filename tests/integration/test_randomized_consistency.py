"""Randomized end-to-end consistency: the paper's core guarantee under load.

For several seeds, a permission-valid stream of shared-data updates is pushed
through the full system (contracts, mining, notifications, channels, lenses).
After every stream the system must satisfy the invariants the paper's
architecture promises:

* both peers of every agreement hold identical shared tables;
* every stored shared table equals a fresh ``get`` of its owner's base table;
* all node replicas agree on height and state root;
* the on-chain history passes the executable contract-specification checks;
* the audit trail's records verify against the chain.
"""

from __future__ import annotations

import pytest

pytestmark = [pytest.mark.integration, pytest.mark.slow]

from repro.config import SystemConfig
from repro.core.scenario import build_extended_scenario, build_paper_scenario
from repro.metrics.paper import measure_throughput
from repro.workloads.topology import TopologySpec, build_topology_system
from repro.workloads.updates import UpdateStreamGenerator


def _assert_invariants(system):
    assert system.all_shared_tables_consistent()
    assert system.views_consistent_with_sources()
    assert system.simulator.in_consensus()
    spec_result = system.check_contract_specification()
    assert spec_result.passed, spec_result.violations
    trail = system.audit_trail()
    assert trail.verify_integrity()
    for record in trail.records():
        assert trail.verify_record_inclusion(record)


@pytest.mark.parametrize("seed", [1, 7, 23, 99])
def test_paper_scenario_random_streams(seed):
    system = build_paper_scenario(SystemConfig.private_chain(block_interval=1.0))
    events = UpdateStreamGenerator(system, seed=seed).stream(8)
    result = measure_throughput(system, events)
    assert result.updates_accepted == len(events)
    _assert_invariants(system)


@pytest.mark.parametrize("seed", [3, 17])
def test_extended_scenario_random_streams(seed):
    system = build_extended_scenario(SystemConfig.private_chain(block_interval=1.0))
    events = UpdateStreamGenerator(system, seed=seed).stream(6)
    result = measure_throughput(system, events)
    assert result.updates_accepted == len(events)
    _assert_invariants(system)


def test_topology_random_stream():
    system = build_topology_system(TopologySpec(patients=4, researchers=1, seed=5),
                                   config=SystemConfig.private_chain(block_interval=1.0))
    events = UpdateStreamGenerator(system, seed=11).stream(10)
    result = measure_throughput(system, events)
    assert result.updates_accepted == len(events)
    _assert_invariants(system)


def test_conflict_heavy_stream_stays_consistent():
    """Even when every event targets the same shared table (maximum contention),
    the acknowledgement discipline keeps everything consistent."""
    system = build_paper_scenario(SystemConfig.private_chain(block_interval=1.0))
    events = UpdateStreamGenerator(system, seed=31).stream(8, conflict_fraction=1.0)
    result = measure_throughput(system, events)
    assert result.updates_accepted == len(events)
    _assert_invariants(system)
