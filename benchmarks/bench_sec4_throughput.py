"""E5 — §IV.1: update throughput vs block interval and batching.

The paper argues the ~12 s public-Ethereum block interval is acceptable
because peers can batch updates before contacting the contract.  This
experiment measures accepted updates per simulated second as a function of
(a) the block interval (1 s .. 15 s) and (b) the batch size (how many local
edits are folded into one shared-data update request).
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.core.scenario import DOCTOR_RESEARCHER_TABLE, build_paper_scenario
from repro.metrics.paper import measure_throughput
from repro.metrics.reporting import format_table
from repro.workloads.updates import UpdateStreamGenerator

UPDATES_PER_RUN = 6


def _throughput_for_interval(block_interval: float):
    system = build_paper_scenario(SystemConfig.private_chain(block_interval))
    generator = UpdateStreamGenerator(system, seed=41)
    events = generator.stream(UPDATES_PER_RUN)
    return measure_throughput(system, events)


@pytest.mark.parametrize("block_interval", [1.0, 2.0, 6.0, 12.0, 15.0])
def test_sec4_throughput_vs_block_interval(benchmark, emit, block_interval):
    """Throughput falls roughly as 1/interval: every update needs ~2 blocks."""
    result = benchmark(lambda: _throughput_for_interval(block_interval))
    emit(f"E5_sec4_interval_{int(block_interval)}", format_table(
        ("metric", "value"),
        [("block interval (s)", block_interval),
         ("updates accepted", result.updates_accepted),
         ("simulated seconds", round(result.simulated_seconds, 2)),
         ("throughput (updates/s)", round(result.throughput, 4)),
         ("blocks created", result.blocks_created)],
        title=f"§IV.1 throughput at a {block_interval}s block interval"))
    assert result.updates_accepted == UPDATES_PER_RUN


def test_sec4_throughput_series(benchmark, emit):
    """The full series the §IV.1 discussion implies (one row per interval)."""
    rows = []
    baseline = None
    for interval in (1.0, 2.0, 6.0, 12.0, 15.0):
        if interval == 1.0:
            result = benchmark.pedantic(lambda: _throughput_for_interval(interval),
                                        rounds=1, iterations=1)
        else:
            result = _throughput_for_interval(interval)
        if baseline is None:
            baseline = result.throughput
        rows.append((interval, result.updates_accepted,
                     round(result.simulated_seconds, 1),
                     round(result.throughput, 4),
                     round(result.throughput / baseline, 3) if baseline else 0.0))
    emit("E5_sec4_throughput_series", format_table(
        ("block interval (s)", "updates", "simulated s", "updates/s", "relative to 1s"),
        rows, title="§IV.1: update throughput vs block interval"))
    # Throughput must decrease monotonically as the interval grows.
    throughputs = [row[3] for row in rows]
    assert all(earlier >= later for earlier, later in zip(throughputs, throughputs[1:]))
    # And the 12s public-Ethereum point should be several times slower than 1s.
    assert throughputs[0] / throughputs[3] > 4


def test_sec4_batching_recovers_throughput(benchmark, emit):
    """§IV.1's mitigation: batch many local edits into one on-chain request.

    A batch of k field edits on the same shared table is propagated as one
    request/one diff, so the number of *local edits applied per simulated
    second* grows with the batch size even at a 12 s block interval.
    """
    rows = []
    benchmark.pedantic(lambda: build_paper_scenario(SystemConfig.private_chain(12.0)),
                       rounds=1, iterations=1)
    for batch_size in (1, 2, 4, 8):
        system = build_paper_scenario(SystemConfig.private_chain(12.0))
        start = system.simulator.clock.now()
        edits_applied = 0
        for round_index in range(2):
            # The researcher folds `batch_size` local edits into one propagation.
            for edit_index in range(batch_size):
                system.peer("researcher").database.update_by_key(
                    "D2", ("Ibuprofen",),
                    {"mechanism_of_action": f"MeA1-r{round_index}-e{edit_index}"})
                edits_applied += 1
            trace = system.coordinator.propagate_local_change(
                "researcher", DOCTOR_RESEARCHER_TABLE)
            assert trace.succeeded
        elapsed = system.simulator.clock.now() - start
        rows.append((batch_size, edits_applied, round(elapsed, 1),
                     round(edits_applied / elapsed, 4)))
    emit("E5_sec4_batching", format_table(
        ("batch size", "local edits applied", "simulated s", "edits/s"),
        rows, title="§IV.1: batching local edits before requesting the contract (12s blocks)"))
    # Larger batches => more edits per simulated second.
    rates = [row[3] for row in rows]
    assert rates[-1] > rates[0]
