"""A larger hospital network: one doctor, many patients, several researchers.

Run with::

    python examples/hospital_network.py [patients] [researchers]

The example builds the hub topology the paper's introduction motivates (a
hospital sharing fine-grained pieces of many records with the patients they
belong to and with researchers), then pushes a random but permission-valid
stream of updates through the system, reporting throughput, block usage,
channel traffic and the per-peer storage footprint.
"""

from __future__ import annotations

import sys

from repro.config import SystemConfig
from repro.metrics.paper import measure_throughput
from repro.metrics.reporting import format_table
from repro.workloads.topology import TopologySpec, build_topology_system
from repro.workloads.updates import UpdateStreamGenerator


def main(patients: int = 6, researchers: int = 2, updates: int = 12) -> None:
    print(f"Building a hospital network with {patients} patients and "
          f"{researchers} researchers...\n")
    system = build_topology_system(
        TopologySpec(patients=patients, researchers=researchers, seed=20),
        config=SystemConfig.private_chain(block_interval=2.0),
    )
    print(format_table(
        ("metric", "value"),
        [("peers", len(system.peer_names)),
         ("sharing agreements", len(system.agreement_ids)),
         ("chain height after setup", system.simulator.nodes[0].chain.height)],
        title="Network after setup"), "\n")

    print(f"Applying {updates} permission-valid shared-data updates...\n")
    events = UpdateStreamGenerator(system, seed=21).stream(updates)
    result = measure_throughput(system, events)
    print(format_table(
        ("metric", "value"),
        [("updates attempted", result.updates_attempted),
         ("updates accepted", result.updates_accepted),
         ("simulated seconds", round(result.simulated_seconds, 1)),
         ("throughput (updates / simulated s)", round(result.throughput, 4)),
         ("blocks created", result.blocks_created)],
        title="Update stream"), "\n")

    stats = system.statistics()
    storage_rows = sorted(stats["peer_storage_bytes"].items())[:8]
    print(format_table(("peer", "local storage bytes"), storage_rows,
                       title="Per-peer local database footprint (first 8 peers)"), "\n")

    exposure = system.simulator.channels.exposure_report()
    print(format_table(
        ("peer", "shared tables received over pairwise channels"),
        [(peer, ", ".join(tables)) for peer, tables in sorted(exposure.items())[:8]],
        title="Channel exposure (data never crosses to third parties)"), "\n")

    print("All shared tables pairwise consistent:", system.all_shared_tables_consistent())
    print("Audit trail integrity:", system.audit_trail().verify_integrity())
    print("Operations recorded on-chain:", len(system.audit_trail().records()))


if __name__ == "__main__":
    arguments = [int(value) for value in sys.argv[1:3]]
    main(*arguments) if arguments else main()
