"""The paper's own measures (§4 throughput, §5 exposure and storage).

All metrics are computed over *simulated* time (the ledger's
:class:`~repro.ledger.clock.SimClock`), so results are deterministic and
independent of the host machine.  The serving layer's numbers (latency
histograms, gauges, counters) live in :mod:`repro.obs.registry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

from repro.core.system import MedicalDataSharingSystem
from repro.errors import UpdateRejected
from repro.workloads.updates import UpdateEvent


@dataclass(frozen=True)
class ThroughputResult:
    """Outcome of pushing a stream of updates through the system."""

    updates_attempted: int
    updates_accepted: int
    updates_rejected: int
    simulated_seconds: float
    blocks_created: int

    @property
    def throughput(self) -> float:
        """Accepted updates per simulated second."""
        if self.simulated_seconds <= 0:
            return 0.0
        return self.updates_accepted / self.simulated_seconds

    def to_dict(self) -> dict:
        return {
            "updates_attempted": self.updates_attempted,
            "updates_accepted": self.updates_accepted,
            "updates_rejected": self.updates_rejected,
            "simulated_seconds": self.simulated_seconds,
            "blocks_created": self.blocks_created,
            "throughput": self.throughput,
        }


def measure_throughput(system: MedicalDataSharingSystem,
                       events: Sequence[UpdateEvent]) -> ThroughputResult:
    """Apply a stream of update events and measure accepted updates per second."""
    start = system.simulator.clock.now()
    start_height = system.simulator.nodes[0].chain.height if system.simulator.nodes else 0
    accepted = 0
    rejected = 0
    for event in events:
        try:
            trace = system.coordinator.update_shared_entry(
                event.peer, event.metadata_id, event.key, event.updates
            )
            if trace.succeeded:
                accepted += 1
            else:
                rejected += 1
        except UpdateRejected:
            rejected += 1
    elapsed = system.simulator.clock.now() - start
    end_height = system.simulator.nodes[0].chain.height if system.simulator.nodes else 0
    return ThroughputResult(
        updates_attempted=len(events),
        updates_accepted=accepted,
        updates_rejected=rejected,
        simulated_seconds=elapsed,
        blocks_created=end_height - start_height,
    )


@dataclass(frozen=True)
class ExposureReport:
    """Attributes visible to each role under two sharing designs."""

    fine_grained: Dict[str, Tuple[str, ...]]
    full_record: Dict[str, Tuple[str, ...]]

    def unnecessary_attributes(self) -> Dict[str, Tuple[str, ...]]:
        """Attributes each role sees under full-record sharing but not under
        the fine-grained views (i.e. data exposed without need)."""
        result: Dict[str, Tuple[str, ...]] = {}
        for role, full_columns in self.full_record.items():
            needed = set(self.fine_grained.get(role, ()))
            result[role] = tuple(column for column in full_columns if column not in needed)
        return result

    def exposure_counts(self) -> Dict[str, Dict[str, int]]:
        roles = sorted(set(self.fine_grained) | set(self.full_record))
        return {
            role: {
                "fine_grained": len(self.fine_grained.get(role, ())),
                "full_record": len(self.full_record.get(role, ())),
                "unnecessary": len(self.unnecessary_attributes().get(role, ())),
            }
            for role in roles
        }


def exposure_report(fine_grained: Mapping[str, Sequence[str]],
                    full_record: Mapping[str, Sequence[str]]) -> ExposureReport:
    """Build an :class:`ExposureReport` from per-role attribute lists."""
    return ExposureReport(
        fine_grained={role: tuple(columns) for role, columns in fine_grained.items()},
        full_record={role: tuple(columns) for role, columns in full_record.items()},
    )


@dataclass(frozen=True)
class StorageComparison:
    """Per-node storage under metadata-on-chain vs data-on-chain designs."""

    record_count: int
    metadata_on_chain_bytes: int
    data_on_chain_bytes: int

    @property
    def ratio(self) -> float:
        """How many times larger the data-on-chain design is."""
        if self.metadata_on_chain_bytes <= 0:
            return float("inf")
        return self.data_on_chain_bytes / self.metadata_on_chain_bytes

    def to_dict(self) -> dict:
        return {
            "record_count": self.record_count,
            "metadata_on_chain_bytes": self.metadata_on_chain_bytes,
            "data_on_chain_bytes": self.data_on_chain_bytes,
            "ratio": self.ratio,
        }
