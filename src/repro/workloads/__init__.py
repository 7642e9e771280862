"""Synthetic workloads.

The paper defers experiments on real patient data to future work; the
reproduction substitutes synthetic, trivially de-identified records with the
paper's exact schema, plus generators for update streams and larger peer
topologies used by the throughput and scaling benchmarks.
"""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "generator": ("MedicalRecordGenerator",),
    "updates": ("UpdateEvent", "UpdateStreamGenerator"),
    "topology": ("TopologySpec", "build_topology_system"),
    "traffic": ("TenantProfile", "TimedRequest", "TrafficGenerator",
                "default_tenant_profiles"),
})

__all__ = [
    "MedicalRecordGenerator",
    "UpdateEvent",
    "UpdateStreamGenerator",
    "TopologySpec",
    "build_topology_system",
    "TenantProfile",
    "TimedRequest",
    "TrafficGenerator",
    "default_tenant_profiles",
]
