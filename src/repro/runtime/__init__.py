"""Message-passing runtime: the process-ready node boundary.

PRs 1–9 built the gateway, sharded consensus, async transport, durability
and replication layers as one in-process call graph.  This package carves
an explicit message boundary out of that graph so the same components can
be placed in separate OS processes without changing their semantics:

``codec``
    Pluggable wire codecs.  ``canonical-json`` reproduces the hashing
    layer's canonical JSON byte-for-byte; ``binary`` is a deterministic
    length-prefixed TLV encoding of the same value model.

``envelope``
    Typed :class:`Envelope` messages with the WAL's sequence discipline:
    every envelope carries a monotonically increasing per-channel sequence
    so gaps and reordering are detectable at the receiver.

``transport``
    The :class:`Transport` interface with two implementations —
    :class:`LoopbackTransport` (in-process queues; today's behaviour,
    byte-identical fingerprints) and :class:`MultiprocessTransport`
    (socketpair framing with length-prefixed payloads).

``clock``
    A :class:`ClockCoordinator` that merges per-worker simulated clocks so
    deterministic sim-time survives the jump across process boundaries.

``fleet``
    :class:`GatewayFleet`: partitions a gateway workload across worker
    processes, each running the existing single-process pipeline over its
    slice, and aggregates throughput, metrics and state fingerprints.
"""

from repro._exports import lazy_exports

# Every part loads on first use: a process that only runs a worker slice, or
# only forks, never compiles the others.
__getattr__, __dir__ = lazy_exports(__name__, {
    "codec": ("BinaryCodec", "CanonicalJsonCodec", "WireCodec", "available_codecs",
              "get_codec", "read_frame", "write_frame"),
    "envelope": ("Envelope", "EnvelopeChannel"),
    "transport": ("LoopbackTransport", "MultiprocessTransport", "Transport"),
    "clock": ("ClockCoordinator", "WorkerClock"),
    "fleet": ("FleetResult", "GatewayFleet", "WorkerSpec", "partition_tenants",
              "run_worker_slice"),
})

__all__ = [
    "BinaryCodec",
    "CanonicalJsonCodec",
    "ClockCoordinator",
    "Envelope",
    "EnvelopeChannel",
    "FleetResult",
    "GatewayFleet",
    "LoopbackTransport",
    "MultiprocessTransport",
    "Transport",
    "WireCodec",
    "WorkerClock",
    "WorkerSpec",
    "available_codecs",
    "get_codec",
    "partition_tenants",
    "read_frame",
    "run_worker_slice",
    "write_frame",
]
