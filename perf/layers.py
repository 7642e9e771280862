"""Per-layer metrics: which exist, and how a traced run's spans and the
layers' own counters turn into them.  A layer is a ``src/repro`` package."""

from __future__ import annotations

from typing import Any, Dict, List, Optional

#: span name → which of count / busy_ms / self_ms are exported as metrics.
SPAN_FIELDS: Dict[str, tuple] = {
    "gateway.submit_read": ("count", "busy_ms"),
    "gateway.submit_write": ("count", "busy_ms"),
    "gateway.authorize": ("count", "busy_ms"),
    "gateway.commit_once": ("count", "busy_ms", "self_ms"),
    "gateway.journal.record": ("count", "busy_ms"),
    "core.commit_entry_batch": ("count", "busy_ms", "self_ms"),
    "core.reflect_delta": ("count", "busy_ms"),
    "core.changed_dependents_delta": ("count", "busy_ms"),
    "contracts.execute": ("count", "busy_ms", "self_ms"),
    "contracts.static_call": ("count", "busy_ms"),
    "contracts.storage_snapshot": ("count", "busy_ms"),
    "ledger.append_block": ("count", "busy_ms", "self_ms"),
    "ledger.validate_block": ("busy_ms",),
    "ledger.mine_block": ("count", "busy_ms", "self_ms"),
    "crypto.verify": ("count", "busy_ms"),
    "crypto.sign": ("count", "busy_ms"),
    "network.flush": ("count", "busy_ms", "self_ms"),
    "bx.get_delta": ("count", "busy_ms"),
    "bx.put_delta": ("count", "busy_ms"),
    "bx.get": ("count", "busy_ms"),
    "bx.put": ("count", "busy_ms"),
    "relational.apply_diff": ("count", "busy_ms"),
    "relational.fingerprint": ("count", "busy_ms"),
    "relational.wal.append": ("count", "busy_ms"),
    "relational.wal.sync": ("count", "busy_ms"),
    "relational.checkpoint": ("count", "busy_ms"),
    "relational.recover": ("busy_ms",),
    "relational.replication.ship": ("count", "busy_ms"),
    "runtime.codec.encode": ("count", "busy_ms"),
    "runtime.codec.decode": ("count", "busy_ms"),
    "workloads.open_loop": ("busy_ms",),
}

#: Metrics computed from counters, span notes and the fleet result:
#: name → (unit, better).
DERIVED: Dict[str, tuple] = {
    "gateway.batch_size.mean": ("count", "higher"),
    "gateway.cache.hit_ratio": ("ratio", "higher"),
    "gateway.cache.patch.count": ("count", "higher"),
    "core.delta_fallback_ratio": ("ratio", "lower"),
    "contracts.revert_ratio": ("ratio", "lower"),
    "contracts.execute_per_write": ("count", "lower"),
    "ledger.txs_per_block.mean": ("count", "higher"),
    "ledger.consensus_rounds.count": ("count", "lower"),
    "ledger.append_per_mined_block": ("count", "lower"),
    "crypto.verify_per_tx": ("count", "lower"),
    "network.messages.count": ("count", "lower"),
    "network.bytes": ("B", "lower"),
    "relational.wal.bytes_per_write": ("B", "lower"),
    "relational.replication.entries_shipped.count": ("count", "lower"),
    "relational.replication.replica_read_ratio": ("ratio", "higher"),
    "relational.replication.lag_sim_s.max": ("sim-s", "lower"),
    "runtime.codec.bytes": ("B", "lower"),
    "runtime.fleet.overhead_ms": ("ms", "lower"),
    "runtime.fleet.worker_skew_ratio": ("ratio", "lower"),
    "runtime.transport.envelopes.count": ("count", "lower"),
    # The protocol's latency on the simulated clock.  It repeats exactly for
    # one seed, so it cannot carry a bound across seeds and lives here.
    "sim.write_p50_s": ("sim-s", "lower"),
    "sim.write_p99_s": ("sim-s", "lower"),
    "sim.writes_per_s": ("1/sim-s", "higher"),
    # Tails, from the untraced segment of a traced run.  End-to-end by nature
    # and printed by every run; here because they cannot carry a bound.
    "latency.write_p95_ms": ("ms", "lower"),
    "latency.read_p95_us": ("us", "lower"),
    "trace.coverage_ratio": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.spans.count": ("count", "lower"),
}


def per_layer_spec() -> List[Dict[str, str]]:
    """The ``per_layer`` list of BENCHMARK.json, generated from the tables."""
    spec = []
    for name, fields in SPAN_FIELDS.items():
        for field in fields:
            spec.append({"name": f"{name}.{field}",
                         "unit": "count" if field == "count" else "ms",
                         "better": "lower"})
    for name, (unit, better) in DERIVED.items():
        spec.append({"name": name, "unit": unit, "better": better})
    return spec


def layer_counters(gateway: Any) -> Dict[str, float]:
    """The layers' own cumulative counters for one gateway's system, read
    from their ``statistics`` surfaces.  Taken at the first ``submit`` and at
    the end; the difference is the run's."""
    system = gateway.system
    transport = system.simulator.transport
    counters: Dict[str, float] = {
        "network.sent": transport.statistics["sent"],
        "network.bytes": transport.bytes_transferred(),
        "contracts.calls": 0, "contracts.reverts": 0,
        "core.delta_ops": 0, "core.delta_fallbacks": 0,
    }
    for node in system.simulator.nodes:
        stats = node.runtime.statistics
        counters["contracts.calls"] += stats["calls"]
        counters["contracts.reverts"] += stats["reverts"]
    for name in system.peer_names:
        stats = system.server_app(name).manager.statistics
        counters["core.delta_ops"] += (stats["delta_get_invocations"]
                                       + stats["delta_put_invocations"])
        counters["core.delta_fallbacks"] += stats["delta_fallbacks"]
    cache = gateway.cache.statistics()
    batches = gateway.metrics()["batches"]
    counters.update({
        "cache.hits": cache["hits"], "cache.misses": cache["misses"],
        "cache.patches": cache["patches"],
        "gateway.batches": batches["committed"],
        "gateway.writes_committed": batches["writes_committed"],
    })
    if gateway.replica_router is not None:
        router = gateway.replica_router.statistics()
        counters.update({
            "replication.shipments": router["shipper"]["shipments"],
            "replication.entries_shipped": router["shipper"]["entries_shipped"],
            "replication.replica_reads": router["replica_reads"],
            "replication.primary_fallbacks": router["primary_fallbacks"],
        })
    return counters


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(round(q * len(ordered) + 0.5)) - 1))]


def layer_metrics(table: Dict[str, Dict[str, Any]], counters: Dict[str, float],
                  sim: Dict[str, Any], fleet: Optional[Dict[str, float]],
                  trace: Dict[str, float],
                  unbound_names: set) -> Dict[str, Optional[float]]:
    """Every per-layer metric one traced segment can know (``run.py`` adds
    ``trace.overhead_ratio`` and ``latency.*`` from the untraced one).

    ``table`` is the merged span table, ``counters`` the summed counter
    deltas, ``sim`` the simulated-clock samples, ``fleet`` the fleet-level
    numbers (None off the fleet workload: the runtime layer then reads 0),
    ``trace`` the traced run's own numbers.  A span name in
    ``unbound_names`` has no wrapper, so its metrics are None, not 0.
    """
    metrics: Dict[str, Optional[float]] = {}

    def row(name: str) -> Dict[str, Any]:
        return table.get(name, {"count": 0, "busy_ms": 0.0, "self_ms": 0.0, "notes": []})

    def bound(*names: str) -> bool:
        return not any(name in unbound_names for name in names)

    for name, fields in SPAN_FIELDS.items():
        for field in fields:
            metrics[f"{name}.{field}"] = row(name)[field] if bound(name) else None

    writes = counters.get("gateway.writes_committed", 0)
    mined = row("ledger.mine_block")["notes"]  # transactions of each mined block
    staleness = row("relational.replication.route")["notes"]
    routed = (counters.get("replication.replica_reads", 0)
              + counters.get("replication.primary_fallbacks", 0))
    metrics.update({
        "gateway.batch_size.mean": _ratio(writes, counters.get("gateway.batches", 0)),
        "gateway.cache.hit_ratio": _ratio(
            counters.get("cache.hits", 0),
            counters.get("cache.hits", 0) + counters.get("cache.misses", 0)),
        "gateway.cache.patch.count": counters.get("cache.patches", 0),
        "core.delta_fallback_ratio": _ratio(
            counters.get("core.delta_fallbacks", 0),
            counters.get("core.delta_ops", 0) + counters.get("core.delta_fallbacks", 0)),
        "contracts.revert_ratio": _ratio(counters.get("contracts.reverts", 0),
                                         counters.get("contracts.calls", 0)),
        "contracts.execute_per_write": (
            _ratio(row("contracts.execute")["count"], writes)
            if bound("contracts.execute") else None),
        "ledger.txs_per_block.mean": (_ratio(sum(mined), len(mined))
                                      if bound("ledger.mine_block") else None),
        # Counted at the simulator, not read from the gateway: its
        # ``consensus_rounds`` leaves out the rounds cascades mine.
        "ledger.consensus_rounds.count": (row("ledger.consensus_round")["count"]
                                          if bound("ledger.consensus_round") else None),
        "ledger.append_per_mined_block": (
            _ratio(row("ledger.append_block")["count"], len(mined))
            if bound("ledger.append_block", "ledger.mine_block") else None),
        "crypto.verify_per_tx": (
            _ratio(row("crypto.verify")["count"], sum(mined))
            if bound("crypto.verify", "ledger.mine_block") else None),
        "network.messages.count": counters.get("network.sent", 0),
        "network.bytes": counters.get("network.bytes", 0),
        "relational.wal.bytes_per_write": (
            _ratio(sum(row("relational.wal.append")["notes"]), writes)
            if bound("relational.wal.append") else None),
        "relational.replication.entries_shipped.count":
            counters.get("replication.entries_shipped", 0),
        "relational.replication.replica_read_ratio": _ratio(
            counters.get("replication.replica_reads", 0), routed),
        "relational.replication.lag_sim_s.max": (
            max(staleness, default=0.0)
            if bound("relational.replication.route") else None),
        "runtime.codec.bytes": (sum(row("runtime.codec.encode")["notes"])
                                if bound("runtime.codec.encode") else None),
        "runtime.fleet.overhead_ms": fleet["overhead_ms"] if fleet else 0.0,
        "runtime.fleet.worker_skew_ratio": fleet["worker_skew_ratio"] if fleet else 0.0,
        "runtime.transport.envelopes.count": fleet["envelopes"] if fleet else 0,
        "sim.write_p50_s": percentile(sim["write_s"], 0.50),
        "sim.write_p99_s": percentile(sim["write_s"], 0.99),
        "sim.writes_per_s": sim["writes_per_s"],
        "trace.coverage_ratio": trace["coverage_ratio"],
        "trace.spans.count": trace["spans"],
    })
    return metrics


def crosschecks(whole_table: Dict[str, Dict[str, Any]],
                end_counters: Dict[str, float]) -> Dict[str, Dict[str, float]]:
    """Wrapped counts against the layers' own cumulative counters, over the
    whole process, as ``{check: {"wrapped": n, "own": m}}``.  A mismatch means
    a wrapper misses calls (or counts extra ones) and the layer table cannot
    be trusted."""
    def notes(name: str) -> list:
        return whole_table.get(name, {"notes": []})["notes"]

    checks = {
        "contracts.execute spans of call transactions == "
        "sum of ContractRuntime.statistics['calls']": (
            sum(1 for kind in notes("contracts.execute") if kind == "call"),
            end_counters["contracts.calls"]),
        "ledger.mine_block spans returning a block == sum of Miner.blocks_mined": (
            len(notes("ledger.mine_block")), end_counters["ledger.blocks_mined"]),
    }
    if "replication.entries_shipped" in end_counters:
        checks["entries returned by SegmentShipper.ship spans == "
               "SegmentShipper.statistics()['entries_shipped']"] = (
            sum(notes("relational.replication.ship")),
            end_counters["replication.entries_shipped"])
    return {name: {"wrapped": wrapped, "own": own}
            for name, (wrapped, own) in checks.items()}
