"""E9 — Ablation of the §III-B serialisation rule, plus the wire-codec A/B.

The paper requires that a block contains at most one update transaction per
shared table, and that further operations wait until every sharing peer holds
the newest data.  This ablation disables the miner-side rule and counts how
many conflicting updates would land in the same block — i.e. how many
consistency hazards the rule prevents — and shows the latency cost it adds.

The second ablation (E9b) A/Bs the runtime boundary's two wire codecs over
real system payloads — every block and transaction a paper-scenario run
gossips — and gates that the deterministic binary TLV encoding is strictly
smaller than canonical JSON on the wire at a bounded round-trip time
overhead, with decoded values exactly matching the canonical-JSON value model.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.config import SystemConfig
from repro.core.scenario import DOCTOR_RESEARCHER_TABLE, build_paper_scenario
from repro.crypto.hashing import canonical_json
from repro.metrics.reporting import format_table
from repro.runtime import get_codec

BLOCK_INTERVAL = 2.0

#: E9b gates: binary must be strictly smaller on the wire, and its
#: encode+decode round trip must stay within this factor of the
#: C-accelerated json module's.
MAX_ROUNDTRIP_OVERHEAD = 5.0


def _submit_conflicting_requests(system, count: int):
    """Submit ``count`` raw update requests on the same shared table without
    waiting for acknowledgements, then mine everything."""
    researcher_app = system.server_app("researcher")
    doctor_app = system.server_app("doctor")
    apps = [researcher_app, doctor_app]
    hashes = []
    for index in range(count):
        app = apps[index % 2]
        attribute = "mechanism_of_action" if app is researcher_app else "medication_name"
        tx = app.build_contract_call(
            "request_update",
            {"metadata_id": DOCTOR_RESEARCHER_TABLE,
             "changed_attributes": [attribute], "diff_hash": f"h{index}"})
        system.simulator.submit_transaction(app.node.name, tx)
        hashes.append(tx.tx_hash)
    blocks = system.simulator.mine()
    return hashes, blocks


def _conflict_stats(system, hashes, blocks):
    node = system.server_app("doctor").node
    per_block_counts = {}
    for block in blocks:
        updates_in_block = [tx for tx in block.transactions
                            if tx.method == "request_update"
                            and tx.args.get("metadata_id") == DOCTOR_RESEARCHER_TABLE]
        per_block_counts[block.number] = len(updates_in_block)
    accepted = sum(1 for h in hashes if node.chain.receipt(h).success)
    violations = sum(1 for count in per_block_counts.values() if count > 1)
    return accepted, violations, per_block_counts


@pytest.mark.parametrize("enforce", [True, False])
def test_serialization_rule_ablation(benchmark, emit, enforce):
    def run():
        system = build_paper_scenario(SystemConfig.private_chain(BLOCK_INTERVAL))
        if not enforce:
            for node in system.simulator.nodes:
                if node.miner is not None:
                    node.miner.enforce_serialization = False
        hashes, blocks = _submit_conflicting_requests(system, count=4)
        return system, hashes, blocks

    system, hashes, blocks = benchmark(run)
    accepted, violations, per_block = _conflict_stats(system, hashes, blocks)
    label = "enforced" if enforce else "disabled"
    emit(f"E9_serialization_{label}", format_table(
        ("metric", "value"),
        [("rule", label),
         ("conflicting requests submitted", len(hashes)),
         ("blocks produced", len(blocks)),
         ("requests accepted by the contract", accepted),
         ("blocks with >1 update on the same shared table", violations)],
        title=f"§III-B serialisation rule ({label})"))
    if enforce:
        assert violations == 0
        assert len(blocks) >= 4
    else:
        # Without the rule every request lands in one block; the contract's
        # acknowledgement check is the only remaining guard.
        assert len(blocks) == 1


def test_serialization_summary(benchmark, emit):
    """Side-by-side summary of the ablation."""
    rows = []
    benchmark.pedantic(
        lambda: build_paper_scenario(SystemConfig.private_chain(BLOCK_INTERVAL)),
        rounds=1, iterations=1)
    for enforce in (True, False):
        system = build_paper_scenario(SystemConfig.private_chain(BLOCK_INTERVAL))
        if not enforce:
            for node in system.simulator.nodes:
                if node.miner is not None:
                    node.miner.enforce_serialization = False
        start = system.simulator.clock.now()
        hashes, blocks = _submit_conflicting_requests(system, count=4)
        elapsed = system.simulator.clock.now() - start
        accepted, violations, _ = _conflict_stats(system, hashes, blocks)
        rows.append(("enforced" if enforce else "disabled", len(hashes), len(blocks),
                     accepted, violations, round(elapsed, 1)))
    emit("E9_serialization_summary", format_table(
        ("rule", "requests", "blocks", "accepted", "same-block conflicts", "simulated s"),
        rows, title="Ablation: one update per shared table per block"))
    enforced, disabled = rows
    assert enforced[4] == 0          # no same-block conflicts with the rule
    assert disabled[2] < enforced[2]  # fewer blocks (lower latency) without it


# --------------------------------------------------------------------------
# E9b — JSON vs binary wire codec over real system payloads


def _wire_corpus() -> list:
    """Every block and transaction a paper-scenario run actually gossips."""
    system = build_paper_scenario(SystemConfig.private_chain(BLOCK_INTERVAL))
    chain = system.server_app("doctor").node.chain
    corpus = [tx.to_dict() for block in chain.blocks for tx in block.transactions]
    corpus += [block.to_dict() for block in chain.blocks]
    # Normalise into the codecs' shared value model (tuples → lists, …) so
    # the fidelity check compares like with like.
    return json.loads(canonical_json(corpus))


def _time_roundtrip(codec, corpus: list, repeats: int) -> float:
    blobs = [codec.encode(payload) for payload in corpus]
    start = time.perf_counter()
    for _ in range(repeats):
        for payload in corpus:
            codec.encode(payload)
        for blob in blobs:
            codec.decode(blob)
    return time.perf_counter() - start


def test_wire_codec_ablation(emit, quick):
    """The binary codec must beat canonical JSON on wire size at a bounded
    round-trip overhead, decoding every payload back to exactly the canonical
    value model."""
    corpus = _wire_corpus()
    assert corpus, "paper scenario produced no gossiped payloads"
    json_codec = get_codec("canonical-json")
    binary_codec = get_codec("binary")

    fidelity_ok = all(
        binary_codec.decode(binary_codec.encode(payload)) == payload
        and json_codec.decode(json_codec.encode(payload)) == payload
        for payload in corpus)

    json_bytes = sum(len(json_codec.encode(payload)) for payload in corpus)
    binary_bytes = sum(len(binary_codec.encode(payload)) for payload in corpus)
    size_ratio = binary_bytes / json_bytes

    repeats = 20 if quick else 100
    json_seconds = _time_roundtrip(json_codec, corpus, repeats)
    binary_seconds = _time_roundtrip(binary_codec, corpus, repeats)
    roundtrip_overhead = binary_seconds / json_seconds

    emit("E9b_wire_codec", format_table(
        ("metric", "canonical-json", "binary"),
        [("wire bytes (corpus)", json_bytes, binary_bytes),
         ("size ratio (binary/json)", "", f"{size_ratio:.3f}"),
         ("round-trip seconds", f"{json_seconds:.4f}", f"{binary_seconds:.4f}"),
         ("round-trip overhead", "1.00x", f"{roundtrip_overhead:.2f}x"),
         ("payloads", len(corpus), len(corpus)),
         ("round-trip fidelity", fidelity_ok, fidelity_ok)],
        title="Wire codec A/B over gossiped blocks + transactions"))

    assert fidelity_ok, "a codec round trip changed a payload"
    assert binary_bytes < json_bytes, (
        f"binary wire encoding is not smaller: {binary_bytes} >= {json_bytes}")
    assert roundtrip_overhead <= MAX_ROUNDTRIP_OVERHEAD, (
        f"binary round trip is {roundtrip_overhead:.2f}x canonical JSON "
        f"(> {MAX_ROUNDTRIP_OVERHEAD}x): the pure-Python codec drifted")
