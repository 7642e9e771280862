"""The wire-codec seam of ``SimTransport``: one encode/decode round trip per
sent body, counted per delivery.  The oracle is the per-delivery round trip the
seam used to make — every handler must see, and every counter must read, what
that produced."""

import copy

import pytest

from repro.chaos import RetryPolicy
from repro.config import NetworkConfig
from repro.crypto.keys import generate_keypair
from repro.errors import CodecError
from repro.ledger.clock import SimClock
from repro.ledger.transaction import Transaction
from repro.network.simulator import NetworkSimulator
from repro.network.transport import SimTransport
from repro.runtime.codec import available_codecs, get_codec

ALICE = generate_keypair(seed=81)
CODECS = available_codecs()

#: ``wire_messages`` / ``wire_bytes`` / ``bytes_transferred()`` of
#: :func:`seeded_run`, recorded at the commit before the round trip moved from
#: delivery to send.
RECORDED = {
    "canonical-json": (19, 12_673, 12_673),
    "binary": (19, 11_904, 12_673),
}


def seeded_run(codec):
    """Four nodes, seeded latency jitter: single and batched transactions, two
    blocks, and a note whose tuples only exist before the wire.  Returns the
    network and every delivery as ``(recipient, kind, payload)``."""
    network = NetworkSimulator(network_config=NetworkConfig(
        base_latency=0.05, latency_jitter=0.02, seed=22))
    transport = network.transport
    transport.configure_wire_codec(codec)
    delivered = []
    for index in range(4):
        node = network.add_node(f"node-{index}", is_miner=(index == 0))

        def recording(message, handle=node.handle_message):
            delivered.append((message.recipient, message.kind,
                              copy.deepcopy(message.payload)))
            handle(message)

        transport.register(node.name, recording)

    def transfer(nonce):
        return Transaction(sender=ALICE.address, kind="transfer", nonce=nonce,
                           timestamp=1.5, args={"memo": ("to", nonce)}).signed_by(ALICE)

    network.submit_transaction("node-1", transfer(0))
    network.submit_transaction_batch([("node-2", transfer(1)), ("node-3", transfer(2))])
    assert len(network.mine()) == 1
    transport.broadcast("node-2", "note", {"pair": (1, 2), "deep": {"inner": ((3,), "x")}})
    transport.send("node-0", "node-3", "note", {"only": ("you",)})
    transport.flush()
    network.submit_transaction("node-0", transfer(3))
    assert len(network.mine()) == 1 and network.in_consensus()
    return network, delivered


def envelope_facts(transport):
    return [(m.sender, m.recipient, m.kind, m.sent_at, m.delivered_at, m.dropped, m.attempt)
            for m in transport.log]


@pytest.mark.parametrize("codec", CODECS)
def test_seeded_run_reads_as_it_did_per_delivery(codec):
    wire = get_codec(codec)
    plain_network, plain = seeded_run(None)
    network, delivered = seeded_run(codec)
    assert len(delivered) == len(plain) == 19
    frames = [wire.encode(payload) for _recipient, _kind, payload in plain]
    for (recipient, kind, payload), (p_recipient, p_kind, _raw), frame in zip(
            delivered, plain, frames):
        assert (recipient, kind) == (p_recipient, p_kind)
        assert payload == wire.decode(frame)
    notes = [payload for _recipient, kind, payload in delivered if kind == "note"]
    assert notes[0] == {"pair": [1, 2], "deep": {"inner": [[3], "x"]}}  # tuples are lists
    assert notes[-1] == {"only": ["you"]}
    statistics = network.transport.statistics
    assert statistics["wire_codec"] == codec
    assert statistics["wire_messages"] == len(frames)
    assert statistics["wire_bytes"] == sum(map(len, frames))
    assert {key: value for key, value in statistics.items() if not key.startswith("wire_")} \
        == plain_network.transport.statistics
    assert envelope_facts(network.transport) == envelope_facts(plain_network.transport)
    assert network.transport.bytes_transferred() == plain_network.transport.bytes_transferred()
    assert [node.state_root() for node in network.nodes] \
        == [node.state_root() for node in plain_network.nodes]
    assert (statistics["wire_messages"], statistics["wire_bytes"],
            network.transport.bytes_transferred()) == RECORDED[codec]


@pytest.fixture
def transport():
    transport = SimTransport(SimClock(), NetworkConfig(
        base_latency=0.1, latency_jitter=0.0, drop_rate=0.4, seed=5))
    transport.configure_chaos(retry_policy=RetryPolicy(max_attempts=12))
    return transport


@pytest.mark.parametrize("codec", CODECS)
def test_a_broadcast_is_one_body_left_as_decoded(codec, transport, monkeypatch):
    wire = get_codec(codec)
    calls = {"encode": 0, "decode": 0}
    for name in calls:
        def counted(*args, name=name, call=getattr(wire, name)):
            calls[name] += 1
            return call(*args)
        monkeypatch.setattr(wire, name, counted)
    transport.configure_wire_codec(wire)
    seen = []
    for name in "abcdefgh":
        transport.register(name, seen.append)
    tx = Transaction(sender=ALICE.address, kind="transfer", nonce=0, timestamp=1.5,
                     args={"memo": ("to", 0)}).signed_by(ALICE)
    body = {"transactions": [tx.to_dict()], "pair": (1, 2)}
    sent = transport.broadcast("a", "tx-batch", body)
    assert calls == {"encode": 1, "decode": 1} and len(sent) == 7
    assert transport.flush() == 7 and len(seen) == 7
    for message in seen:
        Transaction.from_dict(message.payload["transactions"][0])  # what a node does with it
    fresh = get_codec(codec).decode(get_codec(codec).encode(body))
    frame_length = len(get_codec(codec).encode(body))
    # Dropped, retransmitted, delivered: every envelope carries the one body.
    assert transport.statistics["retransmits"] > 0 and transport.statistics["lost"] == 0
    assert len(transport.log) == 7 + transport.statistics["retransmits"]
    for message in transport.log:
        assert message.payload is sent[0].payload and message.wire_bytes == frame_length
    assert sent[0].payload == fresh and fresh["pair"] == [1, 2]
    assert calls == {"encode": 1, "decode": 1}
    # Counted per delivery, not per body or per attempt.
    assert transport.statistics["wire_messages"] == 7
    assert transport.statistics["wire_bytes"] == 7 * frame_length


@pytest.mark.parametrize("codec", CODECS)
def test_unencodable_payload_raises_and_queues_nothing(codec, transport):
    transport.configure_wire_codec(codec)
    for name in "ab":
        transport.register(name, lambda message: None)
    for attempt in (lambda: transport.send("a", "b", "note", {"bad": object()}),
                    lambda: transport.broadcast("a", "note", {"bad": object()})):
        with pytest.raises(CodecError):
            attempt()
            transport.flush()
    assert transport.statistics["sent"] == 0 and transport.statistics["pending"] == 0
    assert transport.broadcast("a", "note", {"bad": object()}, exclude=("b",)) == []


def test_without_a_codec_nothing_is_counted_or_rewritten(transport):
    seen = []
    for name in "abc":
        transport.register(name, seen.append)
    transport.broadcast("a", "note", {"pair": (1, 2)})
    transport.flush()
    assert [message.payload for message in seen] == [{"pair": (1, 2)}] * 2
    assert all(message.wire_bytes == 0 for message in transport.log)
    assert "wire_messages" not in transport.statistics
