"""``Transaction.from_dict`` shares signed transactions per process: exact by
comparison, private to the table, bounded, thread-safe — and only the
transactions, never the blocks that carry them."""

import copy
import random
import sys
import threading

import pytest

from repro.crypto.keys import generate_keypair
from repro.errors import InvalidTransactionError
from repro.ledger import transaction as transaction_module
from repro.ledger.transaction import DECODE_TABLE_SIZE, Transaction
from repro.network.simulator import NetworkSimulator
from repro.runtime.codec import available_codecs, get_codec

ALICE = generate_keypair(seed=81)


def call(nonce=3, **overrides):
    fields = dict(sender=ALICE.address, kind="call", nonce=nonce, contract="0xc",
                  method="request_update", timestamp=5.0,
                  args={"metadata_id": "m", "changed_attributes": ["dosage"],
                        "view_spec": {"columns": ["patient_id", "dosage"], "where": None}})
    fields.update(overrides)
    return Transaction(**fields)


def unverifiable_payload(index):
    """A distinct signed-looking payload that is cheap to make (no signing)."""
    return {"sender": "0xabc", "kind": "transfer", "nonce": index, "timestamp": 1.0,
            "sender_public_key": "0x1",
            "signature": {"commitment": "0x2", "response": hex(index + 2)}}


def test_equal_payloads_share_one_frozen_instance(decode_table):
    table = decode_table()
    origin = call().signed_by(ALICE)
    first = Transaction.from_dict(origin.to_dict())
    second = Transaction.from_dict(origin.to_dict())
    assert first is second and first is not origin  # the origin's object is its own
    assert first == origin and first.is_frozen
    assert first.tx_hash == origin.tx_hash and first.verify_signature()
    assert table.cache_info()[:2] == (1, 1)  # hits, misses


def test_mutating_the_callers_payload_cannot_poison_the_table(decode_table):
    decode_table()
    wire = copy.deepcopy(get_codec("canonical-json").decode(  # plain, mutable containers
        get_codec("canonical-json").encode(call().signed_by(ALICE).to_dict())))
    original = copy.deepcopy(wire)
    first = Transaction.from_dict(wire)
    wire["nonce"] = 9
    wire["args"]["changed_attributes"].append("address")
    wire["args"]["view_spec"]["where"] = {"column": "patient_id"}
    mutated = Transaction.from_dict(wire)
    # The mutated content decodes to what it says (and no longer verifies) ...
    assert mutated is not first and mutated.nonce == 9
    assert mutated.args["changed_attributes"] == ("dosage", "address")
    assert mutated.args["view_spec"]["where"] == {"column": "patient_id"}
    assert mutated == Transaction._decode(wire) and not mutated.verify_signature()
    # ... and the original content still decodes to the original transaction.
    again = Transaction.from_dict(original)
    assert again is first and again == Transaction._decode(original)
    assert again.nonce == 3 and again.args["changed_attributes"] == ("dosage",)
    assert again.verify_signature()


def test_a_respelt_number_gets_the_transaction_as_signed(decode_table):
    """Python equality reads ``3`` and ``3.0`` as one value, so such a payload
    is recognised as the signed one — and gets the signed content, not its own
    spelling (which, decoded fresh, would not verify)."""
    decode_table()
    wire = call().signed_by(ALICE).to_dict()
    genuine = Transaction.from_dict(wire)
    respelt = Transaction.from_dict({**wire, "nonce": 3.0})
    assert respelt is genuine and type(respelt.nonce) is int
    assert respelt.verify_signature()
    assert not Transaction._decode({**wire, "nonce": 3.0}).verify_signature()


def test_unsigned_payloads_never_share(decode_table):
    table = decode_table()
    wire = call().to_dict()
    first, second = Transaction.from_dict(wire), Transaction.from_dict(wire)
    assert first is not second and first == second and not first.is_frozen
    first.nonce = 11  # unsigned transactions stay mutable, so sharing would alias
    assert second.nonce == 3
    assert table.cache_info()[:2] == (0, 0) and table.cache_info().currsize == 0


@pytest.mark.parametrize("codec_name", available_codecs())
def test_wire_codec_round_trips_hit_after_the_first_miss(decode_table, codec_name):
    """Under the wire-codec seam every delivery is a freshly decoded dict with
    lists where the origin's payload had tuples."""
    table = decode_table()
    codec = get_codec(codec_name)
    origin = call().signed_by(ALICE)
    deliveries = [codec.decode(codec.encode(origin.to_dict())) for _ in range(3)]
    assert deliveries[0] is not deliveries[1]
    assert isinstance(deliveries[0]["args"]["changed_attributes"], list)
    assert isinstance(origin.to_dict()["args"]["changed_attributes"], tuple)
    decoded = [Transaction.from_dict(payload) for payload in deliveries]
    assert table.cache_info()[:2] == (2, 1)
    assert decoded[0] is decoded[1] is decoded[2]
    assert decoded[0].tx_hash == origin.tx_hash and decoded[0] == origin
    assert decoded[0].verify_signature()


def test_the_table_stays_at_its_bound():
    table = transaction_module._decode_shared
    assert table.cache_info().maxsize == DECODE_TABLE_SIZE
    table.cache_clear()
    for index in range(10 * DECODE_TABLE_SIZE):
        Transaction.from_dict(unverifiable_payload(index))
        assert table.cache_info().currsize <= DECODE_TABLE_SIZE
    info = table.cache_info()
    assert info.currsize == DECODE_TABLE_SIZE and info.misses == 10 * DECODE_TABLE_SIZE
    # Least recently used first out: the newest is kept, the oldest is gone.
    newest = Transaction.from_dict(unverifiable_payload(10 * DECODE_TABLE_SIZE - 1))
    assert table.cache_info().hits == 1
    assert Transaction.from_dict(unverifiable_payload(0)) is not newest
    assert table.cache_info().misses == 10 * DECODE_TABLE_SIZE + 1
    table.cache_clear()
    assert table.cache_info()[:2] == (0, 0) and table.cache_info().currsize == 0


def test_concurrent_decodes_of_overlapping_payloads_equal_fresh_decodes(decode_table):
    """Eight threads (more than cores) churning a 4-entry table over 12
    payloads: evictions, re-inserts and double misses all the time."""
    table = decode_table(4)
    payloads = [call(nonce=index).signed_by(ALICE).to_dict() for index in range(12)]
    fresh = [Transaction._decode(payload) for payload in payloads]
    errors, barrier = [], threading.Barrier(8)

    def worker(seed):
        try:
            order = random.Random(seed)
            barrier.wait(timeout=30)
            for _ in range(150):
                index = order.randrange(len(payloads))
                decoded = Transaction.from_dict(copy.deepcopy(payloads[index]))
                assert decoded == fresh[index] and decoded.is_frozen
                assert decoded.tx_hash == fresh[index].tx_hash
                assert decoded.verify_signature()
                assert table.cache_info().currsize <= 4
        except Exception as exc:  # noqa: BLE001 - surfaced in the assert
            errors.append(f"{type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=worker, args=(seed,), daemon=True) for seed in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[:3]
    info = table.cache_info()
    assert info.hits + info.misses == 8 * 150 and info.hits > 0 and info.currsize == 4


def test_replicas_share_the_transaction_but_not_the_block(decode_table):
    """Blocks and headers are mutable (a tampering replica rewrites its own),
    so each node decodes its own; the frozen transaction inside is shared."""
    decode_table()
    network = NetworkSimulator()
    nodes = [network.add_node(f"node-{i}", is_miner=(i == 0)) for i in range(4)]
    origin = Transaction(sender=ALICE.address, kind="transfer", nonce=0,
                         timestamp=1.5).signed_by(ALICE)
    network.submit_transaction("node-1", origin)
    assert len(network.mine()) == 1 and network.in_consensus()
    blocks = [node.chain.block_by_number(1) for node in nodes]
    for index, block in enumerate(blocks):
        for other in blocks[index + 1:]:
            assert block is not other and block.header is not other.header
            assert block.block_hash == other.block_hash
            assert block.transactions[0] is other.transactions[0]
    assert blocks[0].transactions[0] is not origin  # the origin keeps its own object
    # Tampering with one replica's block stays on that replica.
    blocks[3].header.merkle_root = "0" * 64
    assert not nodes[3].chain.verify_chain()
    assert all(node.chain.verify_chain() for node in nodes[:3])
    with pytest.raises(InvalidTransactionError):
        blocks[3].transactions[0].nonce = 7
