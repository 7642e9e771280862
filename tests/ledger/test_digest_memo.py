"""Block hash, PoA seal commitment and Merkle root are looked up by value in
per-process memos: equal to the digest computed by hand for every spelling of
a header, never merging spellings ``==`` confuses, never hiding an edit."""

import random

import pytest

from repro.config import ConsensusConfig
from repro.crypto.hashing import hash_payload
from repro.crypto.keys import generate_keypair
from repro.crypto.merkle import MerkleTree
from repro.ledger import block as block_module
from repro.ledger.block import Block, BlockHeader
from repro.ledger.clock import SimClock
from repro.ledger.consensus import ProofOfAuthority, ProofOfWork
from repro.ledger.transaction import (
    HEADER_DIGEST_TABLE_SIZE,
    MERKLE_ROOT_TABLE_SIZE,
    Transaction,
)
from repro.network.simulator import NetworkSimulator

ALICE = generate_keypair(seed=81)
NUMBERS = (0, 1, 2, 7, 0.0, -0.0, 1.0, 2.0, 2.5, True, False, -3)


@pytest.fixture(autouse=True)
def cold_memos():
    block_module._header_digest.cache_clear()
    block_module._merkle_root.cache_clear()


def by_hand(header, sealed=True):
    body = {"number": header.number, "parent_hash": header.parent_hash,
            "merkle_root": header.merkle_root, "timestamp": header.timestamp,
            "proposer": header.proposer, "nonce": header.nonce,
            "state_root": header.state_root}
    if sealed:
        body["seal"] = header.seal
    return hash_payload(body)


def random_header(rng):
    text = lambda: rng.choice(("", "ab" * 32, "doctor", "0" * 64))
    return BlockHeader(number=rng.choice(NUMBERS), parent_hash=text(), merkle_root=text(),
                       timestamp=rng.choice(NUMBERS), proposer=text(),
                       nonce=rng.choice(NUMBERS), seal=text(), state_root=text())


def test_digests_equal_the_hand_built_hash_cold_and_warm():
    rng = random.Random(22)
    headers = [random_header(rng) for _ in range(400)]
    for _pass in ("cold", "warm"):
        for header in headers:
            assert header.block_hash == by_hand(header)
            assert ProofOfAuthority._seal_digest(header) == by_hand(header, sealed=False)
    info = block_module._header_digest.cache_info()
    assert info.hits >= info.misses > 0  # the warm pass was answered by the memo


@pytest.mark.parametrize("field, one, other", [
    ("timestamp", 2, 2.0), ("timestamp", 0.0, -0.0), ("timestamp", 1.0, True),
    ("nonce", 1, True), ("nonce", 0, False), ("nonce", 0, 0.0),
    ("number", 2, 2.0), ("number", 1, True),
])
def test_spellings_that_compare_equal_never_share_an_entry(field, one, other):
    fields = dict(number=4, parent_hash="aa" * 32, merkle_root="bb" * 32,
                  timestamp=12.5, proposer="doctor", nonce=0, seal="cc" * 32)
    for first, second in ((one, other), (other, one)):  # whichever is warm first
        block_module._header_digest.cache_clear()
        a = BlockHeader(**{**fields, field: first})
        b = BlockHeader(**{**fields, field: second})
        assert a.block_hash == by_hand(a) != by_hand(b) == b.block_hash
        assert (ProofOfAuthority._seal_digest(a) == by_hand(a, sealed=False)
                != by_hand(b, sealed=False) == ProofOfAuthority._seal_digest(b))


def test_a_field_the_memo_cannot_key_is_still_hashed():
    header = BlockHeader(number=1, parent_hash="aa" * 32, merkle_root="", timestamp=1.0,
                         proposer="doctor", seal=["not", "text"], state_root=None)
    assert header.block_hash == by_hand(header)
    assert ProofOfAuthority._seal_digest(header) == by_hand(header, sealed=False)
    assert block_module._header_digest.cache_info().currsize == 0


def test_header_memo_is_bounded_and_wraps_the_one_implementation():
    memo = block_module._header_digest
    header = BlockHeader(3, "aa" * 32, "bb" * 32, 4.5, "doctor", 0, "cc" * 32)
    fields = tuple(header.to_dict().values())
    assert memo.__wrapped__(fields, True) == header.digest(memoise=False) == by_hand(header)
    assert memo.cache_info().maxsize == HEADER_DIGEST_TABLE_SIZE and not memo.cache_info().currsize
    for number in range(HEADER_DIGEST_TABLE_SIZE + 50):
        BlockHeader(number=number, parent_hash="", merkle_root="", timestamp=1.0,
                    proposer="p").block_hash
    assert memo.cache_info().currsize == HEADER_DIGEST_TABLE_SIZE


def test_pow_nonce_search_stays_out_of_the_memo():
    engine = ProofOfWork(ConsensusConfig(kind="pow", pow_difficulty=2))
    header = BlockHeader(number=1, parent_hash="aa" * 32, merkle_root="bb" * 32,
                         timestamp=0.0, proposer="miner")
    before = block_module._header_digest.cache_info()
    engine.seal(header, SimClock())
    assert engine.sealing_work() > 1
    assert block_module._header_digest.cache_info() == before
    assert header.block_hash == by_hand(header) and header.block_hash.startswith("00")
    engine.validate_seal(Block(header=header))


@pytest.mark.parametrize("leaves", [0, 1, 2, 3, 4, 7, 8])
def test_merkle_memo_agrees_with_the_tree(leaves):
    transactions = tuple(
        Transaction(sender=ALICE.address, kind="transfer", nonce=nonce, timestamp=1.0)
        for nonce in range(leaves))
    block = Block(header=BlockHeader(0, "", "", 0.0, "p"), transactions=transactions)
    expected = MerkleTree.root_of(block.transaction_hashes())
    assert block.compute_merkle_root() == expected  # cold
    assert block.compute_merkle_root() == expected  # warm
    assert block_module._merkle_root.cache_info()[:2] == (1, 1)  # hits, misses
    assert block_module._merkle_root.cache_info().maxsize == MERKLE_ROOT_TABLE_SIZE
    reordered = Block(header=block.header, transactions=transactions[::-1])
    assert reordered.compute_merkle_root() == MerkleTree.root_of(
        reordered.transaction_hashes())


@pytest.mark.parametrize("field, forged", [
    ("merkle_root", "0" * 64), ("timestamp", 0.25), ("timestamp", 2),
    ("nonce", True), ("seal", "f" * 64), ("state_root", "late"),
])
def test_tampering_under_a_warm_memo_is_seen_on_that_replica_only(field, forged):
    network = NetworkSimulator()
    nodes = [network.add_node(f"node-{i}", is_miner=(i == 0)) for i in range(4)]
    for nonce in range(2):
        network.submit_transaction("node-1", Transaction(
            sender=ALICE.address, kind="transfer", nonce=nonce,
            timestamp=1.5).signed_by(ALICE))
        assert len(network.mine()) == 1
    assert network.in_consensus()
    assert all(node.chain.verify_chain() for node in nodes)  # every digest is warm
    assert block_module._header_digest.cache_info().hits > 0
    setattr(nodes[3].chain.block_by_number(1).header, field, forged)
    assert not nodes[3].chain.verify_chain()
    assert nodes[3].chain.detect_tampering()[0] == 1
    for node in nodes[:3]:
        assert node.chain.verify_chain() and node.chain.detect_tampering() == []
