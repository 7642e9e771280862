"""Tests for the mempool and the consensus engines."""

import pytest

from repro.config import ConsensusConfig
from repro.crypto.keys import ORDER, generate_keypair
from repro.errors import ConsensusError, InvalidBlockError, InvalidTransactionError
from repro.ledger.block import Block, BlockHeader, make_genesis_block
from repro.ledger.clock import SimClock
from repro.ledger.consensus import ProofOfAuthority, ProofOfWork, make_consensus
from repro.ledger.mempool import Mempool
from repro.ledger.transaction import Transaction

KEY = generate_keypair(seed=7)


def _tx(nonce=0, method="request_update", metadata_id="T1"):
    return Transaction(
        sender=KEY.address, kind="call", nonce=nonce, contract="0xc" + "1" * 39,
        method=method, args={"metadata_id": metadata_id}, timestamp=0.0,
    ).signed_by(KEY)


class TestMempool:
    def test_submit_and_len(self):
        pool = Mempool()
        tx_hash = pool.submit(_tx())
        assert len(pool) == 1
        assert tx_hash in pool

    def test_rejects_unsigned(self):
        pool = Mempool()
        with pytest.raises(InvalidTransactionError):
            pool.submit(Transaction(sender=KEY.address, kind="call", nonce=0))
        assert pool.rejected_count == 1

    def test_submit_batch_reports_per_transaction_outcomes(self):
        pool = Mempool()
        good_one, good_two = _tx(nonce=0), _tx(nonce=1)
        unsigned = Transaction(sender=KEY.address, kind="call", nonce=2)
        pool.submit(good_one)
        accepted, rejected = pool.submit_batch([good_one, good_two, unsigned])
        # The duplicate and the unsigned tx are reported; the rest lands.
        assert accepted == [good_two.tx_hash]
        assert len(rejected) == 2
        assert {tx.tx_hash for tx, _reason in rejected} == {good_one.tx_hash,
                                                            unsigned.tx_hash}
        assert all(reason for _tx_obj, reason in rejected)
        assert len(pool) == 2

    @pytest.mark.parametrize("orders", [1, 3])
    def test_rejects_a_malleated_signature(self, orders):
        """``response + k*ORDER`` satisfies the Schnorr equation and changes the
        hash: admitted, one signed transaction would be unboundedly many, each
        new to every node's seen-set and to the shared decode table."""
        tx = _tx()
        wire = tx.to_dict()
        response = int(wire["signature"]["response"], 16) + orders * ORDER
        twin = Transaction.from_dict(
            {**wire, "signature": {**wire["signature"], "response": hex(response)}})
        assert twin.tx_hash != tx.tx_hash
        assert not twin.verify_signature()
        pool = Mempool()
        with pytest.raises(InvalidTransactionError, match="invalid signature"):
            pool.submit(twin)
        assert pool.rejected_count == 1 and len(pool) == 0
        assert Transaction.from_dict(wire).verify_signature()
        pool.submit(Transaction.from_dict(wire))

    def test_a_negative_signature_value_does_not_decode(self):
        wire = _tx().to_dict()
        response = int(wire["signature"]["response"], 16) - ORDER
        with pytest.raises(ValueError, match="non-negative"):
            Transaction.from_dict(
                {**wire, "signature": {**wire["signature"], "response": hex(response)}})

    def test_rejects_duplicates(self):
        pool = Mempool()
        tx = _tx()
        pool.submit(tx)
        with pytest.raises(InvalidTransactionError):
            pool.submit(tx)

    def test_peek_preserves_order(self):
        pool = Mempool()
        txs = [_tx(nonce=i) for i in range(5)]
        pool.submit_many(txs)
        assert [t.nonce for t in pool.peek()] == [0, 1, 2, 3, 4]
        assert len(pool.peek(limit=2)) == 2

    def test_remove(self):
        pool = Mempool()
        txs = [_tx(nonce=i) for i in range(3)]
        pool.submit_many(txs)
        removed = pool.remove([txs[0].tx_hash, txs[2].tx_hash])
        assert removed == 2
        assert [t.nonce for t in pool.peek()] == [1]

    def test_pending_for_sender_and_next_nonce(self):
        pool = Mempool()
        pool.submit(_tx(nonce=3))
        pool.submit(_tx(nonce=4))
        assert len(pool.pending_for_sender(KEY.address)) == 2
        assert pool.next_nonce(KEY.address, confirmed_nonce=3) == 5
        assert pool.next_nonce("0xother", confirmed_nonce=2) == 2

    def test_clear(self):
        pool = Mempool()
        pool.submit(_tx())
        pool.clear()
        assert len(pool) == 0

    def test_remove_keeps_arrival_order_of_the_rest(self):
        """Regression for the ordered-dict bookkeeping: removing an arbitrary
        subset (as every mined block does) preserves arrival-order iteration
        for the survivors and is O(removed), not O(pending * removed)."""
        pool = Mempool()
        txs = [_tx(nonce=i) for i in range(10)]
        pool.submit_many(txs)
        pool.remove([txs[i].tx_hash for i in (0, 3, 4, 9)])
        assert [t.nonce for t in pool.peek()] == [1, 2, 5, 6, 7, 8]
        # Removing unknown hashes is a no-op, not an error.
        assert pool.remove(["f" * 64]) == 0
        # Later submissions continue the arrival order.
        late = _tx(nonce=10)
        pool.submit(late)
        assert [t.nonce for t in pool.peek()][-1] == 10

    def test_iter_entries_resumes_after_sequence(self):
        pool = Mempool()
        txs = [_tx(nonce=i) for i in range(5)]
        pool.submit_many(txs)
        entries = list(pool.iter_entries())
        assert [t.nonce for _s, t in entries] == [0, 1, 2, 3, 4]
        cutoff = entries[2][0]
        assert [t.nonce for _s, t in pool.iter_entries(after=cutoff)] == [3, 4]
        assert pool.get(txs[1].tx_hash) is txs[1]
        assert pool.sequence_of(txs[1].tx_hash) == entries[1][0]


def _header(number=1, parent="00" * 32, proposer="authority-1"):
    return BlockHeader(number=number, parent_hash=parent, merkle_root="",
                       timestamp=0.0, proposer=proposer)


class TestProofOfAuthority:
    def test_seal_advances_clock_by_interval(self):
        engine = ProofOfAuthority(ConsensusConfig(kind="poa", block_interval=2.0))
        clock = SimClock()
        header = engine.seal(_header(), clock)
        assert clock.now() == 2.0
        assert header.timestamp == 2.0
        assert header.seal

    def test_seal_validates(self):
        engine = ProofOfAuthority(ConsensusConfig(kind="poa"))
        header = engine.seal(_header(), SimClock())
        engine.validate_seal(Block(header=header))

    def test_non_authority_rejected(self):
        engine = ProofOfAuthority(
            ConsensusConfig(kind="poa", authorities=("authority-1",)))
        with pytest.raises(ConsensusError):
            engine.seal(_header(proposer="intruder"), SimClock())

    def test_validate_rejects_forged_seal(self):
        engine = ProofOfAuthority(ConsensusConfig(kind="poa"))
        header = engine.seal(_header(), SimClock())
        header.seal = "forged"
        with pytest.raises(InvalidBlockError):
            engine.validate_seal(Block(header=header))

    def test_validate_rejects_non_authority_proposer(self):
        engine = ProofOfAuthority(
            ConsensusConfig(kind="poa", authorities=("authority-1",)))
        header = _header(proposer="intruder")
        with pytest.raises(InvalidBlockError):
            engine.validate_seal(Block(header=header))


class TestProofOfWork:
    def test_seal_meets_difficulty(self):
        engine = ProofOfWork(ConsensusConfig(kind="pow", pow_difficulty=2,
                                             block_interval=12.0))
        clock = SimClock()
        header = engine.seal(_header(), clock)
        assert header.block_hash.startswith("00")
        assert clock.now() == 12.0
        assert engine.sealing_work() >= 1

    def test_validate_rejects_insufficient_work(self):
        engine = ProofOfWork(ConsensusConfig(kind="pow", pow_difficulty=2))
        header = _header()
        header.seal = "pow"
        # Find a nonce that does NOT satisfy the target.
        while header.block_hash.startswith("00"):
            header.nonce += 1
        with pytest.raises(InvalidBlockError):
            engine.validate_seal(Block(header=header))

    def test_zero_difficulty_accepts_anything(self):
        engine = ProofOfWork(ConsensusConfig(kind="pow", pow_difficulty=0))
        engine.validate_seal(Block(header=_header()))


class TestFactory:
    def test_make_poa(self):
        assert isinstance(make_consensus(ConsensusConfig(kind="poa")), ProofOfAuthority)

    def test_make_pow(self):
        assert isinstance(make_consensus(ConsensusConfig(kind="pow")), ProofOfWork)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ConsensusConfig(kind="mystery")
        with pytest.raises(ValueError):
            ConsensusConfig(block_interval=0)
        with pytest.raises(ValueError):
            ConsensusConfig(pow_difficulty=-1)
