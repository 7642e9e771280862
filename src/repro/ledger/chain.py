"""Chain storage, validation, execution and fork choice.

A :class:`Blockchain` holds the ordered blocks, the world state produced by
executing them, the receipts and the event log.  Transaction execution is
delegated to an *executor* (the contract runtime from
:mod:`repro.contracts.runtime`), keeping the ledger free of contract
semantics.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.config import LedgerConfig
from repro.crypto.merkle import MerkleTree
from repro.errors import ForkError, InvalidBlockError, InvalidTransactionError
from repro.ledger.block import Block, make_genesis_block, validate_block_linkage
from repro.ledger.consensus import ConsensusEngine, make_consensus
from repro.ledger.events import EventLog, LogEntry
from repro.ledger.gas import GasSchedule
from repro.ledger.state import WorldState
from repro.ledger.transaction import Transaction, TransactionReceipt


class TransactionExecutor:
    """Interface the contract runtime implements to execute transactions."""

    def execute(self, tx: Transaction, state: WorldState, block_number: int,
                timestamp: float) -> TransactionReceipt:
        raise NotImplementedError


class NullExecutor(TransactionExecutor):
    """An executor that accepts every transaction without contract semantics.

    Used by ledger-only tests and by the on-chain-storage baseline, where the
    payload itself is the point.
    """

    def __init__(self, gas_schedule: GasSchedule = GasSchedule()):
        self.gas_schedule = gas_schedule

    def execute(self, tx: Transaction, state: WorldState, block_number: int,
                timestamp: float) -> TransactionReceipt:
        state.increment_nonce(tx.sender)
        return TransactionReceipt(
            tx_hash=tx.tx_hash,
            block_number=block_number,
            success=True,
            gas_used=self.gas_schedule.intrinsic_gas(tx),
        )


class Blockchain:
    """The canonical chain of one node."""

    def __init__(self, config: LedgerConfig = LedgerConfig(),
                 executor: Optional[TransactionExecutor] = None,
                 consensus: Optional[ConsensusEngine] = None):
        self.config = config
        self.consensus = consensus or make_consensus(config.consensus)
        self.executor = executor or NullExecutor(
            GasSchedule(per_transaction=config.gas_per_transaction,
                        per_payload_byte=config.gas_per_payload_byte)
        )
        self.state = WorldState()
        self.events = EventLog()
        self._blocks: List[Block] = [make_genesis_block(config.chain_id)]
        self._blocks_by_hash: Dict[str, Block] = {self._blocks[0].block_hash: self._blocks[0]}
        self._receipts: Dict[str, TransactionReceipt] = {}
        #: tx hash → (block number, position in the block), kept as blocks append.
        self._tx_locations: Dict[str, Tuple[int, int]] = {}
        #: Per block number, the index of its first event in ``events``.
        self._event_starts: List[int] = [0]
        #: ``(block number, Merkle tree)`` of the last block a proof was cut
        #: from: proofs are asked of the newest block, several at a time.
        self._merkle_tree: Optional[Tuple[int, MerkleTree]] = None
        self._total_gas_used = 0

    # ----------------------------------------------------------------- queries

    @property
    def height(self) -> int:
        """The number of the latest block."""
        return self._blocks[-1].number

    @property
    def head(self) -> Block:
        return self._blocks[-1]

    @property
    def genesis(self) -> Block:
        return self._blocks[0]

    @property
    def blocks(self) -> Tuple[Block, ...]:
        return tuple(self._blocks)

    @property
    def total_gas_used(self) -> int:
        return self._total_gas_used

    def __len__(self) -> int:
        return len(self._blocks)

    def block_by_number(self, number: int) -> Block:
        if not 0 <= number < len(self._blocks):
            raise InvalidBlockError(f"no block with number {number}")
        return self._blocks[number]

    def block_by_hash(self, block_hash: str) -> Block:
        if block_hash not in self._blocks_by_hash:
            raise InvalidBlockError(f"no block with hash {block_hash[:12]}")
        return self._blocks_by_hash[block_hash]

    def receipt(self, tx_hash: str) -> TransactionReceipt:
        if tx_hash not in self._receipts:
            raise InvalidTransactionError(f"no receipt for transaction {tx_hash[:12]}")
        return self._receipts[tx_hash]

    def has_receipt(self, tx_hash: str) -> bool:
        return tx_hash in self._receipts

    def location_of(self, tx_hash: str) -> Optional[Tuple[int, int]]:
        """``(block number, position in the block)`` of a transaction on the
        chain, or None."""
        return self._tx_locations.get(tx_hash)

    def events_of(self, number: int) -> Tuple[LogEntry, ...]:
        """The events block ``number``'s transactions emitted, in order."""
        starts = self._event_starts
        if not 0 <= number < len(starts):
            raise InvalidBlockError(f"no block with number {number}")
        stop = starts[number + 1] if number + 1 < len(starts) else len(self.events)
        return self.events.slice(starts[number], stop)

    def merkle_tree(self, number: int) -> MerkleTree:
        """The Merkle tree over block ``number``'s transaction hashes — built
        once for all the inclusion proofs cut from one block in a row."""
        if self._merkle_tree is None or self._merkle_tree[0] != number:
            tree = MerkleTree(self.block_by_number(number).transaction_hashes())
            self._merkle_tree = (number, tree)
        return self._merkle_tree[1]

    def transactions(self) -> Iterable[Transaction]:
        """All transactions in chain order."""
        for block in self._blocks:
            for tx in block.transactions:
                yield tx

    def receipts(self) -> Tuple[TransactionReceipt, ...]:
        return tuple(self._receipts.values())

    # --------------------------------------------------------------- validation

    def validate_block(self, block: Block) -> None:
        """Validate linkage, Merkle root, seal and signatures of ``block``."""
        validate_block_linkage(self.head, block)
        self.consensus.validate_seal(block)
        if len(block.transactions) > self.config.max_transactions_per_block:
            raise InvalidBlockError(
                f"block #{block.number} exceeds the transaction limit "
                f"({len(block.transactions)} > {self.config.max_transactions_per_block})"
            )
        for tx in block.transactions:
            if not tx.verify_signature():
                raise InvalidBlockError(
                    f"block #{block.number} contains a transaction with an invalid signature"
                )

    # ---------------------------------------------------------------- execution

    def append_block(self, block: Block) -> Tuple[TransactionReceipt, ...]:
        """Validate, execute and append ``block``; returns its receipts."""
        self.validate_block(block)
        first_event = len(self.events)
        receipts = []
        for position, tx in enumerate(block.transactions):
            receipt = self.executor.execute(tx, self.state, block.number, block.timestamp)
            receipts.append(receipt)
            self._receipts[tx.tx_hash] = receipt
            self._tx_locations[tx.tx_hash] = (block.number, position)
            self._total_gas_used += receipt.gas_used
            for event in receipt.events:
                self.events.append(
                    LogEntry(
                        contract=event.get("contract", receipt.contract_address or ""),
                        name=event.get("name", "event"),
                        data=event.get("data", {}),
                        block_number=block.number,
                        tx_hash=tx.tx_hash,
                    )
                )
        self._blocks.append(block)
        self._blocks_by_hash[block.block_hash] = block
        self._event_starts.append(first_event)
        return tuple(receipts)

    def verify_chain(self) -> bool:
        """Re-validate the full chain (tamper-evidence check used by audits)."""
        for parent, child in zip(self._blocks, self._blocks[1:]):
            try:
                validate_block_linkage(parent, child)
                self.consensus.validate_seal(child)
            except InvalidBlockError:
                return False
        return True

    def detect_tampering(self) -> List[int]:
        """Block numbers whose linkage or seal is no longer valid."""
        corrupted = []
        for parent, child in zip(self._blocks, self._blocks[1:]):
            try:
                validate_block_linkage(parent, child)
                self.consensus.validate_seal(child)
            except InvalidBlockError:
                corrupted.append(child.number)
        return corrupted

    # -------------------------------------------------------------- fork choice

    def replace_suffix(self, fork_blocks: List[Block], from_number: int) -> None:
        """Adopt a longer fork starting at ``from_number``.

        Simulation-grade reorg support: the world state is rebuilt by
        re-executing the whole chain, which is acceptable at the scales the
        benchmarks use and keeps the logic obviously correct.
        """
        if from_number <= 0 or from_number > self.height + 1:
            raise ForkError(f"invalid fork point {from_number}")
        retained = self._blocks[:from_number]
        candidate = retained + list(fork_blocks)
        if len(candidate) <= len(self._blocks):
            raise ForkError("fork is not longer than the current chain")
        # Reuse this instance's containers after successful replay.
        replay = Blockchain(self.config, executor=self.executor, consensus=self.consensus)
        for block in candidate[1:]:
            replay.append_block(block)
        self._blocks = replay._blocks
        self._blocks_by_hash = replay._blocks_by_hash
        self._receipts = replay._receipts
        self._tx_locations = replay._tx_locations
        self._event_starts = replay._event_starts
        self._merkle_tree = None
        self.state = replay.state
        self.events = replay.events
        self._total_gas_used = replay._total_gas_used

    # ------------------------------------------------------------------ metrics

    def storage_bytes(self) -> int:
        """Approximate per-node storage of the chain itself (§V comparison)."""
        from repro.crypto.hashing import canonical_json

        return sum(len(canonical_json(b.to_dict()).encode("utf-8")) for b in self._blocks)

    def average_block_interval(self) -> float:
        """Mean simulated seconds between consecutive blocks."""
        if len(self._blocks) < 2:
            return 0.0
        gaps = [
            child.timestamp - parent.timestamp
            for parent, child in zip(self._blocks, self._blocks[1:])
        ]
        return sum(gaps) / len(gaps)
