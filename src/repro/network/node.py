"""Blockchain nodes: the validators.

A validator keeps its own chain replica, mempool (one lane per consensus
shard, routed by the simulator's shared
:class:`~repro.ledger.sharding.ShardRouter`) and contract runtime.  It
receives gossiped transactions and blocks over the transport; applying a
block re-executes its transactions locally, so every honest validator reaches
the same world state — the consensus property the paper relies on ("each
node will conduct the smart contract locally").  Not every peer runs one: a
*light* peer (:mod:`repro.network.light`) holds only a header chain, and a
validator serves it what it needs to check its own operations —
:meth:`BlockchainNode.light_header` per block plus, from
:meth:`BlockchainNode.light_operations`, the raw transaction and inclusion
proof of each operation that names it.

Per node: mempool, chain (its ``Block``/``BlockHeader`` objects included),
contract execution, receipts, events, and *asking* — whether each signature is
valid, at admission and at block validation, and whether each block's linkage,
seal, Merkle root and size hold.  Per process, the answers that are pure
functions of content: decoding a signed transaction (``Transaction.from_dict``
hands every node the same frozen instance, which carries its hash, signature
verdict and gas size); the block hash and seal commitment of a header's field
values and the Merkle root of a list of transaction hashes
(:mod:`repro.ledger.block` looks them up by value, so a node that edits its
own header asks a different question and gets that header's true digest); and,
with a wire codec attached, the one encode/decode round trip of a broadcast
body — every recipient's handler reads the same decoded body and leaves it
as it found it, while ``wire_messages``/``wire_bytes`` count each delivery.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple, Type

from repro.config import LedgerConfig
from repro.contracts.base import Contract
from repro.contracts.runtime import ContractRuntime
from repro.errors import InvalidBlockError, InvalidTransactionError
from repro.ledger.block import Block
from repro.ledger.chain import Blockchain
from repro.ledger.clock import SimClock
from repro.ledger.events import LogEntry
from repro.ledger.light_client import build_inclusion_proof
from repro.ledger.mempool import Mempool
from repro.ledger.miner import Miner
from repro.ledger.sharding import ShardRouter
from repro.ledger.transaction import Transaction
from repro.network.message import Message


class BlockchainNode:
    """One full node of the permissioned network."""

    def __init__(self, name: str, clock: SimClock, config: LedgerConfig = LedgerConfig(),
                 contract_classes: Tuple[Type[Contract], ...] = (),
                 is_miner: bool = False, router: Optional[ShardRouter] = None):
        self.name = name
        self.clock = clock
        self.runtime = ContractRuntime()
        for contract_class in contract_classes:
            self.runtime.register_contract_class(contract_class)
        self.chain = Blockchain(config, executor=self.runtime)
        # One mempool lane per consensus shard.  The router is normally the
        # simulator's shared instance so every node, the gossip topics and
        # the gateway metrics agree on lane routing.
        self.mempool = Mempool(router or ShardRouter(config.consensus_shards))
        self.is_miner = is_miner
        self.miner: Optional[Miner] = (
            Miner(self.chain, self.mempool, clock, proposer=name) if is_miner else None
        )
        self._event_subscribers: List[Callable[[LogEntry], None]] = []
        self.chain.events.subscribe(self._dispatch_event)
        self._seen_transactions: set = set()
        self._seen_blocks: set = set()

    # ---------------------------------------------------------------- messaging

    def handle_message(self, message: Message) -> None:
        """Transport entry point for gossiped transactions and blocks."""
        if message.kind == "tx":
            transaction = Transaction.from_dict(message.payload)
            self.receive_transaction(transaction)
        elif message.kind == "tx-batch":
            self.receive_transactions(
                Transaction.from_dict(payload)
                for payload in message.payload.get("transactions", ())
            )
        elif message.kind == "block":
            block = Block.from_dict(message.payload)
            self.receive_block(block)

    def receive_transaction(self, transaction: Transaction) -> bool:
        """Add a gossiped transaction to the local mempool (idempotent)."""
        if transaction.tx_hash in self._seen_transactions:
            return False
        self._seen_transactions.add(transaction.tx_hash)
        try:
            self.mempool.submit(transaction)
            return True
        except InvalidTransactionError:
            return False

    def receive_transactions(self, transactions: Iterable[Transaction]) -> int:
        """Batch entry point for a gossiped ``tx-batch`` message (idempotent).

        Hands the unseen transactions to the mempool's batch submission, so
        one invalid transaction does not block the rest of the batch.
        Returns how many were newly accepted.
        """
        fresh = [tx for tx in transactions if tx.tx_hash not in self._seen_transactions]
        self._seen_transactions.update(tx.tx_hash for tx in fresh)
        accepted, _rejected = self.mempool.submit_batch(fresh)
        return len(accepted)

    def receive_block(self, block: Block) -> bool:
        """Validate and apply a gossiped block to the local chain replica."""
        if block.block_hash in self._seen_blocks:
            return False
        self._seen_blocks.add(block.block_hash)
        if block.number != self.chain.height + 1:
            # Out-of-order or already-known block; the simulation gossips in
            # order so anything else indicates a stale duplicate.
            return False
        try:
            self.chain.append_block(block)
        except InvalidBlockError:
            return False
        self.mempool.remove(block.transaction_hashes())
        return True

    def sync_with(self, peer: "BlockchainNode") -> int:
        """Catch up with a peer's replica by replaying its missing blocks.

        A node added after genesis (a hospital joining an existing sharing
        network) bootstraps this way; deterministic contract execution makes
        the replay reach the same state root as the peer.  Returns how many
        blocks were applied.
        """
        applied = 0
        for number in range(self.chain.height + 1, peer.chain.height + 1):
            block = peer.chain.block_by_number(number)
            self._seen_blocks.add(block.block_hash)
            self.chain.append_block(block)
            self.mempool.remove(block.transaction_hashes())
            applied += 1
        return applied

    # ------------------------------------------------------------ light peers

    def light_header(self, number: int) -> dict:
        """The header of block ``number`` of this replica, as sent to light peers."""
        return self.chain.block_by_number(number).header.to_dict()

    def light_operations(self, number: int, wants: Callable[[LogEntry], bool]
                         ) -> List[dict]:
        """The ``operation`` payloads of block ``number`` for one light peer:
        one per contract event ``wants`` selects, carrying the raw
        transaction, its inclusion proof and the event — everything the peer
        needs to check the operation against the headers it holds."""
        return [self._operation_payload(entry)
                for entry in self.chain.events_of(number) if wants(entry)]

    def _operation_payload(self, entry: LogEntry) -> dict:
        number, position = self.chain.location_of(entry.tx_hash)
        transaction = self.chain.block_by_number(number).transactions[position]
        return {"transaction": transaction.to_dict(),
                "proof": build_inclusion_proof(self.chain, entry.tx_hash).to_dict(),
                "event": entry.to_dict()}

    # ------------------------------------------------------------------- events

    def _dispatch_event(self, entry: LogEntry) -> None:
        for subscriber in self._event_subscribers:
            subscriber(entry)

    def subscribe_events(self, callback: Callable[[LogEntry], None]) -> None:
        """Subscribe to contract events observed by this node."""
        self._event_subscribers.append(callback)

    # -------------------------------------------------------------------- state

    def state_root(self) -> str:
        return self.chain.state.state_root()

    def contract_at(self, address: str):
        return self.chain.state.contract_at(address)

    def static_call(self, contract_address: str, method: str, caller: Optional[str] = None,
                    **args):
        """Read-only contract query against this node's replica."""
        return self.runtime.static_call(
            self.chain.state, contract_address, method, caller=caller or self.name, **args
        )

    def __repr__(self) -> str:
        return f"BlockchainNode({self.name!r}, height={self.chain.height})"
