"""The pending-transaction pool.

Transactions submitted by peers wait here until a miner includes them in a
block.  The pool keeps arrival order (the paper's contracts "dispose of the
updates according to received requests in chronological order") and rejects
duplicates and invalid signatures up front.

The pool feeds one miner lane per consensus shard
(:class:`~repro.ledger.sharding.ShardRouter`): it keeps one insertion-ordered
dict per lane, keyed by transaction hash, so duplicate detection, lookup and
post-block :meth:`Mempool.remove` are O(1) per transaction and a lane's
iteration follows arrival order.  Every accepted transaction gets a
monotonically increasing *arrival sequence number*, shared by all lanes;
whole-pool views merge the lanes by it, and the miner's per-lane selection
cursors (:mod:`repro.ledger.miner`) resume from it.  An unsharded pool is the
one-lane case.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import InvalidTransactionError
from repro.ledger.sharding import ShardRouter
from repro.ledger.transaction import Transaction

#: One lane's pending transactions: hash -> (arrival sequence, transaction).
_Lane = Dict[str, Tuple[int, Transaction]]


class Mempool:
    """An ordered pool of pending transactions, one lane per consensus shard."""

    def __init__(self, router: Optional[ShardRouter] = None):
        self.router = router or ShardRouter(1)
        #: One arrival-ordered dict per lane (dicts preserve insertion).
        self._lanes: Tuple[_Lane, ...] = tuple(
            {} for _ in range(self.router.num_shards))
        #: hash -> the lane holding it.
        self._lane_of: Dict[str, int] = {}
        self._sequence = itertools.count()
        self._rejected_count = 0

    @property
    def num_shards(self) -> int:
        """How many consensus lanes this pool feeds."""
        return len(self._lanes)

    def __len__(self) -> int:
        return len(self._lane_of)

    def __contains__(self, tx_hash: object) -> bool:
        return tx_hash in self._lane_of

    @property
    def rejected_count(self) -> int:
        """How many submissions were rejected (duplicates or bad signatures)."""
        return self._rejected_count

    def shard_depths(self) -> Tuple[int, ...]:
        """Pending-transaction count per lane (gateway metrics)."""
        return tuple(len(lane) for lane in self._lanes)

    def _entry(self, tx_hash: str) -> Optional[Tuple[int, Transaction]]:
        lane = self._lane_of.get(tx_hash)
        return None if lane is None else self._lanes[lane][tx_hash]

    def get(self, tx_hash: str) -> Optional[Transaction]:
        """The pending transaction with ``tx_hash``, or None."""
        entry = self._entry(tx_hash)
        return None if entry is None else entry[1]

    def sequence_of(self, tx_hash: str) -> Optional[int]:
        """The arrival sequence number of a pending transaction, or None."""
        entry = self._entry(tx_hash)
        return None if entry is None else entry[0]

    def submit(self, tx: Transaction) -> str:
        """Add a transaction to its lane of the pool; returns its hash.

        Raises :class:`InvalidTransactionError` for unsigned/duplicate
        transactions rather than silently dropping them — errors should never
        pass silently.
        """
        if not tx.verify_signature():
            self._rejected_count += 1
            raise InvalidTransactionError(
                f"transaction from {tx.sender} has a missing or invalid signature"
            )
        tx_hash = tx.tx_hash
        if tx_hash in self._lane_of:
            self._rejected_count += 1
            raise InvalidTransactionError(f"duplicate transaction {tx_hash[:12]}")
        lane = self.router.shard_of_transaction(tx)
        self._lanes[lane][tx_hash] = (next(self._sequence), tx)
        self._lane_of[tx_hash] = lane
        return tx_hash

    def submit_many(self, txs: Iterable[Transaction]) -> List[str]:
        return [self.submit(tx) for tx in txs]

    def submit_batch(self, txs: Iterable[Transaction]) -> Tuple[List[str], List[Tuple[Transaction, str]]]:
        """Submit a whole batch, accepting what validates and reporting the rest.

        Unlike :meth:`submit_many`, a bad transaction does not abort the batch
        — a node ingesting a gossiped ``tx-batch`` message (the gateway's
        batched ledger commit) carries many independent peers' transactions
        and needs per-transaction outcomes.  Returns
        ``(accepted_hashes, [(rejected_tx, reason), ...])``.
        """
        accepted: List[str] = []
        rejected: List[Tuple[Transaction, str]] = []
        for tx in txs:
            try:
                accepted.append(self.submit(tx))
            except InvalidTransactionError as exc:
                rejected.append((tx, str(exc)))
        return accepted, rejected

    def _arrival_order(self) -> Iterator[Tuple[int, Transaction]]:
        """Every ``(seq, tx)`` of the pool: the lanes merged by sequence."""
        # Sequences are unique, so the tuples compare by them alone.
        return heapq.merge(*(lane.values() for lane in self._lanes))

    def peek(self, limit: Optional[int] = None) -> Tuple[Transaction, ...]:
        """The oldest pending transactions, without removing them."""
        return tuple(tx for _seq, tx in itertools.islice(self._arrival_order(), limit))

    def iter_entries(self, after: int = -1,
                     shard: Optional[int] = None) -> Iterator[Tuple[int, Transaction]]:
        """Lazily yield ``(arrival_seq, tx)`` in arrival order, skipping
        entries at or before sequence number ``after``: one lane's (the
        miner's per-lane cursor) or, without ``shard``, the whole pool's."""
        entries = (self._arrival_order() if shard is None
                   else self._lanes[shard].values())
        for seq, tx in entries:
            if seq > after:
                yield seq, tx

    def remove(self, tx_hashes: Iterable[str]) -> int:
        """Remove the given transactions (after block inclusion); returns count removed.

        O(removed): each hash is popped from its lane's dict directly instead
        of rebuilding the pending list.
        """
        removed = 0
        for tx_hash in tx_hashes:
            lane = self._lane_of.pop(tx_hash, None)
            if lane is not None:
                del self._lanes[lane][tx_hash]
                removed += 1
        return removed

    def clear(self) -> None:
        for lane in self._lanes:
            lane.clear()
        self._lane_of = {}

    def pending_for_sender(self, sender: str) -> Tuple[Transaction, ...]:
        return tuple(tx for _seq, tx in self._arrival_order() if tx.sender == sender)

    def next_nonce(self, sender: str, confirmed_nonce: int) -> int:
        """The next nonce a sender should use given its confirmed account nonce.

        Arrival order is irrelevant to the maximum, so this reads the lanes
        one after another instead of merging them — every
        ``build_contract_call`` runs through here.
        """
        pending = [tx.nonce for lane in self._lanes for _seq, tx in lane.values()
                   if tx.sender == sender]
        return max([confirmed_nonce - 1] + pending) + 1
