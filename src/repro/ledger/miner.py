"""The block producer.

The miner drains the mempool into new blocks, honouring:

* the per-block transaction and gas limits;
* the paper's serialisation rule (§III-B): *"one block can contain one
  transaction at most on some shared data at one time"* — conflicting update
  requests on the same shared table are deferred to later blocks;
* the consensus engine's sealing procedure and block interval.

The miner runs one lane per mempool lane (consensus shard) through a
:class:`~repro.ledger.lanes.LaneScheduler`: every lane with pending work
seals a block in the *same* simulated block interval.  An unsharded ledger
is the one-lane case.

Selection is cursor-based: each lane remembers how far into its arrival
order it has scanned and which transactions it had to defer (gas budget,
serialisation conflicts), so mining N blocks from a large pool touches each
pending transaction once plus once per deferral instead of rescanning the
full pool every block.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ledger.block import Block, BlockHeader
from repro.ledger.chain import Blockchain
from repro.ledger.clock import SimClock
from repro.ledger.gas import GasSchedule
from repro.ledger.lanes import LaneScheduler
from repro.ledger.mempool import Mempool
from repro.ledger.transaction import Transaction, TransactionReceipt
from repro.obs.tracer import NULL_TRACER


def default_conflict_key(tx: Transaction) -> Optional[str]:
    """The contention rule: the "shared data key" a transaction contends
    on, or None when it is not an update request on shared data.

    Contract calls that request an operation on shared data carry the target
    ``metadata_id`` in their arguments; two requests on the same metadata id
    may not share a block.
    """
    if tx.kind != "call":
        return None
    if tx.method in ("request_update", "request_create", "request_delete",
                     "request_folded_update"):
        metadata_id = tx.args.get("metadata_id")
        return str(metadata_id) if metadata_id is not None else None
    return None


class Miner:
    """Builds, seals and appends blocks from a mempool."""

    def __init__(
        self,
        chain: Blockchain,
        mempool: Mempool,
        clock: SimClock,
        proposer: str = "miner-0",
        enforce_serialization: bool = True,
    ):
        self.chain = chain
        self.mempool = mempool
        self.clock = clock
        self.proposer = proposer
        self.enforce_serialization = enforce_serialization
        self.gas_schedule = GasSchedule(
            per_transaction=chain.config.gas_per_transaction,
            per_payload_byte=chain.config.gas_per_payload_byte,
        )
        self.blocks_mined = 0
        #: Selection-cost counter: how many pending transactions every
        #: `_select_transactions` call has looked at in total.  The linearity
        #: regression test asserts this stays O(pool + deferrals).
        self.txs_scanned = 0
        #: Per-lane scan state, keyed by lane: the cursor is the highest
        #: arrival sequence number already scanned, the deferred list keeps
        #: transactions that were reached but had to wait (gas budget or
        #: serialisation rule).
        self._scan_cursor: Dict[int, int] = {}
        self._deferred: Dict[int, List[str]] = {}
        #: One lane per mempool lane.
        self.lanes = LaneScheduler(self, mempool.num_shards)
        #: Set by :meth:`MedicalDataSharingSystem.attach_tracer`; every lane's
        #: block production is wrapped in a ``lane.mine`` span.
        self.tracer = NULL_TRACER

    # ------------------------------------------------------------ block packing

    def _select_transactions(self, shard: int) -> List[Transaction]:
        """Choose the transactions for the next block, oldest first.

        Resumes from the lane's cursor: transactions this lane deferred in
        earlier blocks (they are the oldest remaining) are reconsidered
        first, then the scan continues where it previously stopped.  The
        selection is identical to rescanning the whole pool in arrival order
        — deferred transactions *are* the arrival-order prefix — without the
        O(pending) rescan per block.
        """
        config = self.chain.config
        selected: List[Transaction] = []
        used_keys = set()
        gas_used = 0
        deferred_next: List[str] = []

        def consider(tx: Transaction) -> None:
            nonlocal gas_used
            self.txs_scanned += 1
            gas = self.gas_schedule.intrinsic_gas(tx)
            if gas_used + gas > config.gas_limit_per_block:
                deferred_next.append(tx.tx_hash)
                return
            if self.enforce_serialization:
                key = default_conflict_key(tx)
                if key is not None:
                    if key in used_keys:
                        # The paper's rule: defer the second update on the same
                        # shared data to a later block.
                        deferred_next.append(tx.tx_hash)
                        return
                    used_keys.add(key)
            selected.append(tx)
            gas_used += gas

        deferred_prev = self._deferred.get(shard, [])
        cursor = self._scan_cursor.get(shard, -1)
        full = False
        for index, tx_hash in enumerate(deferred_prev):
            tx = self.mempool.get(tx_hash)
            if tx is None:
                continue  # included by a gossiped block in the meantime
            if len(selected) >= config.max_transactions_per_block:
                # Block is full: everything not yet reconsidered stays deferred.
                deferred_next.extend(h for h in deferred_prev[index:]
                                     if self.mempool.get(h) is not None)
                full = True
                break
            consider(tx)
        if not full:
            for seq, tx in self.mempool.iter_entries(after=cursor, shard=shard):
                if len(selected) >= config.max_transactions_per_block:
                    break  # cursor stays before this transaction
                cursor = seq
                consider(tx)
        self._deferred[shard] = deferred_next
        self._scan_cursor[shard] = cursor
        return selected

    def mine_block(self, shard: int = 0,
                   seal_clock: Optional[object] = None) -> Optional[Block]:
        """Mine one block from one lane of the mempool (lane 0 by default).

        Returns None when the lane is empty — the simulated chain
        does not produce empty blocks (nothing in the paper requires them and
        the benchmarks only care about blocks carrying requests).
        ``seal_clock`` lets a lane scheduler seal against a held clock so
        several lanes share one block interval.
        """
        transactions = self._select_transactions(shard)
        if not transactions:
            return None
        header = BlockHeader(
            number=self.chain.height + 1,
            parent_hash=self.chain.head.block_hash,
            merkle_root="",
            timestamp=self.clock.now(),
            proposer=self.proposer,
        )
        block = Block(header=header, transactions=tuple(transactions))
        header.merkle_root = block.compute_merkle_root()
        self.chain.consensus.seal(header, seal_clock or self.clock)
        sealed = Block(header=header, transactions=tuple(transactions))
        self.chain.append_block(sealed)
        self.mempool.remove(sealed.transaction_hashes())
        self.blocks_mined += 1
        return sealed

    def mine_interval(self) -> List[Block]:
        """Produce the blocks of one simulated block interval: every lane
        with pending work seals a block and the clock advances once."""
        return self.lanes.mine_interval()

    def mine_until_empty(self, max_blocks: int = 1_000) -> List[Block]:
        """Mine blocks until the mempool is drained (or ``max_blocks`` reached)."""
        mined: List[Block] = []
        while len(self.mempool) > 0 and len(mined) < max_blocks:
            blocks = self.mine_interval()
            if not blocks:
                break
            mined.extend(blocks)
        return mined

    # ----------------------------------------------------------------- metrics

    def lane_statistics(self) -> dict:
        """Per-lane production counters."""
        return self.lanes.statistics()

    def receipts_of(self, block: Block) -> Tuple[TransactionReceipt, ...]:
        """Receipts of every transaction in ``block``."""
        return tuple(self.chain.receipt(tx_hash) for tx_hash in block.transaction_hashes())
