"""Consensus sharding: routing shared tables to independent lanes.

The paper's update workflow serialises every shared-data commit through one
chain: one mempool, one block-size budget, one consensus round at a time.
Nothing in the protocol couples *independent* shared tables, so the ledger
pipeline can be sharded by metadata id:

* :class:`ShardRouter` — a stable hash of the metadata/table id picks the
  shard.  Transactions that do not target a shared table (deploys, transfers,
  registry calls) ride shard 0, the *control lane*; with more than one shard
  that lane is reserved for them and shared tables hash over lanes
  ``1..N-1``, so control traffic never queues behind table commits.

Everything downstream keys on the router's lane index:
:class:`~repro.ledger.mempool.Mempool` keeps one arrival-ordered dict per
lane, the miner's :class:`~repro.ledger.lanes.LaneScheduler` seals one block
per lane with pending work inside one simulated block interval, and the
gossip layer floods one ``tx-batch`` per lane.  ``consensus_shards=1`` is the
one-lane case of that same pipeline: everything routes to lane 0.
"""

from __future__ import annotations

from repro.crypto.hashing import hash_payload
from repro.ledger.transaction import Transaction


class ShardRouter:
    """Stable assignment of metadata ids (and their transactions) to shards."""

    def __init__(self, num_shards: int = 1):
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        self.num_shards = num_shards

    def shard_of(self, metadata_id: str) -> int:
        """The shard a shared table's transactions are routed to.

        A stable content hash (not Python's randomised ``hash``) so every
        node, the gossip layer and the benchmarks agree on the routing across
        processes and runs.  With more than one shard, lane 0 is *reserved*
        for control traffic (deploys, transfers, registry calls): shared
        tables hash over lanes ``1..N-1`` only, so a burst of table commits
        can never queue behind — or delay — control transactions.  A single
        shard keeps everything on lane 0.
        """
        if self.num_shards == 1:
            return 0
        return 1 + int(hash_payload(str(metadata_id))[:8], 16) % (self.num_shards - 1)

    def shard_of_transaction(self, tx: Transaction) -> int:
        """Route a transaction by the shared table it touches.

        Any contract call naming a ``metadata_id`` — update/create/delete
        requests, folded requests and acknowledgements alike — lands on that
        table's shard, so both consensus rounds of a commit parallelise.
        Everything else (deploys, transfers, registry traffic) takes the
        control lane, shard 0.
        """
        if tx.kind == "call":
            metadata_id = tx.args.get("metadata_id")
            if metadata_id is not None:
                return self.shard_of(str(metadata_id))
        return 0

    def __repr__(self) -> str:
        return f"ShardRouter(num_shards={self.num_shards})"
