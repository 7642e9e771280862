"""Transaction and block gossip.

A minimal flooding protocol: when a client submits a transaction it is
broadcast to every validator; when the miner seals a block it is broadcast to
every validator.  Nodes deduplicate by hash, so the simulation tolerates
redundant delivery the way a real gossip mesh does.  Light peers
(:mod:`repro.network.light`) are outside the flood: once a block is out, each
one's trusted validator sends it the header and the proofs of its own
operations.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.ledger.block import Block
from repro.ledger.events import LogEntry
from repro.ledger.sharding import ShardRouter
from repro.ledger.transaction import Transaction
from repro.network.light import LightNode
from repro.network.node import BlockchainNode
from repro.network.transport import SimTransport


class GossipProtocol:
    """Floods transactions and blocks to all registered nodes.

    Transaction batches are flooded on per-shard *topics*: one ``tx-batch``
    message per shard with transactions in the batch, per link, so a node
    (or, in a real deployment, a lane worker) can subscribe to just the
    shards it produces blocks for.  Message counts per topic are tracked in
    :attr:`topic_messages`.
    """

    def __init__(self, transport: SimTransport, router: ShardRouter):
        self.transport = transport
        self.router = router
        self._nodes: Dict[str, BlockchainNode] = {}
        self._light: Dict[str, LightNode] = {}
        #: Transport names the floods skip: the light peers'.
        self._flood_exclude: FrozenSet[str] = frozenset()
        #: topic name -> gossip messages sent on it (``tx-batch/shard-<n>``).
        self.topic_messages: Dict[str, int] = {}

    def register_node(self, node: BlockchainNode) -> None:
        """Attach a node to the gossip mesh."""
        self._nodes[node.name] = node
        self.transport.register(node.name, node.handle_message)

    def register_light_peer(self, light: LightNode) -> None:
        """Attach a light peer: on the transport, but outside the floods."""
        self._light[light.name] = light
        self._flood_exclude = frozenset(self._light)
        self.transport.register(light.name, light.handle_message)

    @property
    def nodes(self) -> Tuple[BlockchainNode, ...]:
        return tuple(self._nodes.values())

    @property
    def light_peers(self) -> Tuple[LightNode, ...]:
        return tuple(self._light.values())

    def node(self, name: str) -> BlockchainNode:
        return self._nodes[name]

    @property
    def miner_nodes(self) -> Tuple[BlockchainNode, ...]:
        return tuple(node for node in self._nodes.values() if node.is_miner)

    # ------------------------------------------------------------------ gossip

    def broadcast_transaction(self, origin: str, transaction: Transaction) -> int:
        """Gossip a transaction from ``origin`` to every other node."""
        if origin in self._nodes:
            self._nodes[origin].receive_transaction(transaction)
        messages = self.transport.broadcast(
            origin, "tx", transaction.to_dict(), exclude=self._flood_exclude
        )
        self.transport.flush()
        return len(messages)

    def broadcast_transaction_batch(self, origin: str,
                                    transactions: Sequence[Transaction]) -> int:
        """Gossip a whole batch as one ``tx-batch`` message per shard per
        peer link.

        The gateway's batched commit hands all of a batch's transactions over
        together: one message per shard and link (instead of one per
        transaction) means one latency charge per link, and the receiving
        node ingests each message through
        :meth:`BlockchainNode.receive_transactions` /
        :meth:`~repro.ledger.mempool.Mempool.submit_batch`.  The payload
        names no shard: every receiver routes each transaction through its
        own (identical) :class:`~repro.ledger.sharding.ShardRouter`.
        """
        if not transactions:
            return 0
        if origin in self._nodes:
            self._nodes[origin].receive_transactions(transactions)
        by_shard: Dict[int, List[Transaction]] = {}
        for tx in transactions:
            by_shard.setdefault(self.router.shard_of_transaction(tx), []).append(tx)
        total = 0
        for shard in sorted(by_shard):
            messages = self.transport.broadcast(
                origin, "tx-batch",
                {"transactions": [tx.to_dict() for tx in by_shard[shard]]},
                exclude=self._flood_exclude,
            )
            topic = f"tx-batch/shard-{shard}"
            self.topic_messages[topic] = self.topic_messages.get(topic, 0) + len(messages)
            total += len(messages)
        self.transport.flush()
        return total

    def broadcast_block(self, origin: str, block: Block) -> int:
        """Gossip a sealed block from ``origin`` to every other validator,
        then have each light peer's validator serve it (:meth:`serve_block`)."""
        messages = self.transport.broadcast(origin, "block", block.to_dict(),
                                            exclude=self._flood_exclude)
        self.transport.flush()
        return len(messages) + self.serve_block(block.number)

    def serve_block(self, number: int) -> int:
        """Each light peer's trusted validator sends it block ``number``'s
        header (one body for all the peers a validator serves) and the
        operations there that name it, from the validator's own replica.  A
        validator that has not applied the block sends nothing; its peers
        pull the header, and ask for their operations there, when the next
        one arrives.  Returns the messages sent."""
        by_validator: Dict[str, List[LightNode]] = {}
        for light in self._light.values():
            if light.validator.chain.height >= number:
                by_validator.setdefault(light.validator.name, []).append(light)
        sent = 0
        for name, lights in by_validator.items():
            validator = self._nodes[name]
            sent += len(self.transport.multicast(
                name, [light.name for light in lights], "header",
                validator.light_header(number)))
            for light in lights:
                sent += self.serve_operations(light, number)
        if sent:
            self.transport.flush()
        return sent

    def serve_operations(self, light: LightNode, number: int,
                         wants: Optional[Callable[[LogEntry], bool]] = None) -> int:
        """Have ``light``'s trusted validator send its operations of block
        ``number`` — those ``wants`` selects, by default ``light.wants`` —
        for the flush in progress to deliver; returns how many."""
        validator = light.validator
        payloads = validator.light_operations(number, wants or light.wants)
        for payload in payloads:
            self.transport.send(validator.name, light.name, "operation", payload)
        return len(payloads)

    def serve_operation(self, light: LightNode, tx_hash: str) -> int:
        """Have ``light``'s trusted validator (re-)send the operations of
        ``tx_hash``; the flush in progress delivers them."""
        location = light.validator.chain.location_of(tx_hash)
        if location is None:
            return 0
        return self.serve_operations(
            light, location[0],
            lambda entry: entry.tx_hash == tx_hash and light.wants(entry))

    # ------------------------------------------------------------------ mining

    def mine_and_propagate(self, miner_name: Optional[str] = None) -> List[Block]:
        """Have a miner drain its mempool and gossip every block it seals.

        Draining proceeds interval by interval: the miner seals one block per
        lane with pending work inside each simulated block interval (one
        block when unsharded).
        """
        miners = [self._nodes[miner_name]] if miner_name else list(self.miner_nodes)
        mined: List[Block] = []
        for node in miners:
            if node.miner is None:
                continue
            while True:
                blocks = node.miner.mine_interval()
                if not blocks:
                    break
                for block in blocks:
                    mined.append(block)
                    self.broadcast_block(node.name, block)
        return mined

    # ------------------------------------------------------------------ checks

    def in_consensus(self) -> bool:
        """True when every node's replica has the same height and state root."""
        nodes = list(self._nodes.values())
        if len(nodes) < 2:
            return True
        heights = {node.chain.height for node in nodes}
        roots = {node.state_root() for node in nodes}
        return len(heights) == 1 and len(roots) == 1
