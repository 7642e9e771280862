"""Assembly of the simulated network.

A :class:`NetworkSimulator` owns the simulated clock, the transport, the
gossip mesh of validators (blockchain nodes), the light peers they serve, and
the registry of pairwise data channels.
The core system (:mod:`repro.core.system`) builds one simulator and attaches
the application-level peers (doctor, patient, researcher, ...) to it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Type

from repro.config import LedgerConfig, NetworkConfig
from repro.contracts.base import Contract
from repro.errors import UnknownPeerError
from repro.ledger.block import Block
from repro.ledger.clock import SimClock
from repro.ledger.sharding import ShardRouter
from repro.ledger.transaction import Transaction
from repro.network.channels import ChannelRegistry
from repro.network.gossip import GossipProtocol
from repro.network.light import LightNode
from repro.network.node import BlockchainNode
from repro.network.transport import SimTransport


class NetworkSimulator:
    """Clock + transport + blockchain nodes + pairwise data channels."""

    def __init__(self, ledger_config: LedgerConfig = LedgerConfig(),
                 network_config: NetworkConfig = NetworkConfig(),
                 contract_classes: Tuple[Type[Contract], ...] = ()):
        self.clock = SimClock()
        self.ledger_config = ledger_config
        self.network_config = network_config
        self.contract_classes = tuple(contract_classes)
        self.transport = SimTransport(self.clock, network_config)
        #: Shared routing of metadata ids to consensus lanes; the gossip
        #: layer uses it for per-shard tx-batch topics and the gateway for
        #: per-shard queue-depth metrics.
        self.router = ShardRouter(ledger_config.consensus_shards)
        self.gossip = GossipProtocol(self.transport, router=self.router)
        self.channels = ChannelRegistry(self.clock, latency=network_config.base_latency)

    # -------------------------------------------------------------------- nodes

    def add_node(self, name: str, is_miner: bool = False) -> BlockchainNode:
        """Create a blockchain node and attach it to the gossip mesh.

        A node added after blocks have already been produced first syncs its
        replica from an existing node, so late-joining peers observe the same
        contract state as everyone else.
        """
        existing = list(self.gossip.nodes)
        node = BlockchainNode(
            name=name,
            clock=self.clock,
            config=self.ledger_config,
            contract_classes=self.contract_classes,
            is_miner=is_miner,
            router=self.router,
        )
        if existing and existing[0].chain.height > 0:
            node.sync_with(existing[0])
        self.gossip.register_node(node)
        return node

    def add_light_node(self, name: str) -> LightNode:
        """Attach a light peer, served by the block producer's node (the
        first validator when none produces)."""
        validators = self.gossip.miner_nodes or self.gossip.nodes
        if not validators:
            raise UnknownPeerError(f"light peer {name!r} needs a validator to attach to")
        light = LightNode(name, self.gossip, validators[0])
        self.gossip.register_light_peer(light)
        return light

    def node(self, name: str) -> BlockchainNode:
        return self.gossip.node(name)

    @property
    def nodes(self) -> Tuple[BlockchainNode, ...]:
        return self.gossip.nodes

    # -------------------------------------------------------------- transactions

    def submit_transaction(self, via_node: str, transaction: Transaction) -> str:
        """Submit a signed transaction through a trusted node and gossip it."""
        self.gossip.broadcast_transaction(via_node, transaction)
        return transaction.tx_hash

    def submit_transaction_batch(self, submissions: List[Tuple[str, Transaction]]) -> List[str]:
        """Submit many signed ``(via node, transaction)`` pairs in one gossip round.

        Each transaction is first ingested at its submitting peer's own node
        (keeping that peer's nonce accounting exact), then the whole batch is
        flooded as one ``tx-batch`` message per shard per link — one latency
        charge per link instead of one per transaction.  Used by the gateway's
        batched ledger commits.
        """
        if not submissions:
            return []
        for via_node, transaction in submissions:
            self.gossip.node(via_node).receive_transaction(transaction)
        origin = submissions[0][0]
        self.gossip.broadcast_transaction_batch(
            origin, [transaction for _via, transaction in submissions])
        return [transaction.tx_hash for _via, transaction in submissions]

    def mine(self, miner_name: Optional[str] = None) -> List[Block]:
        """Produce blocks from pending transactions and propagate them."""
        return self.gossip.mine_and_propagate(miner_name)

    def submit_and_mine(self, via_node: str, transaction: Transaction) -> List[Block]:
        """Submit one transaction and immediately mine it into a block."""
        self.submit_transaction(via_node, transaction)
        return self.mine()

    # -------------------------------------------------------------------- checks

    def in_consensus(self) -> bool:
        return self.gossip.in_consensus()

    def light_statistics(self) -> Dict[str, int]:
        """Light peers' verification counters, summed over the peers."""
        lights = self.gossip.light_peers
        return {"peers": len(lights),
                "proofs_verified": sum(light.proofs_verified for light in lights),
                "refusals": sum(light.refusals for light in lights),
                "failovers": sum(light.failovers for light in lights)}

    def statistics(self) -> Dict[str, object]:
        """A summary of network and chain activity, used by benchmarks."""
        any_node = self.nodes[0] if self.nodes else None
        return {
            "now": self.clock.now(),
            "transport": self.transport.statistics,
            "channel_bytes": sum(c.bytes_transferred() for c in self.channels.channels),
            "chain_height": any_node.chain.height if any_node else 0,
            "chain_storage_bytes": any_node.chain.storage_bytes() if any_node else 0,
            "in_consensus": self.in_consensus(),
        }
