"""Light peers: a header chain and one inclusion proof per own operation.

A light peer runs no :class:`~repro.network.node.BlockchainNode` — no chain
replica, mempool or contract runtime.  Its :class:`LightNode` sits on the
transport at the peer's node address (``node-<peer>``, so chaos targets keep
their meaning) and is attached to one validator, its trusted node.  Per
block, that validator sends it the header; for each operation the peer takes
part in, the raw transaction, its :class:`~repro.ledger.light_client.InclusionProof`
and the contract event (:meth:`BlockchainNode.light_messages`).

The light node accepts a header only if it links to the headers it holds
(and its seal checks), and an operation only if
:meth:`~repro.ledger.light_client.LightClient.verify_operation` ties the
transaction — hash recomputed, signature checked, metadata id and diff hash
equal to the event's — to a header it holds, and its owner (the peer's
server app) accepts the sender.  Anything else is a *refusal*: counted, and
the peer re-attaches to the next validator in mesh order, which re-serves
the refused operation (once).  A proof for a block the peer has no header of
yet, or a header past a gap, first pulls the missing headers from the trusted
node; they are checked like any other, and the trusted node serves the peer's
operations of the blocks it skipped.

The checks tie a transaction to a header; they do not authenticate the event
sent with it.  A header carries no receipts or state root, so nothing here
shows that the transaction succeeded, or that the event's ``update_id`` and
``notify_peers`` are the ones it emitted.  A lying validator can pair a
forged ``SharedDataChanged`` with an included but reverted transaction whose
sender and arguments pass the checks, and the peer queues the notification.
"""

from __future__ import annotations

from typing import Any, Callable, Set

from repro.errors import ReproError
from repro.ledger.block import BlockHeader
from repro.ledger.events import LogEntry
from repro.ledger.light_client import InclusionProof, LightClient
from repro.ledger.transaction import Transaction
from repro.network.message import Message
from repro.network.node import BlockchainNode


class LightNode:
    """The network endpoint of one light peer.

    ``wants`` selects the contract events the peer takes part in (the
    validator serves those); ``accept_operation(transaction, event)`` is the
    owner's last word on a verified operation; ``on_reattach(node)`` hears of
    every change of trusted node.  The owner sets all three.
    """

    def __init__(self, name: str, gossip: Any, validator: BlockchainNode):
        self.name = name
        self.gossip = gossip
        self.validator = validator
        self.client = LightClient(validator.chain.consensus, validator.chain.genesis)
        self.client.sync_from(validator.chain)
        self.wants: Callable[[LogEntry], bool] = lambda entry: False
        self.accept_operation: Callable[[Transaction, LogEntry], bool] = \
            lambda transaction, entry: False
        self.on_reattach: Callable[[BlockchainNode], None] = lambda node: None
        self.proofs_verified = 0
        self.refusals = 0
        self.failovers = 0
        self._verified: Set[str] = set()
        #: Refused operations already asked of another validator (once each).
        self._reasked: Set[str] = set()

    def verified(self, tx_hash: str) -> bool:
        """True once an operation of ``tx_hash`` passed every check here."""
        return tx_hash in self._verified

    # --------------------------------------------------------------- messages

    def handle_message(self, message: Message) -> None:
        """Transport entry point for ``header`` and ``operation`` messages."""
        try:
            if message.kind == "header":
                accepted = self._take_header(BlockHeader.from_dict(message.payload))
            else:
                accepted = self._take_operation(message.payload)
        except (ReproError, KeyError, TypeError, ValueError):
            accepted = False
        if not accepted:
            self._refuse(message)

    def _fill_gap_below(self, number: int) -> None:
        """Pull (and check) the missing headers below ``number`` from the
        trusted node, and have it serve this peer's operations of those
        blocks: their :meth:`~repro.network.gossip.GossipProtocol.serve_block`
        passed this peer over (its trusted node had not applied them yet) or
        was lost, so nothing else will.  Operations already verified are
        ignored on arrival."""
        first = self.client.height + 1
        self.client.sync_from(self.validator.chain, up_to=number - 1)
        for skipped in range(first, self.client.height + 1):
            self.gossip.serve_operations(self, skipped)

    def _take_header(self, header: BlockHeader) -> bool:
        if header.number > self.client.height + 1:
            self._fill_gap_below(header.number)
        self.client.offer_header(header)
        return True

    def _take_operation(self, payload: dict) -> bool:
        entry = LogEntry(**payload["event"])
        if entry.tx_hash in self._verified:
            return True
        transaction = Transaction.from_dict(payload["transaction"])
        proof = InclusionProof.from_dict(payload["proof"])
        if proof.block_number > self.client.height:
            self._fill_gap_below(proof.block_number)
            self.client.sync_from(self.validator.chain, up_to=proof.block_number)
        data = entry.data
        if not (entry.tx_hash == proof.tx_hash
                and entry.block_number == proof.block_number
                and self.wants(entry)
                and self.client.verify_operation(
                    proof, transaction,
                    expected_metadata_id=data.get("metadata_id", ""),
                    expected_diff_hash=data.get("diff_hash", ""))
                and self.accept_operation(transaction, entry)):
            return False
        self._verified.add(entry.tx_hash)
        self.proofs_verified += 1
        return True

    # --------------------------------------------------------------- failover

    def _refuse(self, message: Message) -> None:
        """Count the refusal and re-attach to the next validator after the
        trusted node, in mesh order and wrapping round, if there is another;
        a refused operation is asked of the new trusted node again, once."""
        self.refusals += 1
        nodes = self.gossip.nodes
        if len(nodes) < 2:
            return
        self.validator = nodes[(nodes.index(self.validator) + 1) % len(nodes)]
        self.failovers += 1
        self.on_reattach(self.validator)
        if message.kind == "operation":
            event = message.payload.get("event")
            tx_hash = event.get("tx_hash") if isinstance(event, dict) else None
            if isinstance(tx_hash, str) and tx_hash not in self._reasked:
                self._reasked.add(tx_hash)
                self.gossip.serve_operation(self, tx_hash)

