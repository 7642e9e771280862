"""The per-peer server application (the "Server App" box of Fig. 2).

The server app mediates between one peer's client side, its database manager,
its trusted blockchain node and the pairwise data channels:

* it signs and submits contract-call transactions through the trusted node —
  the peer's own validator node, or, for a *light* peer, a validator's;
* it turns the contract events addressed to its peer into
  :class:`Notification` objects ("the smart contract notifies sharing peers
  of the modification").  A validator's app listens to its own replica's
  events; a light peer's app queues one only after its
  :class:`~repro.network.light.LightNode` has checked the operation's
  inclusion proof against the headers it holds and the app has checked the
  sender is the agreement's counterparty (or the peer itself);
* it serves data requests from sharing peers and fetches updated shared data
  from them over the pairwise channel, installing a diff only if it hashes
  to the ``diff_hash`` the notification committed on-chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.manager import DatabaseManager
from repro.core.peer import Peer
from repro.crypto.hashing import hash_payload
from repro.errors import SharingError, WorkflowError
from repro.ledger.events import LogEntry
from repro.ledger.transaction import Transaction
from repro.network.channels import ChannelRegistry, ChannelTransfer
from repro.network.light import LightNode
from repro.network.node import BlockchainNode
from repro.relational.diff import TableDiff
from repro.relational.table import Table


@dataclass(frozen=True)
class Notification:
    """A contract event addressed to this peer."""

    metadata_id: str
    operation: str
    update_id: int
    requester: str
    requester_role: str
    changed_attributes: Tuple[str, ...]
    diff_hash: str
    block_number: int

    @staticmethod
    def from_event(entry: LogEntry) -> "Notification":
        data = entry.data
        return Notification(
            metadata_id=data.get("metadata_id", ""),
            operation=data.get("operation", ""),
            update_id=int(data.get("update_id", 0)),
            requester=data.get("requester", ""),
            requester_role=data.get("requester_role", ""),
            changed_attributes=tuple(data.get("changed_attributes", ())),
            diff_hash=data.get("diff_hash", ""),
            block_number=entry.block_number,
        )


class ServerApp:
    """Mediator between one peer and the rest of the system."""

    def __init__(self, peer: Peer, node: BlockchainNode, channels: ChannelRegistry,
                 delta_verify_interval: int = 16,
                 light: Optional[LightNode] = None):
        self.peer = peer
        #: The trusted node: the peer's own, or (light peer) its validator's.
        self.node = node
        self.light = light
        self.channels = channels
        self.manager = DatabaseManager(peer, delta_verify_interval=delta_verify_interval)
        self.contract_address: Optional[str] = None
        self.registry_address: Optional[str] = None
        self._notifications: List[Notification] = []
        #: metadata_id → most recent outgoing diff, served to requesting peers.
        self.outgoing_diffs: Dict[str, TableDiff] = {}
        #: metadata_id → chain address of the agreement's other peer.
        self.counterparty_addresses: Dict[str, str] = {}
        if light is None:
            node.subscribe_events(self._on_event)
        else:
            light.wants = self._names_me
            light.accept_operation = self._accept_operation
            light.on_reattach = self._reattach

    # -------------------------------------------------------------------- events

    def _on_event(self, entry: LogEntry) -> None:
        if entry.name != "SharedDataChanged":
            return
        notify_peers = entry.data.get("notify_peers", ())
        if self.peer.address not in notify_peers:
            return
        self._notifications.append(Notification.from_event(entry))

    def _names_me(self, entry: LogEntry) -> bool:
        """A shared-data operation this peer takes part in: one on a table it
        shares, which notifies it or which it requested."""
        data = entry.data
        return (entry.name == "SharedDataChanged"
                and data.get("metadata_id") in self.counterparty_addresses
                and (self.peer.address in data.get("notify_peers", ())
                     or data.get("requester") == self.peer.address))

    def _accept_operation(self, transaction: Transaction, entry: LogEntry) -> bool:
        """A light peer's last check of an operation its light node verified:
        the sender is the agreement's counterparty or this peer, and the
        event names that sender.  Queues the notification when it is one."""
        counterparty = self.counterparty_addresses.get(entry.data.get("metadata_id"))
        sender = transaction.sender
        if (counterparty is None or sender not in (counterparty, self.peer.address)
                or entry.data.get("requester") != sender):
            return False
        self._on_event(entry)
        return True

    def _reattach(self, node: BlockchainNode) -> None:
        self.node = node

    def confirm_own_request(self, transaction: Transaction) -> None:
        """Before a light peer installs its own accepted change: its light
        node must hold a verified inclusion proof of the request."""
        if self.light is not None and not self.light.verified(transaction.tx_hash):
            raise WorkflowError(
                f"light peer {self.peer.name!r} holds no verified inclusion proof "
                f"of its request {transaction.tx_hash[:12]}")

    @property
    def notifications(self) -> Tuple[Notification, ...]:
        return tuple(self._notifications)

    def pop_notifications(self, metadata_id: Optional[str] = None) -> List[Notification]:
        """Remove and return pending notifications (optionally for one table)."""
        if metadata_id is None:
            popped, self._notifications = self._notifications, []
            return popped
        popped = [n for n in self._notifications if n.metadata_id == metadata_id]
        self._notifications = [n for n in self._notifications if n.metadata_id != metadata_id]
        return popped

    # ------------------------------------------------------------- transactions

    def build_contract_call(self, method: str, args: Mapping[str, Any],
                            contract_address: Optional[str] = None) -> Transaction:
        """Build and sign a contract-call transaction from this peer."""
        address = contract_address or self.contract_address
        if address is None:
            raise SharingError(
                f"peer {self.peer.name!r} has no sharing contract address configured"
            )
        confirmed = self.node.chain.state.nonce_of(self.peer.address)
        nonce = self.node.mempool.next_nonce(self.peer.address, confirmed)
        tx = Transaction(
            sender=self.peer.address,
            kind="call",
            nonce=nonce,
            contract=address,
            method=method,
            args=dict(args),
            timestamp=self.node.clock.now(),
        )
        return tx.signed_by(self.peer.keypair)

    def build_deploy(self, contract_class_name: str,
                     args: Optional[Mapping[str, Any]] = None) -> Transaction:
        """Build and sign a contract-deployment transaction from this peer."""
        confirmed = self.node.chain.state.nonce_of(self.peer.address)
        nonce = self.node.mempool.next_nonce(self.peer.address, confirmed)
        tx = Transaction(
            sender=self.peer.address,
            kind="deploy",
            nonce=nonce,
            method=contract_class_name,
            args=dict(args or {}),
            timestamp=self.node.clock.now(),
        )
        return tx.signed_by(self.peer.keypair)

    # ----------------------------------------------------------------- queries

    def query_contract(self, method: str, **args: Any) -> Any:
        """Read-only call against this peer's node replica of the sharing contract."""
        if self.contract_address is None:
            raise SharingError(
                f"peer {self.peer.name!r} has no sharing contract address configured"
            )
        return self.node.static_call(self.contract_address, method,
                                     caller=self.peer.address, **args)

    def can_write(self, metadata_id: str, attribute: str) -> bool:
        """Permission probe for this peer on one attribute of a shared table."""
        return bool(
            self.query_contract(
                "can_peer_write",
                metadata_id=metadata_id,
                address=self.peer.address,
                attribute=attribute,
            )
        )

    # ------------------------------------------------------------ data channel

    def channel_to(self, other_peer_name: str):
        return self.channels.channel_between(self.peer.name, other_peer_name)

    def request_shared_data(self, metadata_id: str, provider_peer_name: str,
                            since_update: Optional[int] = None) -> ChannelTransfer:
        """Ask the sharing peer for the newest shared data ("request updated data")."""
        channel = self.channel_to(provider_peer_name)
        return channel.request_data(self.peer.name, provider_peer_name,
                                    self.peer.agreement(metadata_id).view_name_for(
                                        provider_peer_name),
                                    since_update=since_update)

    def serve_shared_data(self, metadata_id: str, requester_peer_name: str,
                          mode: str = "diff") -> ChannelTransfer:
        """Send the newest shared data to the requesting peer ("send updated data").

        ``mode="diff"`` sends the most recent outgoing row-level diff when one
        is available, falling back to a full snapshot otherwise.
        """
        channel = self.channel_to(requester_peer_name)
        if mode == "diff" and metadata_id in self.outgoing_diffs:
            return channel.send_diff(self.peer.name, requester_peer_name,
                                     self.outgoing_diffs[metadata_id])
        snapshot = self.peer.shared_table(metadata_id)
        return channel.send_snapshot(self.peer.name, requester_peer_name, snapshot)

    def receive_shared_data(self, metadata_id: str, transfer: ChannelTransfer,
                            notification: Optional[Notification] = None) -> None:
        """Install shared data received over a channel into the local database.

        With the ``notification`` the transfer answers, a diff is installed
        only if it hashes to the notification's on-chain ``diff_hash``.
        """
        if transfer.kind == "diff":
            diff = TableDiff.from_dict(transfer.payload)
            if (notification is not None
                    and hash_payload(diff.to_dict()) != notification.diff_hash):
                raise WorkflowError(
                    f"channel diff for {metadata_id!r} update #{notification.update_id} "
                    f"does not match the diff hash committed on-chain")
            self.manager.apply_incoming_diff(metadata_id, diff)
        elif transfer.kind == "snapshot":
            self.manager.replace_shared_table(metadata_id, Table.from_dict(transfer.payload))
        else:
            raise SharingError(f"cannot install channel transfer of kind {transfer.kind!r}")
