"""Blocks and block headers.

Blocks chain by previous-hash linkage and commit to their transactions with a
Merkle root, exactly as §II-A describes; the consensus seal (PoW nonce or PoA
signer) lives in the header.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import copysign
from typing import Optional, Tuple

from repro.crypto.hashing import hash_payload
from repro.crypto.merkle import MerkleTree
from repro.errors import InvalidBlockError
from repro.ledger.transaction import (
    HEADER_DIGEST_TABLE_SIZE,
    MERKLE_ROOT_TABLE_SIZE,
    Transaction,
)

#: Previous-hash value of the genesis block.
GENESIS_PARENT = "0" * 64

#: The type each header field is declared with, in field order.
_HEADER_FIELD_TYPES = (int, str, str, float, str, int, str, str)


@lru_cache(maxsize=HEADER_DIGEST_TABLE_SIZE)
def _header_digest(fields: tuple, sealed: bool) -> str:
    """Per-process *content* memo of :meth:`BlockHeader.digest`: a digest is a
    pure function of the field values, so replicas holding equal headers ask
    once between them while each keeps its own mutable header; an edited
    header is another key and gets its own, true digest."""
    return BlockHeader(*fields).digest(sealed, memoise=False)


#: The same for :meth:`Block.compute_merkle_root`, keyed by the transaction hashes.
_merkle_root = lru_cache(maxsize=MERKLE_ROOT_TABLE_SIZE)(MerkleTree.root_of)


@dataclass
class BlockHeader:
    """The sealed header of one block."""

    number: int
    parent_hash: str
    merkle_root: str
    timestamp: float
    proposer: str
    nonce: int = 0
    seal: str = ""
    state_root: str = ""

    def to_dict(self) -> dict:
        return {
            "number": self.number,
            "parent_hash": self.parent_hash,
            "merkle_root": self.merkle_root,
            "timestamp": self.timestamp,
            "proposer": self.proposer,
            "nonce": self.nonce,
            "seal": self.seal,
            "state_root": self.state_root,
        }

    @staticmethod
    def from_dict(payload: dict) -> "BlockHeader":
        return BlockHeader(
            number=payload["number"],
            parent_hash=payload["parent_hash"],
            merkle_root=payload["merkle_root"],
            timestamp=payload["timestamp"],
            proposer=payload["proposer"],
            nonce=payload.get("nonce", 0),
            seal=payload.get("seal", ""),
            state_root=payload.get("state_root", ""),
        )

    def digest(self, sealed: bool = True, memoise: bool = True) -> str:
        """The block hash (``sealed``) or the PoA seal commitment (not).

        Looked up by value unless ``memoise`` is off — the PoW nonce search,
        whose failed candidates would only flush the table.  The lookup
        compares keys with ``==``, which merges what canonical JSON spells
        apart (``2`` / ``2.0``, ``1`` / ``True``, ``0.0`` / ``-0.0``), so only
        a header whose fields have exactly their declared types is looked up;
        any other is hashed directly.
        """
        if memoise:
            fields = (self.number, self.parent_hash, self.merkle_root, self.timestamp,
                      self.proposer, self.nonce, self.seal if sealed else "",
                      self.state_root)
            if (tuple(map(type, fields)) == _HEADER_FIELD_TYPES
                    and copysign(1.0, self.timestamp) == 1.0):
                return _header_digest(fields, sealed)
        body = self.to_dict()
        if not sealed:
            del body["seal"]
        return hash_payload(body)

    @property
    def block_hash(self) -> str:
        return self.digest()


@dataclass
class Block:
    """A block: a sealed header plus its ordered transactions."""

    header: BlockHeader
    transactions: Tuple[Transaction, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        self.transactions = tuple(self.transactions)

    @property
    def number(self) -> int:
        return self.header.number

    @property
    def block_hash(self) -> str:
        return self.header.block_hash

    @property
    def parent_hash(self) -> str:
        return self.header.parent_hash

    @property
    def timestamp(self) -> float:
        return self.header.timestamp

    def transaction_hashes(self) -> Tuple[str, ...]:
        return tuple(tx.tx_hash for tx in self.transactions)

    def compute_merkle_root(self) -> str:
        return _merkle_root(self.transaction_hashes())

    def verify_merkle_root(self) -> bool:
        """True when the header's Merkle root matches the transaction list."""
        return self.header.merkle_root == self.compute_merkle_root()

    def find_transaction(self, tx_hash: str) -> Optional[Transaction]:
        for tx in self.transactions:
            if tx.tx_hash == tx_hash:
                return tx
        return None

    def to_dict(self) -> dict:
        return {
            "header": self.header.to_dict(),
            "transactions": [tx.to_dict() for tx in self.transactions],
        }

    @staticmethod
    def from_dict(payload: dict) -> "Block":
        header = BlockHeader.from_dict(payload["header"])
        transactions = tuple(Transaction.from_dict(tx) for tx in payload.get("transactions", ()))
        return Block(header=header, transactions=transactions)


def make_genesis_block(chain_id: int, timestamp: float = 0.0) -> Block:
    """Build the deterministic genesis block for a chain id."""
    header = BlockHeader(
        number=0,
        parent_hash=GENESIS_PARENT,
        merkle_root=MerkleTree.root_of(()),
        timestamp=timestamp,
        proposer="genesis",
        nonce=chain_id,
        seal="genesis",
    )
    return Block(header=header, transactions=())


def validate_block_linkage(parent: Block, child: Block) -> None:
    """Raise :class:`InvalidBlockError` unless ``child`` correctly extends ``parent``."""
    if child.header.parent_hash != parent.block_hash:
        raise InvalidBlockError(
            f"block #{child.number} parent hash {child.header.parent_hash[:12]} "
            f"does not match #{parent.number} hash {parent.block_hash[:12]}"
        )
    if child.number != parent.number + 1:
        raise InvalidBlockError(
            f"block number {child.number} does not follow parent number {parent.number}"
        )
    if child.timestamp < parent.timestamp:
        raise InvalidBlockError("block timestamp precedes its parent")
    if not child.verify_merkle_root():
        raise InvalidBlockError(f"block #{child.number} has an invalid Merkle root")
