"""Light-client verification of shared-data operations.

A patient's phone should not need a full chain replica to convince itself
that "update #17 on my shared table is included in block 42 of the chain all
full nodes agree on".  A :class:`LightClient` keeps only block headers and
verifies:

* header-chain integrity (parent-hash linkage and consensus seals);
* transaction inclusion, via Merkle proofs produced by any full node;
* that an audit record's diff hash matches a transaction committed on-chain.

The hub topology's patients run exactly this
(:class:`repro.network.light.LightNode`): they hold a header chain fed by a
validator and check one inclusion proof per operation they take part in,
instead of replaying every block.  The trust limit is the seal: a PoA seal
is an unkeyed digest of the header, so anyone can compute one, and a light
client trusts a header because it links to the headers it already holds —
not because a known proposer signed it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.crypto.merkle import MerkleProof
from repro.errors import InvalidBlockError, LedgerError
from repro.ledger.block import Block, BlockHeader
from repro.ledger.chain import Blockchain
from repro.ledger.consensus import ConsensusEngine
from repro.ledger.transaction import Transaction


@dataclass(frozen=True)
class InclusionProof:
    """Everything a light client needs to verify one transaction's inclusion."""

    tx_hash: str
    block_number: int
    merkle_proof: MerkleProof

    def to_dict(self) -> dict:
        return {
            "tx_hash": self.tx_hash,
            "block_number": self.block_number,
            "leaf": self.merkle_proof.leaf,
            "index": self.merkle_proof.index,
            "path": [list(step) for step in self.merkle_proof.path],
        }

    @staticmethod
    def from_dict(payload: dict) -> "InclusionProof":
        return InclusionProof(
            tx_hash=payload["tx_hash"],
            block_number=payload["block_number"],
            merkle_proof=MerkleProof(
                leaf=payload["leaf"],
                index=payload["index"],
                path=tuple((side, sibling) for side, sibling in payload["path"]),
            ),
        )


def build_inclusion_proof(chain: Blockchain, tx_hash: str) -> InclusionProof:
    """Have a full node build the inclusion proof for one transaction: one
    lookup in the chain's transaction index and a path cut from the block's
    Merkle tree (built once per block, however many proofs it serves)."""
    location = chain.location_of(tx_hash)
    if location is None:
        raise LedgerError(f"transaction {tx_hash[:12]} is not on the chain")
    number, position = location
    return InclusionProof(tx_hash=tx_hash, block_number=number,
                          merkle_proof=chain.merkle_tree(number).proof(position))


class LightClient:
    """A header-only client that verifies inclusion proofs."""

    def __init__(self, consensus: ConsensusEngine, genesis: Block):
        self.consensus = consensus
        self._headers: List[BlockHeader] = [genesis.header]

    # ------------------------------------------------------------------ headers

    @property
    def height(self) -> int:
        return self._headers[-1].number

    @property
    def headers(self) -> Tuple[BlockHeader, ...]:
        return tuple(self._headers)

    def accept_header(self, header: BlockHeader) -> None:
        """Validate and append the next block header."""
        head = self._headers[-1]
        if header.number != head.number + 1:
            raise InvalidBlockError(
                f"expected header #{head.number + 1}, got #{header.number}"
            )
        if header.parent_hash != head.block_hash:
            raise InvalidBlockError(
                f"header #{header.number} does not link to the current head"
            )
        if header.timestamp < head.timestamp:
            raise InvalidBlockError("header timestamp precedes its parent")
        self.consensus.validate_seal(Block(header=header))
        self._headers.append(header)

    def offer_header(self, header: BlockHeader) -> bool:
        """:meth:`accept_header`, tolerant of a header the client already
        holds: an identical copy is ignored (False), one that differs from
        the accepted header of its number raises :class:`InvalidBlockError`."""
        if header.number <= self.height:
            if header.block_hash != self.header(header.number).block_hash:
                raise InvalidBlockError(
                    f"header #{header.number} conflicts with the one already accepted"
                )
            return False
        self.accept_header(header)
        return True

    def sync_from(self, chain: Blockchain, up_to: Optional[int] = None) -> int:
        """Fetch headers the client is missing from a full node (up to
        ``up_to``, default the node's head); returns how many."""
        last = chain.height if up_to is None else min(up_to, chain.height)
        added = 0
        for number in range(self.height + 1, last + 1):
            self.accept_header(chain.block_by_number(number).header)
            added += 1
        return added

    def header(self, number: int) -> BlockHeader:
        if not 0 <= number <= self.height:
            raise InvalidBlockError(f"light client has no header #{number}")
        return self._headers[number]

    # ------------------------------------------------------------------- proofs

    def verify_inclusion(self, proof: InclusionProof) -> bool:
        """True when ``proof`` ties its transaction to a known, sealed header."""
        if proof.block_number > self.height:
            return False
        header = self.header(proof.block_number)
        if proof.merkle_proof.leaf != proof.tx_hash:
            return False
        return proof.merkle_proof.verify(header.merkle_root)

    def verify_operation(self, proof: InclusionProof, transaction: Transaction,
                         expected_metadata_id: Optional[str] = None,
                         expected_diff_hash: Optional[str] = None) -> bool:
        """Verify that a concrete shared-data operation is committed on-chain.

        The full node hands the light client the raw transaction plus its
        inclusion proof; the client recomputes the transaction hash itself, so
        a lying full node cannot substitute a different payload.
        """
        if transaction.tx_hash != proof.tx_hash:
            return False
        if not transaction.verify_signature():
            return False
        if expected_metadata_id is not None and \
                transaction.args.get("metadata_id") != expected_metadata_id:
            return False
        if expected_diff_hash is not None and \
                transaction.args.get("diff_hash") != expected_diff_hash:
            return False
        return self.verify_inclusion(proof)
