"""Consensus engines: proof-of-work and proof-of-authority.

§IV.3 of the paper argues a *private* chain fits the medical-sharing setting
better than public Ethereum.  Both options are implemented so the ablation
benchmark can compare them:

* :class:`ProofOfWork` — the public-chain stand-in.  Sealing a block requires
  finding a nonce whose block hash has a configurable number of leading zero
  hex digits; block production also advances the simulated clock by the
  configured block interval (the ~12 s of §IV.1).
* :class:`ProofOfAuthority` — the private-chain choice.  Only registered
  authorities may seal; sealing is immediate apart from the (much smaller)
  configured block interval.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.config import ConsensusConfig
from repro.errors import ConsensusError, InvalidBlockError
from repro.ledger.block import Block, BlockHeader
from repro.ledger.clock import SimClock


class ConsensusEngine:
    """Base class: seal new blocks and validate seals of received blocks."""

    #: Human-readable engine name, used in benchmark output.
    name = "abstract"

    def __init__(self, config: ConsensusConfig):
        self.config = config

    @property
    def block_interval(self) -> float:
        return self.config.block_interval

    def seal(self, header: BlockHeader, clock: SimClock) -> BlockHeader:
        """Produce a sealed header (mutating nonce/seal fields as needed)."""
        raise NotImplementedError

    def validate_seal(self, block: Block) -> None:
        """Raise :class:`InvalidBlockError` if the block's seal is invalid."""
        raise NotImplementedError

    def sealing_work(self) -> int:
        """Number of hash attempts spent sealing the most recent block."""
        return 0


class ProofOfAuthority(ConsensusEngine):
    """Only whitelisted authorities may seal blocks; sealing is immediate."""

    name = "poa"

    def __init__(self, config: ConsensusConfig):
        super().__init__(config)
        self.authorities = tuple(config.authorities)

    def is_authority(self, address: str) -> bool:
        return not self.authorities or address in self.authorities

    @staticmethod
    def _seal_digest(header: BlockHeader) -> str:
        """The authority's commitment covers every header field except the seal
        itself, so tampering with any field (timestamp, Merkle root, ...) is
        detectable even on the chain tip."""
        return header.digest(sealed=False)

    def seal(self, header: BlockHeader, clock: SimClock) -> BlockHeader:
        if not self.is_authority(header.proposer):
            raise ConsensusError(
                f"{header.proposer} is not an authority and cannot seal block #{header.number}"
            )
        clock.advance(self.block_interval)
        header.timestamp = clock.now()
        header.seal = self._seal_digest(header)
        return header

    def validate_seal(self, block: Block) -> None:
        header = block.header
        if not self.is_authority(header.proposer):
            raise InvalidBlockError(
                f"block #{header.number} sealed by non-authority {header.proposer}"
            )
        if header.seal != self._seal_digest(header):
            raise InvalidBlockError(f"block #{header.number} carries an invalid PoA seal")


class ProofOfWork(ConsensusEngine):
    """Nonce search until the block hash satisfies the difficulty target."""

    name = "pow"

    def __init__(self, config: ConsensusConfig):
        super().__init__(config)
        self.difficulty = config.pow_difficulty
        self._last_work = 0

    def _meets_target(self, block_hash: str) -> bool:
        return block_hash.startswith("0" * self.difficulty)

    def seal(self, header: BlockHeader, clock: SimClock) -> BlockHeader:
        clock.advance(self.block_interval)
        header.timestamp = clock.now()
        header.seal = "pow"  # set before the search: the seal is part of the hashed header
        attempts = 0
        header.nonce = 0
        while True:
            attempts += 1
            if self._meets_target(header.digest(memoise=False)):
                break
            header.nonce += 1
            if attempts > 2_000_000:  # pragma: no cover - guard against misconfiguration
                raise ConsensusError("proof-of-work difficulty too high for simulation")
        self._last_work = attempts
        return header

    def validate_seal(self, block: Block) -> None:
        if not self._meets_target(block.block_hash):
            raise InvalidBlockError(
                f"block #{block.number} hash does not meet difficulty {self.difficulty}"
            )

    def sealing_work(self) -> int:
        return self._last_work


def make_consensus(config: ConsensusConfig) -> ConsensusEngine:
    """Factory selecting the engine named by the configuration."""
    if config.kind == "poa":
        return ProofOfAuthority(config)
    if config.kind == "pow":
        return ProofOfWork(config)
    raise ConsensusError(f"unknown consensus kind {config.kind!r}")
