"""World state: accounts and deployed contract instances.

The world state is what every node materialises by replaying the chain.  It
holds account nonces and the deployed contract objects (their Python state is
the analogue of contract storage).  A state root hash lets blocks commit to
the post-state, and lets tests detect divergence between nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.crypto.hashing import canonical_json, sha256_hex


@dataclass
class Account:
    """An externally owned account (a user) or a contract account."""

    address: str
    nonce: int = 0
    is_contract: bool = False
    public_key: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "address": self.address,
            "nonce": self.nonce,
            "is_contract": self.is_contract,
            "public_key": hex(self.public_key) if self.public_key else None,
        }


class WorldState:
    """Accounts plus deployed contract instances."""

    def __init__(self) -> None:
        self._accounts: Dict[str, Account] = {}
        self._contracts: Dict[str, Any] = {}

    # ---------------------------------------------------------------- accounts

    def get_account(self, address: str) -> Account:
        """Return (creating on first touch) the account at ``address``."""
        if address not in self._accounts:
            self._accounts[address] = Account(address=address)
        return self._accounts[address]

    def increment_nonce(self, address: str) -> int:
        account = self.get_account(address)
        account.nonce += 1
        return account.nonce

    def nonce_of(self, address: str) -> int:
        return self.get_account(address).nonce

    @property
    def addresses(self) -> Tuple[str, ...]:
        return tuple(self._accounts)

    # --------------------------------------------------------------- contracts

    def deploy_contract(self, address: str, contract: Any) -> None:
        """Install a contract instance at ``address``."""
        self._contracts[address] = contract
        account = self.get_account(address)
        account.is_contract = True

    def contract_at(self, address: str) -> Optional[Any]:
        return self._contracts.get(address)

    # ------------------------------------------------------------------- root

    def _canonical_bytes(self) -> bytes:
        """Accounts and live contract storage, serialised without a copy."""
        return canonical_json({
            "accounts": {a: acct.to_dict() for a, acct in self._accounts.items()},
            "contracts": {address: contract.storage_view()
                          for address, contract in self._contracts.items()},
        }).encode("utf-8")

    def state_root(self) -> str:
        """A hash committing to accounts and contract storage."""
        return sha256_hex(self._canonical_bytes())

    def storage_bytes(self) -> int:
        """Approximate serialised size of the state (per-node storage pressure)."""
        return len(self._canonical_bytes())
