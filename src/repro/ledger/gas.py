"""Gas accounting.

Gas has one job in the reproduction: quantify on-chain cost/storage pressure,
so the §V comparison against the store-data-on-chain baseline (HDG [22]) is
measurable.  The schedule mirrors the shape of Ethereum's intrinsic gas: a
fixed per-transaction cost plus a per-payload-byte cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import canonical_json
from repro.ledger.transaction import Transaction


@dataclass(frozen=True)
class GasSchedule:
    """Costs used to charge transactions."""

    per_transaction: int = 21_000
    per_payload_byte: int = 16
    per_contract_deployment: int = 32_000

    def intrinsic_gas(self, tx: Transaction) -> int:
        """The gas charged for ``tx`` before contract execution."""
        data_bytes = payload_size(tx)
        gas = self.per_transaction + self.per_payload_byte * data_bytes
        if tx.kind == "deploy":
            gas += self.per_contract_deployment
        return gas


def payload_size(tx: Transaction) -> int:
    """Serialized size in bytes of the transaction's call data and payload.

    Charged by the miner and by every replica's runtime; a signed transaction
    is frozen, so its size is measured once and kept on the instance.
    """
    size = tx.__dict__.get("_cached_payload_size")
    if size is None:
        body = {"method": tx.method, "args": tx.args, "payload": tx.payload}
        size = len(canonical_json(body).encode("utf-8"))
        if tx.is_frozen:
            tx.__dict__["_cached_payload_size"] = size
    return size


def transaction_gas(tx: Transaction, schedule: GasSchedule = GasSchedule()) -> int:
    """Convenience wrapper used by the miner and the receipts."""
    return schedule.intrinsic_gas(tx)
