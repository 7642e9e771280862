"""Deterministic contract execution.

:class:`ContractRuntime` implements the ledger's
:class:`~repro.ledger.chain.TransactionExecutor` interface:

* ``deploy`` transactions instantiate a registered contract class at a
  deterministic address derived from (sender, nonce);
* ``call`` transactions invoke a public method of a deployed contract with
  the transaction's keyword arguments;
* a reverted call rolls the contract's storage back and produces a failed
  receipt — exactly what Fig. 4 step 3 needs ("if permission denied, then
  this request failed").

Storage is undo-journaled (:mod:`repro.contracts.storage`): a call journals
the inverse of each mutation it makes, a revert replays that journal
backwards and a ``static_call`` is a call that always reverts — so a
successful call and a read-only probe never copy storage.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple, Type

from repro.crypto.hashing import hash_payload
from repro.errors import ContractError, ContractNotFoundError, ContractRevert
from repro.contracts.base import CallContext, Contract
from repro.ledger.chain import TransactionExecutor
from repro.ledger.gas import GasSchedule
from repro.ledger.state import WorldState
from repro.ledger.transaction import Transaction, TransactionReceipt


def contract_address_for(sender: str, nonce: int) -> str:
    """The deterministic address of a contract deployed by (sender, nonce)."""
    return "0xc" + hash_payload({"deployer": sender, "nonce": nonce})[:39]


class ContractRuntime(TransactionExecutor):
    """Executes deploy/call transactions against a world state."""

    def __init__(self, gas_schedule: GasSchedule = GasSchedule()):
        self.gas_schedule = gas_schedule
        self._contract_classes: Dict[str, Type[Contract]] = {}
        self._call_count = 0
        self._revert_count = 0

    # ------------------------------------------------------------- registration

    def register_contract_class(self, contract_class: Type[Contract],
                                name: Optional[str] = None) -> None:
        """Make a contract class deployable under ``name`` (default: class name)."""
        self._contract_classes[name or contract_class.__name__] = contract_class

    def registered_classes(self) -> Tuple[str, ...]:
        return tuple(sorted(self._contract_classes))

    # ---------------------------------------------------------------- execution

    @property
    def statistics(self) -> Dict[str, int]:
        return {"calls": self._call_count, "reverts": self._revert_count}

    def execute(self, tx: Transaction, state: WorldState, block_number: int,
                timestamp: float) -> TransactionReceipt:
        gas = self.gas_schedule.intrinsic_gas(tx)
        if tx.kind == "deploy":
            return self._execute_deploy(tx, state, block_number, gas)
        if tx.kind == "call":
            return self._execute_call(tx, state, block_number, timestamp, gas)
        # Plain transfers carry no contract semantics.
        state.increment_nonce(tx.sender)
        return TransactionReceipt(
            tx_hash=tx.tx_hash, block_number=block_number, success=True, gas_used=gas
        )

    def _execute_deploy(self, tx: Transaction, state: WorldState, block_number: int,
                        gas: int) -> TransactionReceipt:
        class_name = tx.method or ""
        if class_name not in self._contract_classes:
            state.increment_nonce(tx.sender)
            return TransactionReceipt(
                tx_hash=tx.tx_hash, block_number=block_number, success=False, gas_used=gas,
                error=f"unknown contract class {class_name!r}",
            )
        nonce = state.nonce_of(tx.sender)
        address = contract_address_for(tx.sender, nonce)
        try:
            contract = self._contract_classes[class_name](**tx.args)
        except TypeError as exc:
            state.increment_nonce(tx.sender)
            return TransactionReceipt(
                tx_hash=tx.tx_hash, block_number=block_number, success=False, gas_used=gas,
                error=f"constructor error: {exc}",
            )
        state.deploy_contract(address, contract)
        state.increment_nonce(tx.sender)
        return TransactionReceipt(
            tx_hash=tx.tx_hash, block_number=block_number, success=True, gas_used=gas,
            contract_address=address,
        )

    def _execute_call(self, tx: Transaction, state: WorldState, block_number: int,
                      timestamp: float, gas: int) -> TransactionReceipt:
        self._call_count += 1
        state.increment_nonce(tx.sender)
        contract = state.contract_at(tx.contract or "")
        if contract is None:
            self._revert_count += 1
            return TransactionReceipt(
                tx_hash=tx.tx_hash, block_number=block_number, success=False, gas_used=gas,
                error=f"no contract at address {tx.contract!r}",
            )
        method_name = tx.method or ""
        method = getattr(contract, method_name, None)
        if method is None or method_name.startswith("_") or not callable(method):
            self._revert_count += 1
            return TransactionReceipt(
                tx_hash=tx.tx_hash, block_number=block_number, success=False, gas_used=gas,
                error=f"contract has no method {method_name!r}",
            )
        context = CallContext(
            caller=tx.sender,
            block_number=block_number,
            timestamp=timestamp,
            contract_address=tx.contract or "",
        )
        contract._begin_call(context)
        try:
            return_value = method(**tx.args)
        except ContractRevert as exc:
            contract._end_call(revert=True)  # reverted calls emit no events
            self._revert_count += 1
            return TransactionReceipt(
                tx_hash=tx.tx_hash, block_number=block_number, success=False, gas_used=gas,
                error=str(exc), contract_address=tx.contract, events=(),
            )
        except Exception as exc:  # non-revert failure is a bug in the contract
            contract._end_call(revert=True)
            self._revert_count += 1
            raise ContractError(
                f"contract {tx.contract} method {method_name!r} raised "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        events = contract._end_call()
        return TransactionReceipt(
            tx_hash=tx.tx_hash, block_number=block_number, success=True, gas_used=gas,
            return_value=return_value, contract_address=tx.contract,
            events=tuple(event.to_dict() for event in events),
        )

    # ------------------------------------------------------------- read helpers

    def static_call(self, state: WorldState, contract_address: str, method: str,
                    caller: str = "0xreadonly", **args: Any) -> Any:
        """Execute a read-only call without a transaction.

        Any storage mutation performed by the method is rolled back, so this
        is safe to use for queries such as ``get_metadata``.
        """
        contract = state.contract_at(contract_address)
        if contract is None:
            raise ContractNotFoundError(f"no contract at address {contract_address!r}")
        bound = getattr(contract, method, None)
        if bound is None or not callable(bound):
            raise ContractError(f"contract has no method {method!r}")
        contract._begin_call(CallContext(caller=caller, block_number=-1, timestamp=0.0,
                                         contract_address=contract_address))
        try:
            return bound(**args)
        finally:
            contract._end_call(revert=True)
