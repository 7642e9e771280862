"""The contract programming model.

Contracts are plain Python classes whose public methods are invoked by
``call`` transactions.  Execution is deterministic: every validator re-runs
the same calls in block order and must reach the same storage, which the
state root check in tests verifies.

A contract method can:

* read ``self.ctx`` — the caller address, block number and block timestamp;
* mutate its own attributes (its "storage"): scalars, tuples, ``dict``/``list``
  at any depth and :class:`~repro.contracts.storage.StorageRecord` objects.
  Every mutation made during a call is journaled (see
  :mod:`repro.contracts.storage`), so a call costs what it touches and a
  revert undoes exactly that — no author discipline, no storage copy;
* call :meth:`Contract.require` to revert with a reason;
* call :meth:`Contract.emit` to produce an event delivered to subscribers.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.contracts import storage
from repro.errors import ContractRevert, PermissionDenied

#: Per-call attributes of a contract instance; everything else is storage.
_CALL_STATE = ("_ctx", "_pending_events")


@dataclass(frozen=True)
class CallContext:
    """Execution context available to a contract method."""

    caller: str
    block_number: int
    timestamp: float
    contract_address: str


@dataclass(frozen=True)
class ContractEvent:
    """An event emitted during one contract call."""

    contract: str
    name: str
    data: Mapping[str, Any]

    def to_dict(self) -> dict:
        return {"contract": self.contract, "name": self.name, "data": dict(self.data)}


class Contract(storage.StorageRecord):
    """Base class for deployable contracts."""

    def __init__(self) -> None:
        self._ctx: Optional[CallContext] = None
        self._pending_events: List[ContractEvent] = []

    def __setattr__(self, name: str, value: Any) -> None:
        if name in _CALL_STATE:
            object.__setattr__(self, name, value)
        else:
            super().__setattr__(name, value)

    # -- runtime integration ----------------------------------------------------

    @property
    def ctx(self) -> CallContext:
        """The current call context (only valid during a call)."""
        if self._ctx is None:
            raise ContractRevert("contract accessed its context outside of a call")
        return self._ctx

    def _begin_call(self, ctx: CallContext) -> None:
        self._ctx = ctx
        self._pending_events = []
        storage.begin()

    def _end_call(self, revert: bool = False) -> Tuple[ContractEvent, ...]:
        """Close the call; ``revert`` undoes its storage mutations and events."""
        storage.end(revert)
        events = () if revert else tuple(self._pending_events)
        self._ctx = None
        self._pending_events = []
        return events

    def storage_view(self) -> Dict[str, Any]:
        """The live storage (everything except call state) — read it, and do
        not keep or mutate it."""
        return {key: value for key, value in self.__dict__.items()
                if key not in _CALL_STATE}

    def storage_snapshot(self) -> Dict[str, Any]:
        """A detached deep copy of the storage, in plain ``dict``/``list``."""
        return copy.deepcopy(self.storage_view())

    # -- helpers for contract authors ------------------------------------------

    def require(self, condition: bool, message: str = "requirement failed") -> None:
        """Revert the call unless ``condition`` holds."""
        if not condition:
            raise ContractRevert(message)

    def require_permission(self, condition: bool, message: str = "permission denied") -> None:
        """Revert with a :class:`PermissionDenied` unless ``condition`` holds."""
        if not condition:
            raise PermissionDenied(message)

    def emit(self, name: str, **data: Any) -> None:
        """Emit an event from the current call."""
        self._pending_events.append(
            ContractEvent(contract=self.ctx.contract_address, name=name, data=dict(data))
        )

    # -- reflection -------------------------------------------------------------

    @classmethod
    def abi(cls) -> Tuple[str, ...]:
        """The callable public methods of the contract."""
        methods = []
        for name in dir(cls):
            if name.startswith("_"):
                continue
            attribute = getattr(cls, name)
            if callable(attribute) and name not in (
                "abi", "require", "require_permission", "emit",
                "storage_view", "storage_snapshot",
            ):
                methods.append(name)
        return tuple(sorted(methods))
