"""Event logs.

Contracts emit events ("the smart contract notifies sharing peers of the
modification", Fig. 4 step 4); nodes index them so peers can subscribe to the
events that concern their shared tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple


@dataclass(frozen=True)
class LogEntry:
    """One emitted event."""

    contract: str
    name: str
    data: Mapping[str, Any]
    block_number: int
    tx_hash: str

    def to_dict(self) -> dict:
        return {
            "contract": self.contract,
            "name": self.name,
            "data": dict(self.data),
            "block_number": self.block_number,
            "tx_hash": self.tx_hash,
        }


class EventLog:
    """An append-only store of events with simple filtering and subscriptions."""

    def __init__(self) -> None:
        self._entries: List[LogEntry] = []
        self._subscribers: List[Tuple[Optional[str], Optional[str], Callable[[LogEntry], None]]] = []

    def append(self, entry: LogEntry) -> None:
        """Record an event and deliver it to matching subscribers."""
        self._entries.append(entry)
        for contract, name, callback in self._subscribers:
            if contract is not None and entry.contract != contract:
                continue
            if name is not None and entry.name != name:
                continue
            callback(entry)

    def extend(self, entries: Iterable[LogEntry]) -> None:
        for entry in entries:
            self.append(entry)

    def subscribe(self, callback: Callable[[LogEntry], None],
                  contract: Optional[str] = None, name: Optional[str] = None) -> None:
        """Register a callback for events, optionally filtered by contract/name."""
        self._subscribers.append((contract, name, callback))

    def all(self) -> Tuple[LogEntry, ...]:
        return tuple(self._entries)

    def filter(self, contract: Optional[str] = None, name: Optional[str] = None,
               since_block: Optional[int] = None) -> Tuple[LogEntry, ...]:
        """Events matching all provided filters."""
        result = []
        for entry in self._entries:
            if contract is not None and entry.contract != contract:
                continue
            if name is not None and entry.name != name:
                continue
            if since_block is not None and entry.block_number < since_block:
                continue
            result.append(entry)
        return tuple(result)

    def slice(self, start: int, stop: int) -> Tuple[LogEntry, ...]:
        """The entries at positions ``start`` to ``stop - 1``."""
        return tuple(self._entries[start:stop])

    def __len__(self) -> int:
        return len(self._entries)
