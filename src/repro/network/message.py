"""Message envelopes exchanged over the simulated network."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

_MESSAGE_COUNTER = itertools.count(1)


@dataclass
class Message:
    """One point-to-point message.

    Attributes
    ----------
    sender / recipient:
        Logical peer names (e.g. ``"doctor"``) or node addresses.
    kind:
        Message type, e.g. ``"tx"``, ``"block"``, ``"data_request"``,
        ``"data_response"``, ``"notification"``.
    payload:
        Arbitrary JSON-serialisable content.
    sent_at / delivered_at:
        Simulated timestamps filled by the transport.
    dropped:
        True when the transport decided to drop the message.
    attempt:
        Delivery attempt number; a retransmission of a dropped message is a
        fresh envelope with ``attempt`` bumped.
    wire_bytes:
        Encoded length of the payload when the transport has a wire codec
        attached (0 without one); counted once per delivery.
    """

    sender: str
    recipient: str
    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)
    sent_at: float = 0.0
    delivered_at: Optional[float] = None
    dropped: bool = False
    attempt: int = 1
    message_id: int = field(default_factory=lambda: next(_MESSAGE_COUNTER))
    wire_bytes: int = 0

    @property
    def latency(self) -> Optional[float]:
        """Delivery latency in simulated seconds (None if not delivered)."""
        if self.delivered_at is None:
            return None
        return self.delivered_at - self.sent_at

    def size_bytes(self) -> int:
        """Approximate serialised size of the payload."""
        from repro.crypto.hashing import canonical_json

        return len(canonical_json(self.payload).encode("utf-8"))

    def to_dict(self) -> dict:
        return {
            "message_id": self.message_id,
            "sender": self.sender,
            "recipient": self.recipient,
            "kind": self.kind,
            "payload": dict(self.payload),
            "sent_at": self.sent_at,
            "delivered_at": self.delivered_at,
            "dropped": self.dropped,
            "attempt": self.attempt,
        }
