"""The seeded, logged message transport.

Handlers are registered per peer name; :meth:`SimTransport.send` enqueues a
message and :meth:`SimTransport.flush` delivers pending messages in timestamp
order, applying latency and (optionally) message drops from a seeded RNG.
Every message — delivered or dropped — is kept in the transport log, which
the exposure benchmark audits.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Mapping, Optional, Tuple

from repro.chaos import NULL_INJECTOR, RetryPolicy
from repro.config import NetworkConfig
from repro.errors import UnknownPeerError
from repro.ledger.clock import SimClock
from repro.network.message import Message

#: A handler receives the delivered message.
MessageHandler = Callable[[Message], None]


class SimTransport:
    """Delivers messages between registered peers with simulated latency.

    Chaos hooks (all default-off):

    * a :class:`~repro.chaos.FaultInjector` can drop messages
      (``transport.drop``), add latency (``transport.delay``) and open
      ``peer.crash`` windows during which a peer's *inbound* messages are
      parked in per-recipient FIFO order and replayed — reliably and in
      order, modelling restart catch-up — once the window closes;
    * a :class:`~repro.chaos.RetryPolicy` turns the silent-loss drop path
      into retransmission: a dropped message is re-enqueued as a fresh
      envelope with a deterministic backoff until the policy's attempt
      budget is spent.
    """

    def __init__(self, clock: SimClock, config: NetworkConfig = NetworkConfig()):
        self.clock = clock
        self.config = config
        self._rng = random.Random(config.seed)
        self._handlers: Dict[str, MessageHandler] = {}
        self._queue: Deque[Message] = deque()
        self._log: List[Message] = []
        self._delivered_count = 0
        self._dropped_count = 0
        self.injector = NULL_INJECTOR
        self.retry_policy: Optional[RetryPolicy] = None
        self._retry_rng = random.Random(config.seed + 0x5EED)
        self._parked: Dict[str, List[Message]] = {}
        self._retransmit_count = 0
        self._lost_count = 0
        self._wire_codec = None
        self._wire_messages = 0
        self._wire_bytes = 0

    def configure_chaos(self, injector=None,
                        retry_policy: Optional[RetryPolicy] = None) -> None:
        """Attach a fault injector and/or retransmission policy."""
        if injector is not None:
            self.injector = injector
        if retry_policy is not None:
            self.retry_policy = retry_policy

    def configure_wire_codec(self, codec) -> None:
        """Round-trip every sent payload through a wire codec.

        ``codec`` is a :class:`~repro.runtime.codec.WireCodec` or registry
        name (``None`` disables the seam — the default, which leaves
        delivery byte-identical to the seed).  With a codec attached, each
        body is encoded and decoded once, when it is sent — a broadcast is
        one body, whatever its fan-out — proving the traffic fits the
        codec's wire model: every recipient's handler sees that one decoded
        body, exactly what a remote peer would decode, and must not modify
        it.  The encoded size is counted per *delivery*
        (``wire_messages``/``wire_bytes`` in :attr:`statistics`), as the
        bytes a real wire would carry to each peer.
        """
        if codec is None:
            self._wire_codec = None
            return
        from repro.runtime.codec import get_codec

        self._wire_codec = get_codec(codec)

    # ------------------------------------------------------------- registration

    def register(self, name: str, handler: MessageHandler) -> None:
        """Register (or replace) the handler for peer ``name``."""
        self._handlers[name] = handler

    @property
    def peer_names(self) -> Tuple[str, ...]:
        return tuple(self._handlers)

    # ------------------------------------------------------------------ sending

    def send(self, sender: str, recipient: str, kind: str,
             payload: Optional[Mapping[str, Any]] = None) -> Message:
        """Queue a message for delivery; returns the envelope."""
        if recipient not in self._handlers:
            raise UnknownPeerError(f"unknown recipient {recipient!r}")
        return self._enqueue(sender, recipient, kind, *self._wire_body(payload))

    def broadcast(self, sender: str, kind: str, payload: Optional[Mapping[str, Any]] = None,
                  exclude: Tuple[str, ...] = ()) -> List[Message]:
        """Send the same message to every registered peer except ``sender``/``exclude``.

        Every envelope carries the same body object, which handlers read and
        never modify.
        """
        recipients = [name for name in self._handlers
                      if name != sender and name not in exclude]
        if not recipients:
            return []
        body, wire_bytes = self._wire_body(payload)
        return [self._enqueue(sender, name, kind, body, wire_bytes)
                for name in recipients]

    def _wire_body(self, payload: Optional[Mapping[str, Any]]) -> Tuple[Dict[str, Any], int]:
        """The body the recipients' handlers will see, and its encoded length.

        With a wire codec that is one round trip — the in-process rehearsal
        of a real wire; without, a shallow copy and no length.
        """
        body = dict(payload or {})
        if self._wire_codec is None:
            return body, 0
        data = self._wire_codec.encode(body)
        return self._wire_codec.decode(data), len(data)

    def _enqueue(self, sender: str, recipient: str, kind: str, body: Dict[str, Any],
                 wire_bytes: int, attempt: int = 1) -> Message:
        """The one place an envelope is made, queued and logged."""
        message = Message(
            sender=sender,
            recipient=recipient,
            kind=kind,
            payload=body,
            sent_at=self.clock.now(),
            attempt=attempt,
            wire_bytes=wire_bytes,
        )
        self._queue.append(message)
        self._log.append(message)
        return message

    # ----------------------------------------------------------------- delivery

    def _latency_for(self, message: Message) -> float:
        jitter = self._rng.uniform(0, self.config.latency_jitter)
        return self.config.base_latency + jitter

    def flush(self, advance_clock: bool = True) -> int:
        """Deliver every queued message in order; returns how many were delivered.

        Delivery of one message may enqueue new ones (a handler replying);
        those are delivered too, so a call to ``flush`` runs the network to
        quiescence.  Messages to a peer inside a ``peer.crash`` window are
        parked rather than delivered; they do not count as delivered until a
        later flush finds the window closed and replays them in order.
        """
        delivered = 0
        while True:
            if not self._queue and not self._release_parked():
                break
            while self._queue:
                message = self._queue.popleft()
                if (message.attempt > 0
                        and self.injector.active("peer.crash",
                                                 message.recipient)):
                    # The recipient's replica is offline: park the message
                    # for in-order replay when the crash window closes.
                    self._parked.setdefault(message.recipient, []).append(message)
                    continue
                if message.attempt > 0 and self._should_drop(message):
                    message.dropped = True
                    self._dropped_count += 1
                    self._retransmit(message, advance_clock)
                    continue
                latency = self._latency_for(message)
                if message.attempt > 0:
                    latency += self.injector.delay("transport.delay",
                                                   message.recipient)
                if advance_clock:
                    self.clock.advance(latency)
                message.delivered_at = self.clock.now()
                handler = self._handlers.get(message.recipient)
                if handler is None:
                    raise UnknownPeerError(f"recipient {message.recipient!r} vanished")
                if message.wire_bytes:
                    self._wire_messages += 1
                    self._wire_bytes += message.wire_bytes
                handler(message)
                delivered += 1
                self._delivered_count += 1
        return delivered

    def _should_drop(self, message: Message) -> bool:
        if (self.config.drop_rate > 0
                and self._rng.random() < self.config.drop_rate):
            return True
        return self.injector.should("transport.drop", message.recipient)

    def _retransmit(self, message: Message, advance_clock: bool) -> None:
        """Re-enqueue a dropped message as a fresh attempt (or give up).

        Without a retry policy this is the seed's silent-loss behaviour.
        The backoff advances the sim clock, so retransmission schedules are
        deterministic and visible in delivery timestamps.
        """
        policy = self.retry_policy
        if policy is None or message.attempt >= policy.max_attempts:
            if policy is not None:
                self._lost_count += 1
            return
        backoff = policy.backoff(message.attempt, self._retry_rng)
        if advance_clock:
            self.clock.advance(backoff)
        self._enqueue(message.sender, message.recipient, message.kind,
                      message.payload, message.wire_bytes,
                      attempt=message.attempt + 1)
        self._retransmit_count += 1

    def _release_parked(self) -> bool:
        """Replay parked messages for peers whose crash window has closed.

        Replayed messages are marked ``attempt=0``: restart catch-up is a
        reliable, in-order channel (like ``BlockchainNode.sync_with``), so
        they skip the drop/delay/crash probes — a replayed block that
        dropped behind its successor would be rejected as out of order and
        lost for good.
        """
        released = False
        for recipient in list(self._parked):
            if self.injector.active("peer.crash", recipient):
                continue
            replay = self._parked.pop(recipient)
            for message in replay:
                message.attempt = 0
            self._queue.extendleft(reversed(replay))
            released = bool(replay) or released
        return released

    # --------------------------------------------------------------------- log

    @property
    def log(self) -> Tuple[Message, ...]:
        """Every message ever sent through this transport."""
        return tuple(self._log)

    @property
    def statistics(self) -> Dict[str, Any]:
        stats = {
            "sent": len(self._log),
            "delivered": self._delivered_count,
            "dropped": self._dropped_count,
            "pending": len(self._queue),
            "retransmits": self._retransmit_count,
            "lost": self._lost_count,
            "parked": sum(len(v) for v in self._parked.values()),
        }
        if self._wire_codec is not None:
            # Only surfaced when the seam is on, so seed-era callers that
            # compare the full dict see exactly the keys they always did.
            stats["wire_codec"] = self._wire_codec.name
            stats["wire_messages"] = self._wire_messages
            stats["wire_bytes"] = self._wire_bytes
        return stats

    def messages_seen_by(self, peer: str) -> Tuple[Message, ...]:
        """Messages delivered to ``peer`` (what that peer has been exposed to)."""
        return tuple(m for m in self._log if m.recipient == peer and m.delivered_at is not None)

    def messages_of_kind(self, kind: str) -> Tuple[Message, ...]:
        return tuple(m for m in self._log if m.kind == kind)

    def bytes_transferred(self) -> int:
        """Total payload bytes of delivered messages."""
        return sum(m.size_bytes() for m in self._log if m.delivered_at is not None)
