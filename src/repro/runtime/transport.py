"""Transports: how envelopes cross (or don't cross) a process boundary.

A :class:`Transport` is one end of a bidirectional, ordered envelope
stream.  Both ends stamp outgoing envelopes and verify incoming ones with
an :class:`~repro.runtime.envelope.EnvelopeChannel`, so sequence gaps are
protocol errors regardless of the medium underneath:

:class:`LoopbackTransport`
    In-process queues, read on the same thread that writes them: a
    receive finds an envelope already queued or raises at once, whatever
    its ``timeout``.  Envelopes are passed as objects, nothing is
    re-encoded, and fingerprints stay byte-identical to the direct-call
    graph.  With a ``codec`` it additionally round-trips
    every payload through encode/decode, proving a component's traffic fits
    the wire model before it is ever moved out of process.

:class:`MultiprocessTransport`
    A ``socket.socketpair()`` end with length-prefixed frames (4-byte
    big-endian prefix, payload encoded by the wire codec).  Built for
    fork-based workers: the parent keeps one end, the child inherits the
    other.
"""

from __future__ import annotations

import select
import socket
import time
from collections import deque
from typing import Any, Deque, Dict, Optional

from repro.errors import CodecError, FleetProtocolError, ReceiveTimeout
from repro.runtime.codec import WireCodec, get_codec, read_frame, write_frame
from repro.runtime.envelope import Envelope, EnvelopeChannel

__all__ = ["Transport", "LoopbackTransport", "MultiprocessTransport"]


class Transport:
    """One end of an ordered, bidirectional envelope stream."""

    def __init__(self, name: str, codec: "WireCodec | str | None" = None):
        self.name = name
        self.codec: Optional[WireCodec] = None if codec is None else get_codec(codec)
        self._out = EnvelopeChannel(sender=name)
        self._in: Optional[EnvelopeChannel] = None
        self._stats: Dict[str, int] = {
            "sent": 0,
            "received": 0,
            "wire_bytes_out": 0,
            "wire_bytes_in": 0,
        }

    # -- subclass hooks ----------------------------------------------------

    def _transmit(self, envelope: Envelope) -> None:
        raise NotImplementedError

    def _collect(self, timeout: Optional[float]) -> Optional[Envelope]:
        raise NotImplementedError

    # -- public API --------------------------------------------------------

    def send(self, kind: str, payload: Any, sent_at: float = 0.0) -> Envelope:
        """Stamp and transmit one envelope; returns the stamped envelope."""
        envelope = self._out.stamp(kind, payload, sent_at=sent_at)
        self._transmit(envelope)
        self._stats["sent"] += 1
        return envelope

    def receive(self, timeout: Optional[float] = None) -> Optional[Envelope]:
        """Receive the next envelope, verifying sequence discipline.

        Returns ``None`` on clean end-of-stream.  Raises
        :class:`ReceiveTimeout` when nothing arrived — within ``timeout`` on
        a socket; at once on a loopback end, which has nothing to wait for —
        the stream is intact and ``receive`` may be called again — and a plain
        :class:`FleetProtocolError` on a frame that stalls half-read, a torn
        frame or a sequence gap, all of which mean the peer broke protocol.
        """
        envelope = self._collect(timeout)
        if envelope is None:
            return None
        if self._in is None:
            self._in = EnvelopeChannel(sender=envelope.sender)
        self._in.accept(envelope)
        self._stats["received"] += 1
        return envelope

    def request(self, kind: str, payload: Any,
                timeout: Optional[float] = None) -> Envelope:
        """Send one envelope and block for the peer's reply."""
        self.send(kind, payload)
        reply = self.receive(timeout=timeout)
        if reply is None:
            raise FleetProtocolError(
                f"peer of {self.name!r} closed the stream instead of replying "
                f"to {kind!r}"
            )
        return reply

    def statistics(self) -> Dict[str, int]:
        return dict(self._stats)

    def close(self) -> None:  # pragma: no cover - overridden where needed
        pass


class LoopbackTransport(Transport):
    """In-process transport over a pair of queues.

    Without a codec, envelopes cross untouched — object identity of the
    payload is preserved, which is what keeps loopback runs byte-identical
    to the pre-runtime call graph.  With a codec, payloads are round-tripped
    through ``encode``/``decode`` at delivery (the in-process rehearsal of
    going over a real wire).
    """

    def __init__(self, name: str,
                 outbox: Deque[Optional[Envelope]],
                 inbox: Deque[Optional[Envelope]],
                 codec: "WireCodec | str | None" = None):
        super().__init__(name, codec=codec)
        self._outbox = outbox
        self._inbox = inbox

    @classmethod
    def pair(cls, left: str = "left", right: str = "right",
             codec: "WireCodec | str | None" = None
             ) -> "tuple[LoopbackTransport, LoopbackTransport]":
        a_to_b: Deque[Optional[Envelope]] = deque()
        b_to_a: Deque[Optional[Envelope]] = deque()
        return (
            cls(left, outbox=a_to_b, inbox=b_to_a, codec=codec),
            cls(right, outbox=b_to_a, inbox=a_to_b, codec=codec),
        )

    def _transmit(self, envelope: Envelope) -> None:
        if self.codec is not None:
            data = self.codec.encode(envelope.to_dict())
            self._stats["wire_bytes_out"] += len(data)
            envelope = Envelope.from_dict(self.codec.decode(data))
        self._outbox.append(envelope)

    def _collect(self, timeout: Optional[float]) -> Optional[Envelope]:
        if not self._inbox:
            raise ReceiveTimeout(
                f"loopback receive on {self.name!r} timed out: nothing is "
                f"queued and nothing else can send")
        envelope = self._inbox.popleft()
        if envelope is None:
            return None
        if self.codec is not None:
            self._stats["wire_bytes_in"] += len(self.codec.encode(envelope.to_dict()))
        return envelope

    def close(self) -> None:
        # A sentinel reads as end-of-stream at the peer.
        self._outbox.append(None)


class _DeadlineReader:
    """The ``read`` :func:`read_frame` needs, straight off a socket.

    Nothing is buffered, so a timeout strands no bytes; every ``recv`` of one
    frame waits (in ``select``, the socket stays blocking) against the same
    deadline, and ``consumed`` tells a frame that never started from one that
    stalled.
    """

    def __init__(self, sock: socket.socket, timeout: Optional[float]):
        self._sock = sock
        self._deadline = None if timeout is None else time.monotonic() + timeout
        self.consumed = 0

    def read(self, count: int) -> bytes:
        if self._deadline is not None:
            remaining = max(0.0, self._deadline - time.monotonic())
            if not select.select([self._sock], [], [], remaining)[0]:
                raise socket.timeout()
        chunk = self._sock.recv(count)
        self.consumed += len(chunk)
        return chunk


class MultiprocessTransport(Transport):
    """Socket transport with length-prefixed frames.

    Each envelope is ``codec.encode(envelope.to_dict())`` behind a 4-byte
    big-endian length prefix.  The codec defaults to ``canonical-json``;
    the deterministic ``binary`` codec plugs in behind the same API.
    """

    def __init__(self, name: str, sock: socket.socket,
                 codec: "WireCodec | str | None" = None):
        super().__init__(name, codec=codec)
        if self.codec is None:
            self.codec = get_codec(None)
        self._sock = sock
        self._writer = sock.makefile("wb")

    @classmethod
    def pair(cls, left: str = "parent", right: str = "child",
             codec: "WireCodec | str | None" = None
             ) -> "tuple[MultiprocessTransport, MultiprocessTransport]":
        sock_a, sock_b = socket.socketpair()
        return cls(left, sock_a, codec=codec), cls(right, sock_b, codec=codec)

    def _transmit(self, envelope: Envelope) -> None:
        assert self.codec is not None
        payload = self.codec.encode(envelope.to_dict())
        try:
            written = write_frame(self._writer, payload)
            self._writer.flush()
        except (BrokenPipeError, OSError) as exc:
            raise FleetProtocolError(
                f"transport {self.name!r} failed to transmit: {exc}"
            ) from exc
        self._stats["wire_bytes_out"] += written

    def _collect(self, timeout: Optional[float]) -> Optional[Envelope]:
        assert self.codec is not None
        reader = _DeadlineReader(self._sock, timeout)
        try:
            frame = read_frame(reader)
        except socket.timeout:
            if not reader.consumed:
                raise ReceiveTimeout(
                    f"socket receive on {self.name!r} timed out after "
                    f"{timeout}s with no frame pending"
                ) from None
            # The consumed part of the frame is gone: the stream is desynced.
            raise FleetProtocolError(
                f"frame on transport {self.name!r} stalled after "
                f"{reader.consumed} bytes; abandon this transport"
            ) from None
        except CodecError as exc:
            raise FleetProtocolError(
                f"torn frame on transport {self.name!r}: {exc}"
            ) from exc
        except OSError as exc:
            raise FleetProtocolError(
                f"transport {self.name!r} failed to receive: {exc}"
            ) from exc
        if frame is None:
            return None
        self._stats["wire_bytes_in"] += 4 + len(frame)
        try:
            return Envelope.from_dict(self.codec.decode(frame))
        except CodecError as exc:
            raise FleetProtocolError(
                f"undecodable frame on transport {self.name!r}: {exc}"
            ) from exc

    def fileno(self) -> int:
        return self._sock.fileno()

    def close(self) -> None:
        for closer in (self._writer.close, self._sock.close):
            try:
                closer()
            except OSError:  # pragma: no cover - best-effort teardown
                pass
