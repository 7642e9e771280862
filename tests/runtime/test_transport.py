"""Transport behaviour shared by both placements: ordering, framing, stats."""

from __future__ import annotations

import threading

import pytest

from repro.errors import FleetProtocolError, ReceiveTimeout
from repro.runtime import LoopbackTransport, MultiprocessTransport


class TestLoopbackTransport:
    def test_bidirectional_round_trip(self):
        left, right = LoopbackTransport.pair("left", "right")
        left.send("ping", {"n": 1}, sent_at=2.5)
        got = right.receive(timeout=5)
        assert (got.kind, got.payload, got.sender, got.sent_at) == \
            ("ping", {"n": 1}, "left", 2.5)
        right.send("pong", {"n": 2})
        assert left.receive(timeout=5).payload == {"n": 2}

    def test_without_codec_payload_object_passes_untouched(self):
        left, right = LoopbackTransport.pair()
        payload = {"shared": [1, 2, 3]}
        left.send("obj", payload)
        assert right.receive(timeout=5).payload is payload

    def test_with_codec_payload_is_rewritten_and_counted(self):
        left, right = LoopbackTransport.pair(codec="binary")
        payload = {"key": (1, 2)}  # tuple only exists pre-wire
        left.send("obj", payload)
        got = right.receive(timeout=5)
        assert got.payload == {"key": [1, 2]}
        assert left.statistics()["wire_bytes_out"] > 0
        assert right.statistics()["wire_bytes_in"] > 0

    def test_close_reads_as_clean_eof(self):
        left, right = LoopbackTransport.pair()
        left.close()
        assert right.receive(timeout=5) is None

    def test_receive_timeout_is_protocol_error(self):
        left, _right = LoopbackTransport.pair()
        with pytest.raises(FleetProtocolError, match="timed out"):
            left.receive(timeout=0.01)

    def test_statistics_count_both_directions(self):
        left, right = LoopbackTransport.pair()
        for n in range(3):
            left.send("ping", n)
            right.receive(timeout=5)
        right.send("pong", None)
        left.receive(timeout=5)
        assert left.statistics() == {"sent": 3, "received": 1,
                                     "wire_bytes_out": 0, "wire_bytes_in": 0}
        assert right.statistics()["received"] == 3


class TestMultiprocessTransport:
    """Both socketpair ends in one process — framing without forking."""

    @pytest.mark.parametrize("codec", ["canonical-json", "binary"])
    def test_framed_round_trip(self, codec):
        left, right = MultiprocessTransport.pair(codec=codec)
        try:
            left.send("worker.run", {"tenants": 4, "seed": 23})
            got = right.receive(timeout=5)
            assert got.kind == "worker.run"
            assert got.payload == {"tenants": 4, "seed": 23}
            right.send("worker.result", {"ok": True})
            assert left.receive(timeout=5).payload == {"ok": True}
            assert left.statistics()["wire_bytes_out"] > 4
            assert left.statistics()["wire_bytes_in"] > 4
        finally:
            left.close()
            right.close()

    def test_request_reply(self):
        left, right = MultiprocessTransport.pair()
        try:
            def serve():
                envelope = right.receive(timeout=5)
                right.send("echo.reply", envelope.payload)

            server = threading.Thread(target=serve, daemon=True)
            server.start()
            reply = left.request("echo", {"v": 9}, timeout=5)
            assert reply.kind == "echo.reply"
            assert reply.payload == {"v": 9}
            server.join(timeout=5)
        finally:
            left.close()
            right.close()

    def test_peer_close_reads_as_eof(self):
        left, right = MultiprocessTransport.pair()
        right.close()
        assert left.receive(timeout=5) is None
        left.close()

    def test_timeout_is_protocol_error(self):
        left, right = MultiprocessTransport.pair()
        try:
            with pytest.raises(FleetProtocolError, match="timed out"):
                left.receive(timeout=0.05)
        finally:
            left.close()
            right.close()

    @pytest.mark.parametrize("codec", ["canonical-json", "binary"])
    def test_idle_timeout_leaves_the_stream_usable(self, codec):
        left, right = MultiprocessTransport.pair(codec=codec)
        try:
            with pytest.raises(ReceiveTimeout, match="no frame pending"):
                left.receive(timeout=0.05)
            right.send("late", {"rows": [1, 2, 3], "pad": "x" * 50_000})
            got = left.receive(timeout=5)
            assert (got.kind, got.sequence) == ("late", 0)
            assert got.payload == {"rows": [1, 2, 3], "pad": "x" * 50_000}
            left.send("ack", None)  # a past receive deadline does not bound sends
            assert right.receive(timeout=5).kind == "ack"
        finally:
            left.close()
            right.close()

    @pytest.mark.parametrize("written", [2, 4, 9])
    def test_frame_that_stalls_half_written_is_fatal(self, written):
        left, right = MultiprocessTransport.pair()
        try:
            frame = (64).to_bytes(4, "big") + b"{" * 64
            right._sock.sendall(frame[:written])
            with pytest.raises(FleetProtocolError, match="stalled") as raised:
                left.receive(timeout=0.05)
            assert not isinstance(raised.value, ReceiveTimeout)
        finally:
            left.close()
            right.close()

    def test_send_after_peer_gone_is_protocol_error(self):
        left, right = MultiprocessTransport.pair()
        right.close()
        with pytest.raises(FleetProtocolError, match="transmit"):
            for _ in range(64):  # socket buffers may absorb the first sends
                left.send("ping", {"pad": "x" * 4096})
        left.close()
