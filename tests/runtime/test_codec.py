"""Wire codec properties: round-trip fidelity, determinism, framing."""

from __future__ import annotations

import io
import json
import random

import pytest

from repro.crypto.hashing import canonical_json
from repro.errors import CodecError
from repro.runtime import (
    BinaryCodec,
    CanonicalJsonCodec,
    available_codecs,
    get_codec,
    read_frame,
    write_frame,
)
from repro.runtime.codec import MAX_FRAME_BYTES

SEEDS = range(8)


def random_value(rng: random.Random, depth: int = 0):
    """A random value from the codecs' shared wire model."""
    leaf_kinds = ("none", "bool", "int", "bigint", "float", "str", "bytes")
    kinds = leaf_kinds if depth >= 4 else leaf_kinds + ("list", "dict")
    kind = rng.choice(kinds)
    if kind == "none":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "int":
        return rng.randint(-1000, 1000)
    if kind == "bigint":
        return rng.randint(-(2 ** 200), 2 ** 200)
    if kind == "float":
        return rng.choice([0.0, -1.5, 3.14159, 1e300, -1e-300, float(rng.randint(0, 10 ** 6))])
    if kind == "str":
        return "".join(rng.choice("abßπ🜚xyz0127-_ ") for _ in range(rng.randint(0, 40)))
    if kind == "bytes":
        return rng.randbytes(rng.randint(0, 64))
    if kind == "list":
        return [random_value(rng, depth + 1) for _ in range(rng.randint(0, 6))]
    return {f"k{index}-{rng.randint(0, 99)}": random_value(rng, depth + 1)
            for index in range(rng.randint(0, 6))}


def strip_bytes(value):
    """Drop bytes leaves (canonical JSON maps them to hex, one-way)."""
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, list):
        return [strip_bytes(item) for item in value]
    if isinstance(value, dict):
        return {key: strip_bytes(item) for key, item in value.items()}
    return value


class TestBinaryRoundTrip:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_values_round_trip(self, seed):
        codec = BinaryCodec()
        rng = random.Random(seed)
        for _ in range(200):
            value = random_value(rng)
            blob = codec.encode(value)
            decoded = codec.decode(blob)
            assert decoded == value
            # bool identity survives (never conflated with 0/1)
            assert json.dumps(strip_bytes(decoded), sort_keys=True) == \
                json.dumps(strip_bytes(value), sort_keys=True)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_equal_values_encode_identically(self, seed):
        """No identity-dependence: rebuilding the same value (fresh objects,
        different dict insertion order) yields the same bytes."""
        codec = BinaryCodec()
        rng = random.Random(seed)
        value = {f"key-{i}": random_value(rng, depth=3) for i in range(8)}
        rebuilt = json.loads(json.dumps(strip_bytes(value), sort_keys=True))
        reordered = dict(reversed(list(rebuilt.items())))
        assert codec.encode(rebuilt) == codec.encode(reordered)

    def test_scalar_edge_cases(self):
        codec = BinaryCodec()
        for value in (0, 127, 128, -1, -128, 255, 256, 2 ** 2048, -(2 ** 2048),
                      True, False, None, "", "x" * 255, "x" * 256, b"", b"\x00" * 300,
                      [], {}, [[]], {"": None}, 0.0, -0.0, float("inf")):
            assert codec.decode(codec.encode(value)) == value

    def test_bool_tags_distinct_from_ints(self):
        codec = BinaryCodec()
        assert codec.encode(True) != codec.encode(1)
        assert codec.encode(False) != codec.encode(0)
        assert codec.decode(codec.encode(True)) is True
        assert codec.decode(codec.encode(0)) == 0
        assert not isinstance(codec.decode(codec.encode(0)), bool)

    def test_tuples_and_mappings_normalise(self):
        codec = BinaryCodec()
        assert codec.decode(codec.encode((1, 2, 3))) == [1, 2, 3]

    def test_trailing_bytes_rejected(self):
        codec = BinaryCodec()
        with pytest.raises(CodecError, match="trailing"):
            codec.decode(codec.encode(1) + b"\x00")

    def test_truncated_rejected(self):
        codec = BinaryCodec()
        blob = codec.encode({"key": ["deep", {"nested": 12345}]})
        for cut in range(len(blob)):
            with pytest.raises(CodecError):
                codec.decode(blob[:cut])

    def test_unknown_tag_rejected(self):
        with pytest.raises(CodecError, match="unknown tag"):
            BinaryCodec().decode(b"\x7f")

    def test_unencodable_type_rejected(self):
        with pytest.raises(CodecError, match="cannot encode"):
            BinaryCodec().encode(object())

    def test_non_string_dict_key_rejected(self):
        with pytest.raises(CodecError):
            BinaryCodec().encode({1: "x"})


class TestCanonicalJsonCodec:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_hashing_layer_bytes(self, seed):
        """The default codec must be byte-compatible with canonical_json —
        that is the whole point of it being the default."""
        codec = CanonicalJsonCodec()
        rng = random.Random(seed)
        for _ in range(50):
            value = strip_bytes(random_value(rng))
            assert codec.encode(value) == canonical_json(value).encode("utf-8")
            assert codec.decode(codec.encode(value)) == value

    def test_decode_garbage_raises(self):
        with pytest.raises(CodecError):
            CanonicalJsonCodec().decode(b"\xff\xfe not json")


class TestRegistry:
    def test_available_codecs(self):
        assert set(available_codecs()) == {"canonical-json", "binary"}

    def test_get_codec_resolution(self):
        assert isinstance(get_codec(None), CanonicalJsonCodec)
        assert isinstance(get_codec("binary"), BinaryCodec)
        instance = BinaryCodec()
        assert get_codec(instance) is instance

    def test_unknown_codec(self):
        with pytest.raises(CodecError, match="unknown wire codec"):
            get_codec("msgpack")


class TestFraming:
    def test_round_trip_stream(self):
        stream = io.BytesIO()
        payloads = [b"", b"a", b"x" * 1000]
        for payload in payloads:
            written = write_frame(stream, payload)
            assert written == 4 + len(payload)
        stream.seek(0)
        assert [read_frame(stream) for _ in payloads] == payloads
        assert read_frame(stream) is None  # clean EOF

    def test_torn_header(self):
        stream = io.BytesIO(b"\x00\x00")
        with pytest.raises(CodecError, match="torn frame header"):
            read_frame(stream)

    def test_torn_payload(self):
        stream = io.BytesIO()
        write_frame(stream, b"full payload")
        torn = io.BytesIO(stream.getvalue()[:-3])
        with pytest.raises(CodecError, match="torn frame payload"):
            read_frame(torn)

    def test_oversized_frame_rejected_both_ways(self):
        stream = io.BytesIO()
        with pytest.raises(CodecError, match="exceeds limit"):
            write_frame(stream, b"\x00" * (MAX_FRAME_BYTES + 1))
        bogus = io.BytesIO((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
        with pytest.raises(CodecError, match="exceeds limit"):
            read_frame(bogus)
