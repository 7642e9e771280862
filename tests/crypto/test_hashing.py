"""Tests for canonical hashing."""

import json
import types

import pytest

from repro.crypto import hashing
from repro.crypto.hashing import canonical_json, hash_pair, hash_payload, sha256_hex, short_hash
from repro.crypto.signatures import Signature
from repro.ledger.transaction import FrozenDict


class TestCanonicalJson:
    def test_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_no_whitespace(self):
        assert " " not in canonical_json({"a": [1, 2, 3], "b": {"c": 4}})

    def test_sets_are_sorted(self):
        assert canonical_json({"s": {3, 1, 2}}) == '{"s":[1,2,3]}'

    def test_bytes_become_hex(self):
        assert canonical_json({"b": b"\x01\x02"}) == '{"b":"0102"}'

    def test_objects_with_to_dict(self):
        class Thing:
            def to_dict(self):
                return {"x": 1}

        assert canonical_json({"t": Thing()}) == '{"t":{"x":1}}'

    def test_unserialisable_raises(self):
        with pytest.raises(TypeError):
            canonical_json({"f": object()})

    @pytest.mark.parametrize("payload", [
        {"b": {"z": [1, {"y": None, "x": True}], "a": {}}, "a": [[], [[]]]},
        FrozenDict(args=FrozenDict(columns=("patient_id", "dosage"), where=None), nonce=3),
        {"tuple": (1, (2, 3)), "set": {3, 1, 2}, "frozen": frozenset({"b", "a"})},
        {"bytes": b"\x00\xff", "proxy": types.MappingProxyType({"k": b"\x01"})},
        {"signature": Signature(commitment=11, response=12), "list": [Signature(1, 2)]},
        {"text": "Ibuprofén 200 mg — 痛み止め \u2028 \"quoted\" \\ \n", "ключ": "значение"},
        {"floats": [0.1, 1e-7, 1e22, 5.0, -0.0, 14.073028155986584, float("inf")], "int": 2 ** 256},
        [], "plain", 7, None,
    ])
    def test_the_shared_encoder_is_byte_identical_to_json_dumps(self, payload):
        """``canonical_json`` binds one ``JSONEncoder`` for the process; every
        hash, signature and WAL record depends on it spelling exactly what
        ``json.dumps`` with the same arguments spelt."""
        expected = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                              default=hashing._json_default)
        assert canonical_json(payload) == expected
        assert canonical_json(payload) == expected  # and the encoder keeps no state


class TestHashPayload:
    def test_deterministic(self):
        assert hash_payload({"a": 1}) == hash_payload({"a": 1})

    def test_key_order_irrelevant(self):
        assert hash_payload({"a": 1, "b": 2}) == hash_payload({"b": 2, "a": 1})

    def test_different_values_differ(self):
        assert hash_payload({"a": 1}) != hash_payload({"a": 2})

    def test_is_hex_sha256(self):
        digest = hash_payload([1, 2, 3])
        assert len(digest) == 64
        int(digest, 16)  # must parse as hex

    def test_nested_structures(self):
        payload = {"rows": [{"k": i, "v": [i, i + 1]} for i in range(5)]}
        assert hash_payload(payload) == hash_payload(payload)


class TestHelpers:
    def test_sha256_hex_known_value(self):
        assert sha256_hex(b"") == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_hash_pair_not_commutative(self):
        assert hash_pair("ab", "cd") != hash_pair("cd", "ab")

    def test_short_hash_length(self):
        assert len(short_hash({"a": 1}, length=8)) == 8

    def test_short_hash_invalid_length(self):
        with pytest.raises(ValueError):
            short_hash({"a": 1}, length=0)
