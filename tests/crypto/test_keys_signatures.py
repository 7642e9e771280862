"""Tests for key pairs and Schnorr signatures."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import keys, signatures
from repro.crypto.keys import (
    ORDER, PRIME, KeyPair, address_from_public_key, generate_keypair)
from repro.crypto.signatures import Signature, sign, verify


class TestKeyPairs:
    def test_deterministic_from_seed(self):
        assert generate_keypair(seed=7) == generate_keypair(seed=7)

    def test_different_seeds_differ(self):
        assert generate_keypair(seed=1) != generate_keypair(seed=2)

    def test_address_format(self):
        keypair = generate_keypair(seed=3)
        assert keypair.address.startswith("0x")
        assert len(keypair.address) == 42

    def test_address_depends_on_public_key(self):
        a = generate_keypair(seed=4)
        b = generate_keypair(seed=5)
        assert a.address != b.address
        assert a.address == address_from_public_key(a.public_key)

    def test_address_memo_is_bounded_and_exact(self):
        assert address_from_public_key.cache_info().maxsize == keys.ADDRESS_MEMO_SIZE
        key = generate_keypair(seed=8).public_key
        first = address_from_public_key(key)
        address_from_public_key.cache_clear()
        assert address_from_public_key(key) == first == address_from_public_key(key)
        assert address_from_public_key.cache_info().hits == 1
        assert address_from_public_key(key + 1) != first

    def test_to_dict_excludes_private_key(self):
        payload = generate_keypair(seed=6).to_dict()
        assert "private_key" not in payload
        assert set(payload) == {"public_key", "address"}


class TestSignatures:
    def test_sign_and_verify(self):
        keypair = generate_keypair(seed=11)
        payload = {"action": "update", "table": "D23"}
        signature = sign(keypair, payload)
        assert verify(keypair.public_key, payload, signature)

    def test_signature_rejects_modified_payload(self):
        keypair = generate_keypair(seed=12)
        signature = sign(keypair, {"amount": 1})
        assert not verify(keypair.public_key, {"amount": 2}, signature)

    def test_signature_rejects_wrong_key(self):
        alice = generate_keypair(seed=13)
        mallory = generate_keypair(seed=14)
        signature = sign(alice, {"x": 1})
        assert not verify(mallory.public_key, {"x": 1}, signature)

    def test_signing_is_deterministic(self):
        keypair = generate_keypair(seed=15)
        assert sign(keypair, {"x": 1}) == sign(keypair, {"x": 1})

    def test_signature_round_trips_through_dict(self):
        keypair = generate_keypair(seed=16)
        signature = sign(keypair, {"x": 1})
        restored = Signature.from_dict(signature.to_dict())
        assert restored == signature
        assert verify(keypair.public_key, {"x": 1}, restored)

    def test_only_the_canonical_response_verifies(self):
        """``g^s`` has period ``ORDER``: ``s + k*ORDER`` used to verify too, each
        a new spelling (and a new ``tx_hash``) of one signature."""
        keypair = generate_keypair(seed=17)
        payload = {"x": 1}
        good = sign(keypair, payload)
        assert 0 < good.commitment < PRIME and 0 <= good.response < ORDER
        assert verify(keypair.public_key, payload, good)
        for response in (good.response + ORDER, good.response - ORDER,
                         good.response + 2 * ORDER, -good.response):
            assert not verify(keypair.public_key, payload, Signature(good.commitment, response))

    def test_out_of_range_operands_do_not_verify(self):
        keypair = generate_keypair(seed=18)
        payload = {"x": 1}
        good = sign(keypair, payload)
        for commitment in (good.commitment + PRIME, good.commitment - PRIME, 0, PRIME, -1):
            assert not verify(keypair.public_key, payload, Signature(commitment, good.response))
        for public_key in (keypair.public_key + PRIME, keypair.public_key - PRIME, 0, PRIME, -1):
            assert not verify(public_key, payload, good)
        # g^0 == 1 * y^c for y = 1: in range, so it is computed, and it holds.
        assert verify(1, payload, Signature(1, 0))
        assert not verify(1, payload, Signature(1, ORDER))

    def test_out_of_range_operands_reach_neither_memo_nor_arithmetic(self):
        keypair = generate_keypair(seed=19)
        good = sign(keypair, {"x": 1})
        memo, tables = signatures._equation_holds.cache_info(), signatures._key_table.cache_info()
        assert not verify(keypair.public_key, {"x": 1}, Signature(good.commitment, good.response + ORDER))
        assert not verify(keypair.public_key + PRIME, {"x": 1}, good)
        assert signatures._equation_holds.cache_info() == memo
        assert signatures._key_table.cache_info() == tables

    @pytest.mark.parametrize("field", ["commitment", "response"])
    def test_from_dict_rejects_negative_values(self, field):
        wire = sign(generate_keypair(seed=20), {"x": 1}).to_dict()
        assert Signature.from_dict(dict(wire)).to_dict() == wire
        with pytest.raises(ValueError, match="non-negative"):
            Signature.from_dict({**wire, field: "-0x5"})
        with pytest.raises(ValueError, match="non-negative"):
            Signature.from_dict({**wire, field: "-" + wire[field]})

    @given(st.integers(min_value=1, max_value=10_000),
           st.dictionaries(st.text(min_size=1, max_size=5),
                           st.integers(min_value=-1000, max_value=1000),
                           max_size=5))
    @settings(max_examples=20, deadline=None)
    def test_property_sign_verify_roundtrip(self, seed, payload):
        keypair = generate_keypair(seed=seed)
        assert verify(keypair.public_key, payload, sign(keypair, payload))
