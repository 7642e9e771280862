"""Schnorr signatures over canonicalised payloads.

Used by the ledger to authenticate transactions: every node verifies the
signature of each transaction at mempool admission and again before accepting
a block, mirroring how a real Ethereum-style chain validates sender
authenticity.  Asking is per node; the arithmetic is per process: the replicas
simulated in one process hold one frozen instance of a transaction
(``Transaction.from_dict``), which remembers its verdict, and the modular
exponentiations are memoised (:func:`_equation_holds`) for the checks no
instance remembers — the origin's own copy, and fold attestations, which every
replica verifies inside contract execution.

The exponentiations themselves are fixed-base table walks
(:mod:`repro.crypto.fixed_base`): ``g^k`` and ``g^s`` over the generator's
table, ``y^c`` over a table per public key.  This is simulation-grade Schnorr:
the lookups are indexed by the digits of the exponent — for ``g^k`` a secret
nonce — and nothing here claims to run in constant time.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from functools import lru_cache
from typing import Any

from repro.crypto.fixed_base import FixedBaseTable
from repro.crypto.hashing import canonical_json
from repro.crypto.keys import EXPONENT_BITS, KeyPair, ORDER, PRIME, generator_power


@dataclass(frozen=True)
class Signature:
    """A Schnorr signature ``(commitment, response)``."""

    commitment: int
    response: int

    def to_dict(self) -> dict:
        return {"commitment": hex(self.commitment), "response": hex(self.response)}

    @staticmethod
    def from_dict(payload: dict) -> "Signature":
        """Parse the wire form; raises ``ValueError`` on a negative value
        (``int`` would read ``"-0x5"``, one more spelling of a signature)."""
        commitment = int(payload["commitment"], 16)
        response = int(payload["response"], 16)
        if commitment < 0 or response < 0:
            raise ValueError("signature values must be non-negative")
        return Signature(commitment=commitment, response=response)


def _challenge(commitment: int, public_key: int, message: bytes) -> int:
    """Fiat–Shamir challenge binding the commitment, key and message."""
    material = f"{commitment:x}|{public_key:x}|".encode("utf-8") + message
    return int(hashlib.sha256(material).hexdigest(), 16) % ORDER


def _deterministic_nonce(private_key: int, message: bytes) -> int:
    """RFC-6979-style deterministic nonce so signing never needs fresh entropy."""
    key = private_key.to_bytes((private_key.bit_length() + 7) // 8 or 1, "big")
    digest = hmac.new(key, message, hashlib.sha256).digest()
    nonce = int.from_bytes(digest, "big") % (ORDER - 2)
    return nonce + 1


def sign(keypair: KeyPair, payload: Any) -> Signature:
    """Sign a JSON-serialisable payload with ``keypair``."""
    message = canonical_json(payload).encode("utf-8")
    nonce = _deterministic_nonce(keypair.private_key, message)
    commitment = generator_power(nonce)
    challenge = _challenge(commitment, keypair.public_key, message)
    response = (nonce + challenge * keypair.private_key) % ORDER
    return Signature(commitment=commitment, response=response)


#: Entries the verification memo keeps (four 256-bit integers each).
VERIFY_MEMO_SIZE = 4096
#: Digit width of a public key's table: 64 rows of 16 entries (~70 KiB, ~0.5 ms
#: to build), at most 64 multiplications per power.  Narrower than the
#: generator's because a key's table is paid for by that key's checks alone:
#: against ``pow`` it breaks even at the sixth.
KEY_WINDOW_BITS = 4
#: Public keys whose tables are kept; a run has about as many keys as peers.
KEY_TABLE_CACHE_SIZE = 64


@lru_cache(maxsize=KEY_TABLE_CACHE_SIZE)
def _key_table(public_key: int) -> FixedBaseTable:
    """The table of ``public_key``'s powers; raises unless ``0 < public_key < PRIME``."""
    return FixedBaseTable(public_key, PRIME, KEY_WINDOW_BITS, EXPONENT_BITS)


@lru_cache(maxsize=VERIFY_MEMO_SIZE, typed=True)
def _equation_holds(public_key: int, challenge: int, commitment: int, response: int) -> bool:
    """The Schnorr check ``g^s == R * y^c (mod p)``.

    A pure function of its four integers, so the bounded memo is exact: the
    challenge is recomputed from the message on every :func:`verify`, and a
    changed key, payload, commitment or response is a different memo key.
    """
    left = generator_power(response)
    right = (commitment * _key_table(public_key).power(challenge)) % PRIME
    return left == right


def verify(public_key: int, payload: Any, signature: Signature) -> bool:
    """Verify ``signature`` over ``payload`` for ``public_key``.

    Only the canonical form of a signature verifies: ``g^s`` has period
    ``ORDER``, so without the range check ``(R, s + ORDER)`` would be a second
    valid spelling — with its own transaction hash — of every signature.
    """
    if not (0 < public_key < PRIME and 0 < signature.commitment < PRIME
            and 0 <= signature.response < ORDER):
        return False
    message = canonical_json(payload).encode("utf-8")
    challenge = _challenge(signature.commitment, public_key, message)
    return _equation_holds(public_key, challenge, signature.commitment, signature.response)
