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
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from functools import lru_cache
from typing import Any

from repro.crypto.hashing import canonical_json
from repro.crypto.keys import GENERATOR, KeyPair, ORDER, PRIME


@dataclass(frozen=True)
class Signature:
    """A Schnorr signature ``(commitment, response)``."""

    commitment: int
    response: int

    def to_dict(self) -> dict:
        return {"commitment": hex(self.commitment), "response": hex(self.response)}

    @staticmethod
    def from_dict(payload: dict) -> "Signature":
        return Signature(
            commitment=int(payload["commitment"], 16),
            response=int(payload["response"], 16),
        )


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
    commitment = pow(GENERATOR, nonce, PRIME)
    challenge = _challenge(commitment, keypair.public_key, message)
    response = (nonce + challenge * keypair.private_key) % ORDER
    return Signature(commitment=commitment, response=response)


#: Entries the verification memo keeps (four 256-bit integers each).
VERIFY_MEMO_SIZE = 4096


@lru_cache(maxsize=VERIFY_MEMO_SIZE, typed=True)
def _equation_holds(public_key: int, challenge: int, commitment: int, response: int) -> bool:
    """The Schnorr check ``g^s == R * y^c (mod p)``.

    A pure function of its four integers, so the bounded memo is exact: the
    challenge is recomputed from the message on every :func:`verify`, and a
    changed key, payload, commitment or response is a different memo key.
    """
    left = pow(GENERATOR, response, PRIME)
    right = (commitment * pow(public_key, challenge, PRIME)) % PRIME
    return left == right


def verify(public_key: int, payload: Any, signature: Signature) -> bool:
    """Verify ``signature`` over ``payload`` for ``public_key``."""
    message = canonical_json(payload).encode("utf-8")
    challenge = _challenge(signature.commitment, public_key, message)
    return _equation_holds(public_key, challenge, signature.commitment, signature.response)
