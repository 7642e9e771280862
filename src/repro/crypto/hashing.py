"""Canonical hashing of structured payloads.

Blocks, transactions and contract state snapshots are hashed from arbitrary
JSON-serialisable Python structures.  To make the hash deterministic across
runs and processes we serialise with sorted keys and explicit separators.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from typing import Any


def canonical_json(payload: Any) -> str:
    """Serialise ``payload`` to a canonical JSON string.

    Keys are sorted and whitespace removed so the same logical value always
    yields the same byte string (and therefore the same hash).

    >>> canonical_json({"b": 1, "a": 2})
    '{"a":2,"b":1}'
    """
    return _encode(payload)


def _json_default(value: Any) -> Any:
    """Fallback serialiser for values ``json`` cannot encode natively."""
    if isinstance(value, Mapping):
        # Non-dict mappings (e.g. mappingproxy views) serialise as objects.
        return dict(value)
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, bytes):
        return value.hex()
    if hasattr(value, "to_dict"):
        return value.to_dict()
    raise TypeError(f"cannot canonicalise value of type {type(value).__name__}")


#: One encoder for the process: ``json.dumps`` with non-default arguments
#: builds one per call, and every hash, signature and WAL append comes here.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=_json_default).encode


def sha256_hex(data: bytes) -> str:
    """Return the SHA-256 digest of ``data`` as a lowercase hex string."""
    return hashlib.sha256(data).hexdigest()


def hash_payload(payload: Any) -> str:
    """Hash an arbitrary JSON-serialisable payload canonically.

    >>> hash_payload({"a": 1}) == hash_payload({"a": 1})
    True
    >>> hash_payload({"a": 1}) == hash_payload({"a": 2})
    False
    """
    return sha256_hex(canonical_json(payload).encode("utf-8"))


def hash_pair(left: str, right: str) -> str:
    """Hash the concatenation of two hex digests (Merkle tree node)."""
    return sha256_hex((left + right).encode("utf-8"))


def short_hash(payload: Any, length: int = 12) -> str:
    """A truncated hash useful for compact identifiers and display."""
    if length <= 0:
        raise ValueError("length must be positive")
    return hash_payload(payload)[:length]
