"""Deterministic Schnorr-style key pairs over a prime-order subgroup.

The simulated blockchain needs account addresses and signatures so that
transaction authenticity can be validated by every node.  We implement a
textbook Schnorr scheme over the multiplicative group modulo a 256-bit prime.
The parameters are small enough to be fast in pure Python yet large enough
that accidental collisions are not a concern in tests or benchmarks.

Every power of the generator — public keys, signing commitments, the left
side of the verification equation — is a walk over one table
(:mod:`repro.crypto.fixed_base`) indexed by the digits of the exponent, secret
ones included: simulation-grade, with no constant-time claim (see
:mod:`repro.crypto.signatures`).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import lru_cache

from repro.crypto.fixed_base import FixedBaseTable

# A deployment would use a standardised 1536-bit (or larger) MODP group; a
# simulation only needs keys that are cheap to use and do not collide.
#: Modulus of the group (a 256-bit prime).
PRIME = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
#: Group generator.
GENERATOR = 5
#: Order bound used for exponents.
ORDER = PRIME - 1
#: Bits an exponent below :data:`ORDER` can have; what every power table covers.
EXPONENT_BITS = PRIME.bit_length()

#: Digit width of the generator's table: 32 rows of 256 entries (~0.5 MiB,
#: ~4 ms to build, once per process), at most 32 multiplications per power.
GENERATOR_WINDOW_BITS = 8


@lru_cache(maxsize=1)
def _generator_table() -> FixedBaseTable:
    """The generator's table, built on first use.  Threads racing to that
    first use may each build it; the tables are equal."""
    return FixedBaseTable(GENERATOR, PRIME, GENERATOR_WINDOW_BITS, EXPONENT_BITS)


def generator_power(exponent: int) -> int:
    """``GENERATOR^exponent mod PRIME``; raises unless ``0 <= exponent < 2^EXPONENT_BITS``."""
    return _generator_table().power(exponent)


@dataclass(frozen=True)
class KeyPair:
    """A private/public key pair.

    Attributes
    ----------
    private_key:
        The secret exponent ``x``.
    public_key:
        ``g^x mod p``.
    """

    private_key: int
    public_key: int

    @property
    def address(self) -> str:
        """The account address derived from the public key."""
        return address_from_public_key(self.public_key)

    def to_dict(self) -> dict:
        """Public representation (the private key is intentionally omitted)."""
        return {"public_key": hex(self.public_key), "address": self.address}


def generate_keypair(seed: int = None, rng: random.Random = None) -> KeyPair:
    """Generate a key pair.

    Parameters
    ----------
    seed:
        Optional deterministic seed.  Two calls with the same seed yield the
        same key pair, which keeps the whole system reproducible.
    rng:
        Optional externally managed random source (takes precedence over
        ``seed``).
    """
    if rng is None:
        rng = random.Random(seed)
    private = rng.randrange(2, ORDER - 1)
    public = generator_power(private)
    return KeyPair(private_key=private, public_key=public)


#: Addresses :func:`address_from_public_key` remembers (one short string each).
ADDRESS_MEMO_SIZE = 4096


@lru_cache(maxsize=ADDRESS_MEMO_SIZE)
def address_from_public_key(public_key: int) -> str:
    """Derive a 40-hex-character address from a public key (keccak-free).

    A pure function of one integer that every signature check and every
    ``KeyPair.address`` asks for again, so the answers are kept.
    """
    digest = hashlib.sha256(hex(public_key).encode("utf-8")).hexdigest()
    return "0x" + digest[-40:]
