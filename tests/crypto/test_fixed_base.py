"""Fixed-base tables compute what ``pow`` computes, and signatures did not move.

``pow`` survives here as the reference: no code under ``src/`` calls it for a
group power any more.
"""

import random
import sys
import threading

import pytest

from repro.crypto import keys, signatures
from repro.crypto.fixed_base import FixedBaseTable
from repro.crypto.keys import (
    EXPONENT_BITS, GENERATOR, ORDER, PRIME, generate_keypair, generator_power)
from repro.crypto.signatures import Signature, sign, verify

#: Exponents whose digit strings have holes: the walk skips zero digits.
EDGE_EXPONENTS = [
    0, 1, 2, 15, 16, 255, 256, ORDER - 1, ORDER, 2 ** EXPONENT_BITS - 1,
    1 << 255,                      # one non-zero digit, in the last row
    0xFF << 128,                   # one non-zero byte in the middle
    int("f0" * 32, 16),            # every low nibble zero
    int("0f" * 32, 16),            # every high nibble zero
    int("00ff" * 16, 16),          # every other byte zero
    int("a000000b" * 8, 16),
]


def exponents(rng, count=40):
    return EDGE_EXPONENTS + [rng.getrandbits(EXPONENT_BITS) for _ in range(count)]


class TestTablePowerEqualsPow:
    @pytest.mark.parametrize("window_bits", [1, 2, 4, 8])
    def test_every_window_width_against_pow(self, window_bits):
        rng = random.Random(2100 + window_bits)
        bases = [GENERATOR, 1, PRIME - 1] + [generate_keypair(rng=rng).public_key for _ in range(3)]
        for base in bases:
            table = FixedBaseTable(base, PRIME, window_bits, EXPONENT_BITS)
            for exponent in exponents(rng):
                assert table.power(exponent) == pow(base, exponent, PRIME), (base, exponent)

    def test_the_two_tables_the_scheme_uses(self):
        rng = random.Random(21)
        key = generate_keypair(rng=rng).public_key
        for exponent in exponents(rng, count=200):
            assert generator_power(exponent) == pow(GENERATOR, exponent, PRIME)
            assert signatures._key_table(key).power(exponent) == pow(key, exponent, PRIME)

    def test_generated_keys_are_generator_powers(self):
        for seed in range(20):
            keypair = generate_keypair(seed=seed)
            assert keypair.public_key == pow(GENERATOR, keypair.private_key, PRIME)

    def test_a_small_group_exhaustively(self):
        table = FixedBaseTable(3, 257, 4, 16)
        assert [table.power(e) for e in range(1 << 16)] == [pow(3, e, 257) for e in range(1 << 16)]


class TestOutOfRangeOperandsRaise:
    @pytest.mark.parametrize("exponent", [-1, -ORDER, 2 ** EXPONENT_BITS, 2 ** EXPONENT_BITS + 5])
    def test_exponents(self, exponent):
        with pytest.raises(ValueError):
            generator_power(exponent)
        with pytest.raises(ValueError):
            signatures._key_table(generate_keypair(seed=1).public_key).power(exponent)

    @pytest.mark.parametrize("base", [0, -5, PRIME, PRIME + 5])
    def test_bases(self, base):
        with pytest.raises(ValueError):
            signatures._key_table(base)
        assert signatures._key_table.cache_info().currsize <= signatures.KEY_TABLE_CACHE_SIZE

    @pytest.mark.parametrize("window_bits, exponent_bits", [(0, 256), (3, 256), (16, 256), (8, 0), (8, 12)])
    def test_table_shapes(self, window_bits, exponent_bits):
        with pytest.raises(ValueError):
            FixedBaseTable(GENERATOR, PRIME, window_bits, exponent_bits)


#: ``(seed, payload, public key, commitment, response)`` as the square-and-
#: multiply implementation (the parent of the commit that added the tables)
#: produced them: signatures are bit-identical by construction, and every
#: pinned transaction and block hash in the suite depends on that.
GOLDEN_SIGNATURES = [
    (1, {"action": "update", "table": "D23"},
     "0xda3a74f8c1e0eb9a6cc8b7baf1b0e6affaa1ffa1252715a214b4c090013e005d",
     "0xa3adb397276e1158836bdd4ff3a33415bdb12788b11f4b0deaba92afac4a9a23",
     "0x2aec78f63f9d3284e069bf861707c9c5934bf964f21b4fe4dd991442cc28502e"),
    (7, {"metadata_id": "m", "changed_attributes": ["dosage"]},
     "0xc26277e9173d0600bd897b236b94b438cb842b8e34728c805b054ff66c1ba7d",
     "0x83bc72b24e973781750e41cdc16da6c7241f015b96c773a3c2fa19c69a8d49a7",
     "0xd007c987ae7def7d6095d3a1dc97d97e1f3423e506c0b7914fce0e6e12dc1c92"),
    (23, {"sender": "0xabc", "nonce": 0, "timestamp": 1.5},
     "0x4289c7037e957c6d0ab1aa743cad93dcbcca001496b9ddb5a67e75ddc4b7f585",
     "0x53603b44263ed11d2ae525f2c10b67c8591f49f580ec816bb701077d14be137",
     "0x2d4cea42b31b53c1d27e4f16083ebe11224212c5f1bb7e4648a7b9c1ea5500b1"),
    (300, [],
     "0x4c4dd5e450d84a434dd88a3c58e31942b4685210f89b634b8dd5cd5ce1b955d8",
     "0xba59656ed97b37eefff5a90b695191561e086add523a3449a98f4bcd31fc8155",
     "0xdc602e656eeddbcdc563835288d48e35f4137c9dafb536eb8710b1487a43c7f1"),
    (2 ** 31, {"nested": {"a": [1, 2, {"b": None}]}, "text": "héllo"},
     "0xa8dfd1d1bd7be55c59711fa9949be8633753118bad43435bc17e8c57f98cef0e",
     "0x7bbb17feab869e987d56e4aadae897a10cc7bfe5dab4191161ab72626fecdfc",
     "0xe9096e3c6b6906103bc02e73c969569e282f27a7196c9ce5ec11e149aa01994e"),
]


@pytest.mark.parametrize("seed, payload, public_key, commitment, response", GOLDEN_SIGNATURES)
def test_golden_signatures(seed, payload, public_key, commitment, response):
    keypair = generate_keypair(seed=seed)
    assert hex(keypair.public_key) == public_key
    signature = sign(keypair, payload)
    assert signature.to_dict() == {"commitment": commitment, "response": response}
    assert verify(keypair.public_key, payload, signature)


@pytest.fixture
def cold_tables():
    """No table built yet, as in a fresh process.  Yields the function that
    empties them again, for a test that warms them while preparing."""
    def clear():
        keys._generator_table.cache_clear()
        signatures._key_table.cache_clear()
        signatures._equation_holds.cache_clear()
    clear()
    yield clear
    clear()


def test_first_use_from_concurrent_threads(cold_tables):
    """Eight threads meet the unbuilt tables at once (more threads than cores,
    a short switch interval): each may build its own, all must agree."""
    keypair = generate_keypair(seed=99)
    payloads = [{"n": n} for n in range(6)]
    expected = [sign(keypair, payload).to_dict() for payload in payloads]
    cold_tables()

    results, errors = {}, []
    barrier = threading.Barrier(8)

    def worker(index):
        try:
            barrier.wait(timeout=30)
            made = [sign(keypair, payload) for payload in payloads]
            results[index] = ([signature.to_dict() for signature in made],
                              [verify(keypair.public_key, payload, signature)
                               for payload, signature in zip(payloads, made)])
        except Exception as exc:  # reported below, on the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(index,)) for index in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(results) == 8
    for made, verdicts in results.values():
        assert made == expected
        assert verdicts == [True] * len(payloads)


class TestKeyTableCache:
    def test_bounded(self, cold_tables):
        bound = signatures.KEY_TABLE_CACHE_SIZE
        assert signatures._key_table.cache_info().maxsize == bound
        rng = random.Random(5)
        for _ in range(bound + 8):
            keypair = generate_keypair(rng=rng)
            assert verify(keypair.public_key, {"x": 1}, sign(keypair, {"x": 1}))
        info = signatures._key_table.cache_info()
        assert info.currsize == bound
        assert info.misses == bound + 8

    def test_one_table_serves_all_of_a_keys_checks(self, cold_tables):
        keypair = generate_keypair(seed=3)
        for n in range(10):
            assert verify(keypair.public_key, {"n": n}, sign(keypair, {"n": n}))
        info = signatures._key_table.cache_info()
        assert (info.misses, info.hits) == (1, 9)

    def test_clear_and_rebuild_gives_the_same_answers(self, cold_tables):
        alice, mallory = generate_keypair(seed=41), generate_keypair(seed=42)
        payload = {"action": "update"}
        good = sign(alice, payload)
        cases = [(alice.public_key, payload, good),
                 (alice.public_key, {"action": "delete"}, good),
                 (mallory.public_key, payload, good),
                 (alice.public_key, payload, Signature(good.commitment, (good.response + 1) % ORDER))]

        def verdicts():
            return [verify(*case) for case in cases]

        first = verdicts()
        assert first == [True, False, False, False]
        cold_tables()
        assert sign(alice, payload) == good
        assert verdicts() == first
        assert signatures._key_table.cache_info().misses == 2
