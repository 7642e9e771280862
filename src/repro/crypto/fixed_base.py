"""Fixed-base modular exponentiation by table lookup.

When many powers share one base, ``base^e mod m`` need not square and
multiply through every bit of ``e``.  Write ``e`` in digits of ``w`` bits,
``e = sum(d_i * 2^(w*i))``; then ``base^e = prod(base^(d_i * 2^(w*i)))``, and
every factor can be tabulated once: row ``i`` holds ``base^(d * 2^(w*i))`` for
each digit value ``d``.  A power is then one lookup and one modular
multiplication per non-zero digit, and no squarings at all.  The result is
the same integer ``pow(base, e, m)`` returns — ``pow`` is the oracle
``tests/crypto/test_fixed_base.py`` checks every table against.

Lookups are indexed by the digits of the exponent, so timing and cache
behaviour depend on it.  That is acceptable for this simulation-grade scheme
(see :mod:`repro.crypto`) and would not be for a deployed signer.
"""

from __future__ import annotations


class FixedBaseTable:
    """The powers of one ``base`` modulo ``modulus``, tabulated by digit.

    Parameters
    ----------
    base, modulus:
        ``0 < base < modulus``.
    window_bits:
        Digit width: 1, 2, 4 or 8 (digits are cut from the exponent's bytes).
        The table holds ``exponent_bits / window_bits`` rows of
        ``2^window_bits`` entries; a power costs at most one multiplication
        per row.
    exponent_bits:
        Exponents are ``0 <= e < 2^exponent_bits``; a multiple of 8.
    """

    __slots__ = ("modulus", "window_bits", "exponent_bits", "_rows")

    def __init__(self, base: int, modulus: int, window_bits: int, exponent_bits: int) -> None:
        if not 0 < base < modulus:
            raise ValueError("base must satisfy 0 < base < modulus")
        if window_bits <= 0 or 8 % window_bits:
            raise ValueError("window_bits must divide 8")
        if exponent_bits <= 0 or exponent_bits % 8:
            raise ValueError("exponent_bits must be a positive multiple of 8")
        self.modulus = modulus
        self.window_bits = window_bits
        self.exponent_bits = exponent_bits
        rows = []
        row_base = base  # base^(2^(window_bits * i)) for row i
        for _ in range(exponent_bits // window_bits):
            row = [1]
            for _ in range((1 << window_bits) - 1):
                row.append(row[-1] * row_base % modulus)
            rows.append(tuple(row))
            row_base = row[-1] * row_base % modulus
        self._rows = tuple(rows)

    def power(self, exponent: int) -> int:
        """``base^exponent mod modulus``; raises outside the tabulated range."""
        if exponent < 0 or exponent >> self.exponent_bits:
            raise ValueError(f"exponent must satisfy 0 <= e < 2^{self.exponent_bits}")
        digits = exponent.to_bytes(self.exponent_bits // 8, "little")
        width = self.window_bits
        if width != 8:
            mask = (1 << width) - 1
            digits = [(byte >> shift) & mask for byte in digits for shift in range(0, 8, width)]
        modulus = self.modulus
        result = 1
        for row, digit in zip(self._rows, digits):
            if digit:
                result = result * row[digit] % modulus
        return result
