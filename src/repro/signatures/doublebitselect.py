"""Double-bit-select (DBS) signature — Figure 3(b).

INSERT decodes *two* fields of the block address — the low bits and the next
group of bits — into two independent halves of the register, setting one bit
in each. CONFLICT reports a hit only when *both* bits are set, which is a
two-hash Bloom filter and is "similar to Bulk's default signature mechanism"
(Section 5). For 2Kb total, each half is 1Kb (10 decoded bits), matching the
paper's "separately decodes the 10 least-significant bits of a block address
and the next 10 address bits".

Both halves live in the one register mask: the low field decodes into bits
``[0, N/2)`` and the high field into bits ``[N/2, N)``.
"""

from __future__ import annotations

from typing import Tuple

from repro.common.errors import ConfigError
from repro.signatures.base import Signature, check_power_of_two


class DoubleBitSelectSignature(Signature):
    """Two-field decode; conflict requires both decoded bits set."""

    __slots__ = ("bits", "block_bytes", "_half_bits", "_half_mask",
                 "_field_shift", "_block_shift")

    def __init__(self, bits: int = 2048, block_bytes: int = 64) -> None:
        if bits < 4:
            raise ConfigError(f"DBS bits must be >= 4, got {bits}")
        check_power_of_two("signature bits", bits)
        check_power_of_two("block size", block_bytes)
        super().__init__((bits, block_bytes))
        self.bits = bits
        self.block_bytes = block_bytes
        self._half_bits = bits // 2
        self._half_mask = self._half_bits - 1
        self._field_shift = self._half_bits.bit_length() - 1  # log2(half)
        self._block_shift = block_bytes.bit_length() - 1

    # Flattened hot-path overrides (see BitSelectSignature for rationale).
    def insert(self, block_addr: int) -> None:
        idx = block_addr >> self._block_shift
        self._mask |= ((1 << (idx & self._half_mask))
                       | (1 << (self._half_bits
                                + ((idx >> self._field_shift)
                                   & self._half_mask))))
        self._exact.add(block_addr)

    def contains(self, block_addr: int) -> bool:
        idx = block_addr >> self._block_shift
        mask = self._mask
        return bool((mask >> (idx & self._half_mask) & 1)
                    and (mask >> (self._half_bits
                                  + ((idx >> self._field_shift)
                                     & self._half_mask))
                         & 1))

    def spawn_empty(self) -> "DoubleBitSelectSignature":
        return DoubleBitSelectSignature(self.bits, self.block_bytes)

    def _indices(self, block_addr: int) -> Tuple[int, int]:
        """The register bits of the low and the high field."""
        idx = block_addr >> self._block_shift
        return (idx & self._half_mask,
                self._half_bits + ((idx >> self._field_shift)
                                   & self._half_mask))

    def _insert_filter(self, block_addr: int) -> None:
        lo, hi = self._indices(block_addr)
        self._mask |= (1 << lo) | (1 << hi)

    def _test_filter(self, block_addr: int) -> bool:
        lo, hi = self._indices(block_addr)
        return bool((self._mask >> lo & 1) and (self._mask >> hi & 1))
