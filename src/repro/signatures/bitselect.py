"""Bit-select (BS) and coarse-bit-select (CBS) signatures — Figure 3(a), (c).

INSERT decodes the ``n`` least-significant bits of the address divided by
the *granularity* and ORs the decoded one-hot value into an ``N = 2**n``
bit register. CONFLICT tests the corresponding bit; CLEAR zeros the
register.

At 64-byte granularity (one cache block) this is bit-select. Coarse
bit-select is the same decode applied to *macroblocks* — the paper's
configuration tracks 1 KB macroblocks (sixteen 64-byte blocks). Coarser
granularity means large read/write sets occupy fewer filter bits (helping
transactions like Raytrace's 550-block read set), at the price of false
conflicts between distinct blocks inside one macroblock.
"""

from __future__ import annotations

from repro.signatures.base import Signature, check_power_of_two


class BitSelectSignature(Signature):
    """Single-field decode of low granule-address bits into N bits."""

    __slots__ = ("bits", "granularity", "_index_mask", "_shift")

    def __init__(self, bits: int = 2048, granularity: int = 64) -> None:
        check_power_of_two("signature bits", bits)
        check_power_of_two("signature granularity", granularity)
        super().__init__((bits, granularity))
        self.bits = bits
        self.granularity = granularity
        self._index_mask = bits - 1
        self._shift = granularity.bit_length() - 1

    # Flattened hot-path overrides of the base-class insert/contains: one
    # shift-and-mask on a Python int, no template-method indirection. The
    # exact shadow is still maintained, matching Signature.insert.
    def insert(self, block_addr: int) -> None:
        self._mask |= 1 << ((block_addr >> self._shift) & self._index_mask)
        self._exact.add(block_addr)

    def contains(self, block_addr: int) -> bool:
        return bool(self._mask
                    >> ((block_addr >> self._shift) & self._index_mask)
                    & 1)

    def spawn_empty(self) -> "BitSelectSignature":
        return BitSelectSignature(self.bits, self.granularity)

    def _bit_index(self, block_addr: int) -> int:
        return (block_addr >> self._shift) & self._index_mask

    def _insert_filter(self, block_addr: int) -> None:
        self._mask |= 1 << self._bit_index(block_addr)

    def _test_filter(self, block_addr: int) -> bool:
        return bool(self._mask >> self._bit_index(block_addr) & 1)
