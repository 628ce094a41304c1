"""Address arithmetic.

Physical addresses are plain ``int``; this module centralizes block,
macroblock, page, and L2-bank derivations so every component agrees on the
geometry. Signatures operate on *block-aligned physical addresses* exactly as
in the paper (Section 2), and CBS signatures on *macroblock* addresses
(Section 5, "coarse-bit-select").
"""

from __future__ import annotations

from repro.common.errors import ConfigError


def _check_power_of_two(value: int, what: str) -> None:
    if value <= 0 or value & (value - 1):
        raise ConfigError(f"{what} must be a positive power of two: {value}")


class AddressMap:
    """Derives block / page / bank coordinates from raw addresses."""

    __slots__ = ("block_bytes", "page_bytes", "num_banks",
                 "_block_shift", "_page_shift")

    def __init__(self, block_bytes: int = 64, page_bytes: int = 8192,
                 num_banks: int = 16) -> None:
        _check_power_of_two(block_bytes, "block size")
        _check_power_of_two(page_bytes, "page size")
        if num_banks < 1:
            raise ConfigError("need at least one bank")
        if page_bytes % block_bytes:
            raise ConfigError("page size must be a multiple of block size")
        self.block_bytes = block_bytes
        self.page_bytes = page_bytes
        self.num_banks = num_banks
        self._block_shift = block_bytes.bit_length() - 1
        self._page_shift = page_bytes.bit_length() - 1

    def block_of(self, addr: int) -> int:
        """Block-aligned address containing ``addr``."""
        return addr & ~(self.block_bytes - 1)

    def block_index(self, addr: int) -> int:
        """Block number (address / block size)."""
        return addr >> self._block_shift

    def page_of(self, addr: int) -> int:
        return addr & ~(self.page_bytes - 1)

    def bank_of(self, addr: int) -> int:
        """Home L2 bank: interleaved by block address (Section 5)."""
        return self.block_index(addr) % self.num_banks
