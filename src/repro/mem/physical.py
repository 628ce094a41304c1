"""Functional physical memory.

The simulator separates *timing* (caches, directory, interconnect) from
*function* (values). All data values live here, in a sparse word store, so
that LogTM-SE's eager version management is real: stores update this memory
in place, the undo log captures genuine old values, and an abort observably
restores them. Tests verify atomicity and isolation against this store.

Words are 8 bytes; addresses used by workloads are word-aligned by
convention, but any integer address maps to its containing word.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Sequence, Tuple

WORD_BYTES = 8

#: Word-alignment mask (``addr & _WORD_MASK`` == ``word_of(addr)``), kept at
#: module level so the hot load/store paths skip a staticmethod call.
_WORD_MASK = ~(WORD_BYTES - 1)


class PhysicalMemory:
    """Sparse word-addressed value store (missing words read as zero)."""

    __slots__ = ("_words", "capacity_bytes")

    def __init__(self, capacity_bytes: int = 4 * 1024 * 1024 * 1024) -> None:
        self._words: Dict[int, int] = {}
        self.capacity_bytes = capacity_bytes

    @staticmethod
    def word_of(addr: int) -> int:
        return addr & ~(WORD_BYTES - 1)

    def _check(self, addr: int) -> None:
        if not 0 <= addr < self.capacity_bytes:
            raise IndexError(
                f"address {addr:#x} outside physical memory "
                f"({self.capacity_bytes:#x} bytes)")

    def load(self, addr: int) -> int:
        if not 0 <= addr < self.capacity_bytes:
            self._check(addr)
        return self._words.get(addr & _WORD_MASK, 0)

    def store(self, addr: int, value: int) -> int:
        """Write a word; returns the old value (used by undo logging)."""
        if not 0 <= addr < self.capacity_bytes:
            self._check(addr)
        word = addr & _WORD_MASK
        old = self._words.get(word, 0)
        if value == 0:
            self._words.pop(word, None)
        else:
            self._words[word] = value
        return old

    def load_block(self, addr: int, nbytes: int) -> Tuple[int, ...]:
        """Read ``nbytes`` from word-aligned ``addr`` as a tuple of words
        in address order (missing words read as zero)."""
        end = addr + nbytes
        if not 0 <= addr <= end <= self.capacity_bytes:
            self._check(addr)
            self._check(end - 1)
        return tuple(map(self._words.get, range(addr, end, WORD_BYTES),
                         repeat(0)))

    def store_block(self, addr: int, words: Sequence[int]) -> None:
        """Write ``words`` from word-aligned ``addr`` on, in address order;
        zero words are freed, exactly as :meth:`store` frees them."""
        end = addr + len(words) * WORD_BYTES
        if not 0 <= addr <= end <= self.capacity_bytes:
            self._check(addr)
            self._check(end - 1)
        mem = self._words
        for word, value in zip(range(addr, end, WORD_BYTES), words):
            if value == 0:
                mem.pop(word, None)
            else:
                mem[word] = value

    def copy_range(self, src: int, dst: int, nbytes: int) -> None:
        """Copy a byte range (used by the paging model when moving a page)."""
        if nbytes % WORD_BYTES:
            raise ValueError("copy length must be word-aligned")
        self.store_block(dst, self.load_block(src, nbytes))

    def __len__(self) -> int:
        return len(self._words)
