"""Functional physical memory.

The simulator separates *timing* (caches, directory, interconnect) from
*function* (values). All data values live here, in a sparse store of
64-byte lines, so that LogTM-SE's eager version management is real:
stores update this memory in place, the undo log captures genuine old
values, and an abort observably restores them. Tests verify atomicity and
isolation against this store.

Words are 8 bytes; addresses used by workloads are word-aligned by
convention, but any integer address maps to its containing word. A line
is the eight words of one aligned 64-byte range, held as a list and
created at the first nonzero store into it; missing lines and words read
as zero. With the default 64-byte cache block, a block is one line, so
the undo log's capture and restore of a block are one line copy each.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

WORD_BYTES = 8
LINE_BYTES = 64
_LINE_WORDS = LINE_BYTES // WORD_BYTES

#: Module-level masks, so the hot load/store paths skip attribute lookups:
#: ``addr & _WORD_MASK`` is ``word_of(addr)``, ``addr & _LINE_MASK`` the
#: line holding it, ``addr & _LINE_OFFSET`` its offset in that line and
#: ``(addr & _LINE_OFFSET) >> _WORD_SHIFT`` its word's slot there.
_WORD_MASK = ~(WORD_BYTES - 1)
_LINE_OFFSET = LINE_BYTES - 1
_LINE_MASK = ~_LINE_OFFSET
_WORD_SHIFT = WORD_BYTES.bit_length() - 1
_ZERO_LINE = (0,) * _LINE_WORDS


class PhysicalMemory:
    """Sparse value store of 64-byte lines (missing words read as zero)."""

    __slots__ = ("_lines", "capacity_bytes")

    def __init__(self, capacity_bytes: int = 4 * 1024 * 1024 * 1024) -> None:
        self._lines: Dict[int, List[int]] = {}
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
        line = self._lines.get(addr & _LINE_MASK)
        if line is not None:
            return line[(addr & _LINE_OFFSET) >> _WORD_SHIFT]
        return 0

    def store(self, addr: int, value: int) -> int:
        """Write a word; returns the old value (used by undo logging)."""
        if not 0 <= addr < self.capacity_bytes:
            self._check(addr)
        line = self._lines.get(addr & _LINE_MASK)
        if line is None:
            if value == 0:
                return 0
            line = self._lines[addr & _LINE_MASK] = [0] * _LINE_WORDS
        index = (addr & _LINE_OFFSET) >> _WORD_SHIFT
        old = line[index]
        line[index] = value
        return old

    def load_block(self, addr: int, nbytes: int) -> Tuple[int, ...]:
        """Read the words of ``nbytes`` from ``addr`` on, in address order:
        the words holding ``addr``, ``addr + 8``, ... below ``addr +
        nbytes``, as :meth:`load` would read each."""
        end = addr + nbytes
        if not 0 <= addr <= end <= self.capacity_bytes:
            self._check(addr)
            self._check(end - 1)
        if nbytes == LINE_BYTES and not addr & _LINE_OFFSET:
            line = self._lines.get(addr)
            return _ZERO_LINE if line is None else tuple(line)
        words: List[int] = []
        lines = self._lines
        word = addr & _WORD_MASK
        left = (nbytes + WORD_BYTES - 1) >> _WORD_SHIFT
        while left > 0:
            base = word & _LINE_MASK
            first = (word - base) >> _WORD_SHIFT
            stop = min(_LINE_WORDS, first + left)
            line = lines.get(base)
            words.extend(_ZERO_LINE[first:stop] if line is None
                         else line[first:stop])
            left -= stop - first
            word = base + LINE_BYTES
        return tuple(words)

    def store_block(self, addr: int, words: Sequence[int]) -> None:
        """Write ``words`` from ``addr`` on, in address order, as
        :meth:`store` would write each to ``addr``, ``addr + 8``, ..."""
        count = len(words)
        end = addr + count * WORD_BYTES
        if not 0 <= addr <= end <= self.capacity_bytes:
            self._check(addr)
            self._check(end - 1)
        lines = self._lines
        if count == _LINE_WORDS and not addr & _LINE_OFFSET:
            lines[addr] = list(words)
            return
        word = addr & _WORD_MASK
        done = 0
        while done < count:
            base = word & _LINE_MASK
            first = (word - base) >> _WORD_SHIFT
            stop = min(_LINE_WORDS, first + count - done)
            chunk = words[done:done + stop - first]
            line = lines.get(base)
            if line is None and any(chunk):
                line = lines[base] = [0] * _LINE_WORDS
            if line is not None:
                line[first:stop] = chunk
            done += stop - first
            word = base + LINE_BYTES

    def copy_range(self, src: int, dst: int, nbytes: int) -> None:
        """Copy a byte range (used by the paging model when moving a page)."""
        if nbytes % WORD_BYTES:
            raise ValueError("copy length must be word-aligned")
        self.store_block(dst, self.load_block(src, nbytes))

    def __len__(self) -> int:
        """Number of words holding a nonzero value."""
        return sum(_LINE_WORDS - line.count(0)
                   for line in self._lines.values())
