"""Set-associative cache array with LRU replacement.

Tracks tags and MESI state only — all data values are functional and live in
:class:`~repro.mem.physical.PhysicalMemory`. This matches the paper's point
that LogTM-SE "never moves cached data" for TM purposes: the array exists to
model hits, misses, capacity, and (crucially for Result 4) victimization of
transactional blocks.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.common.config import CacheConfig
from repro.cache.block import CacheBlock, MESI


class CacheArray:
    """Tag array: ``num_sets`` sets of ``associativity`` ways, LRU."""

    __slots__ = ("cfg", "name", "_sets", "_use_clock", "_block_shift",
                 "_set_mask")

    def __init__(self, cfg: CacheConfig, name: str = "cache") -> None:
        self.cfg = cfg
        self.name = name
        #: Set index -> that set's blocks, holding only the sets that have
        #: received a block. A small run touches a few dozen of the Table 1
        #: L2's 16,384 sets, so an array costs what its run touches, while
        #: the set geometry, and so every victimization, stays exact.
        self._sets: Dict[int, Dict[int, CacheBlock]] = {}
        self._use_clock = 0
        self._block_shift = cfg.block_bytes.bit_length() - 1
        self._set_mask = cfg.num_sets - 1

    def set_index(self, block_addr: int) -> int:
        return (block_addr >> self._block_shift) & self._set_mask

    def lookup(self, block_addr: int, touch: bool = True
               ) -> Optional[CacheBlock]:
        """Find a resident block; a hit with ``touch`` updates its LRU."""
        cache_set = self._sets.get((block_addr >> self._block_shift)
                                   & self._set_mask)
        if cache_set is None:
            return None
        block = cache_set.get(block_addr)
        if block is None:
            return None
        if touch:
            self._use_clock += 1
            block.last_use = self._use_clock
        return block

    def peek(self, block_addr: int) -> Optional[CacheBlock]:
        """Find a resident block without disturbing LRU."""
        cache_set = self._sets.get((block_addr >> self._block_shift)
                                   & self._set_mask)
        return None if cache_set is None else cache_set.get(block_addr)

    def insert(self, block_addr: int, state: MESI
               ) -> Tuple[CacheBlock, Optional[CacheBlock]]:
        """Allocate a block, returning ``(new_block, evicted_or_None)``.

        The LRU way of a full set is evicted; the caller is responsible for
        any writeback / directory notification for the victim.
        """
        index = self.set_index(block_addr)
        cache_set = self._sets.get(index)
        if cache_set is None:
            cache_set = self._sets[index] = {}
        existing = cache_set.get(block_addr)
        if existing is not None:
            existing.state = state
            self._use_clock += 1
            existing.last_use = self._use_clock
            return existing, None
        victim = None
        if len(cache_set) >= self.cfg.associativity:
            lru_addr = min(cache_set, key=lambda a: cache_set[a].last_use)
            victim = cache_set.pop(lru_addr)
        block = CacheBlock(block_addr, state)
        self._use_clock += 1
        block.last_use = self._use_clock
        cache_set[block_addr] = block
        return block, victim

    def invalidate(self, block_addr: int) -> Optional[CacheBlock]:
        """Remove a block (returns it, or None if absent)."""
        cache_set = self._sets.get(self.set_index(block_addr))
        return None if cache_set is None else cache_set.pop(block_addr, None)

    def resident_blocks(self) -> Iterator[CacheBlock]:
        """Every resident block, in set-index order."""
        sets = self._sets
        for index in sorted(sets):
            yield from sets[index].values()

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets.values())

    def flush(self) -> int:
        """Drop every block (test helper); returns how many were resident."""
        count = self.occupancy
        self._sets.clear()
        return count

    def __repr__(self) -> str:
        return (f"CacheArray({self.name}: {self.occupancy}/"
                f"{self.cfg.num_blocks} blocks)")
