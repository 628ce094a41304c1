"""Tests for the cache substrate (MESI block state, set-associative array)."""

import tracemalloc
from collections import Counter

import pytest

from repro.cache.array import CacheArray
from repro.cache.block import MESI, CacheBlock
from repro.common.config import CacheConfig, SystemConfig
from repro.harness.system import System


def small_cache(sets=4, ways=2) -> CacheArray:
    cfg = CacheConfig(size_bytes=sets * ways * 64, associativity=ways,
                      block_bytes=64, latency=1)
    return CacheArray(cfg, name="test")


class TestMESI:
    def test_permissions(self):
        assert MESI.MODIFIED.can_read and MESI.MODIFIED.can_write
        assert MESI.EXCLUSIVE.can_read and MESI.EXCLUSIVE.can_write
        assert MESI.SHARED.can_read and not MESI.SHARED.can_write
        assert not MESI.INVALID.can_read

    def test_exclusive_classification(self):
        assert MESI.MODIFIED.is_exclusive
        assert MESI.EXCLUSIVE.is_exclusive
        assert not MESI.SHARED.is_exclusive

    def test_dirty(self):
        assert CacheBlock(0, MESI.MODIFIED).dirty
        assert not CacheBlock(0, MESI.EXCLUSIVE).dirty


class TestCacheArray:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert cache.lookup(0) is None
        cache.insert(0, MESI.SHARED)
        block = cache.lookup(0)
        assert block is not None and block.state is MESI.SHARED

    def test_set_mapping(self):
        cache = small_cache(sets=4)
        # Blocks 4 sets apart map to the same set.
        assert cache.set_index(0) == cache.set_index(4 * 64)
        assert cache.set_index(0) != cache.set_index(64)

    def test_lru_eviction(self):
        cache = small_cache(sets=4, ways=2)
        stride = 4 * 64  # same set
        cache.insert(0 * stride, MESI.SHARED)
        cache.insert(1 * stride, MESI.SHARED)
        cache.lookup(0 * stride)  # make way-0 most recently used
        _, victim = cache.insert(2 * stride, MESI.SHARED)
        assert victim is not None and victim.addr == 1 * stride
        assert cache.peek(1 * stride) is None
        assert cache.occupancy == 2

    def test_insert_existing_updates_state_no_eviction(self):
        cache = small_cache()
        cache.insert(0, MESI.SHARED)
        block, victim = cache.insert(0, MESI.MODIFIED)
        assert victim is None
        assert block.state is MESI.MODIFIED
        assert cache.occupancy == 1

    def test_invalidate(self):
        cache = small_cache()
        cache.insert(0, MESI.SHARED)
        assert cache.invalidate(0).addr == 0
        assert cache.invalidate(0) is None
        assert cache.peek(0) is None

    def test_peek_does_not_touch_lru_or_counters(self):
        cache = small_cache(sets=1, ways=2)
        cache.insert(0, MESI.SHARED)
        cache.insert(64 * 1, MESI.SHARED)  # same set? sets=1 -> yes
        assert cache.peek(0).addr == 0
        # LRU unchanged: inserting evicts block 0 (the LRU).
        _, victim = cache.insert(64 * 2, MESI.SHARED)
        assert victim.addr == 0

    def test_capacity_never_exceeded(self):
        cache = small_cache(sets=4, ways=2)
        for i in range(64):
            cache.insert(i * 64, MESI.SHARED)
        assert cache.occupancy <= 8
        per_set = Counter(cache.set_index(b.addr)
                          for b in cache.resident_blocks())
        assert sorted(per_set) == [0, 1, 2, 3]
        assert max(per_set.values()) <= 2

    def test_resident_blocks_iteration(self):
        cache = small_cache()
        cache.insert(0, MESI.SHARED)
        cache.insert(64, MESI.MODIFIED)
        addrs = {b.addr for b in cache.resident_blocks()}
        assert addrs == {0, 64}

    def test_flush(self):
        cache = small_cache()
        cache.insert(0, MESI.SHARED)
        cache.insert(64, MESI.SHARED)
        assert cache.flush() == 2
        assert cache.occupancy == 0


def _allocated_by(build):
    """``(result, bytes still allocated)`` of one call of ``build``."""
    tracemalloc.start()
    try:
        result = build()
        allocated, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, allocated


class TestLazySets:
    def test_table1_machine_builds_without_allocating_empty_sets(self):
        """A cache keeps only the sets it has filled, so a fresh Table 1
        machine is small: 30-34 KB.

        Every cell of every sweep builds one. Allocating every set up
        front gives the 8 MB L2 alone 16,384 dicts, over 1 MB; even one
        pointer per set costs 145 KB. Sixteen unslotted cores, each with
        its own address map, cost another 22 KB (53-55 KB in all).
        """
        cfg = SystemConfig.default()
        System(cfg)  # first build pays one-time import and cache costs
        system, allocated = _allocated_by(lambda: System(cfg))
        assert system.fabric.l2.cfg.num_sets == 16384
        assert allocated < 48 * 1024

    def test_fresh_array_holds_no_set_storage(self):
        """An empty array's size does not grow with its set count."""
        l2 = SystemConfig.default().l2
        assert l2.num_sets == 16384
        cache, allocated = _allocated_by(lambda: CacheArray(l2, name="L2"))
        assert allocated < 1024
        assert cache.occupancy == 0
        assert list(cache.resident_blocks()) == []

    def test_resident_blocks_walk_set_index_order(self):
        cache = small_cache(sets=4, ways=2)
        for addr in (3 * 64, 1 * 64, 7 * 64, 0, 2 * 64):
            cache.insert(addr, MESI.SHARED)
        assert [cache.set_index(b.addr) for b in cache.resident_blocks()] \
            == [0, 1, 2, 3, 3]
        # Within a set, blocks keep their fill order.
        assert [b.addr for b in cache.resident_blocks()][3:] == [192, 448]
