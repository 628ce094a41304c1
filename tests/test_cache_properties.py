"""Property tests: the cache array against a reference LRU model."""

from collections import Counter, OrderedDict

from hypothesis import given, settings, strategies as st

from repro.cache.array import CacheArray
from repro.cache.block import MESI
from repro.common.config import CacheConfig

accesses = st.lists(
    st.tuples(st.sampled_from(["lookup", "insert", "invalidate"]),
              st.integers(min_value=0, max_value=31)),
    min_size=1, max_size=120)

#: The reference comparison also peeks and flushes; flushes are drawn
#: rarely so that most examples still fill sets and evict.
reference_ops = st.lists(
    st.tuples(st.sampled_from(
        ["lookup", "insert", "invalidate", "peek"] * 4 + ["flush"]),
        st.integers(min_value=0, max_value=31)),
    min_size=1, max_size=120)


class ReferenceLRU:
    """Per-set ordered dict; the textbook model."""

    def __init__(self, sets, ways, block_bytes=64):
        self.sets = [OrderedDict() for _ in range(sets)]
        self.ways = ways
        self.block_bytes = block_bytes
        self.num_sets = sets

    def _set(self, addr):
        return (addr // self.block_bytes) % self.num_sets

    def lookup(self, addr):
        s = self.sets[self._set(addr)]
        if addr in s:
            s.move_to_end(addr)
            return True
        return False

    def peek(self, addr):
        return addr in self.sets[self._set(addr)]

    def insert(self, addr):
        s = self.sets[self._set(addr)]
        victim = None
        if addr in s:
            s.move_to_end(addr)
            return None
        if len(s) >= self.ways:
            victim, _ = s.popitem(last=False)
        s[addr] = True
        return victim

    def invalidate(self, addr):
        self.sets[self._set(addr)].pop(addr, None)

    def flush(self):
        count = len(self.resident())
        for s in self.sets:
            s.clear()
        return count

    def resident(self):
        out = set()
        for s in self.sets:
            out |= set(s)
        return out


@given(ops=reference_ops)
@settings(max_examples=200, deadline=None)
def test_cache_matches_reference_lru(ops):
    cfg = CacheConfig(size_bytes=4 * 2 * 64, associativity=2,
                      block_bytes=64, latency=1)
    cache = CacheArray(cfg)
    ref = ReferenceLRU(sets=4, ways=2)
    for kind, slot in ops:
        addr = slot * 64
        if kind == "lookup":
            assert (cache.lookup(addr) is not None) == ref.lookup(addr)
        elif kind == "insert":
            _blk, victim = cache.insert(addr, MESI.SHARED)
            ref_victim = ref.insert(addr)
            assert (victim.addr if victim else None) == ref_victim
        elif kind == "invalidate":
            got = cache.invalidate(addr)
            assert (got is not None) == (addr in ref.resident())
            ref.invalidate(addr)
        elif kind == "peek":
            assert (cache.peek(addr) is not None) == ref.peek(addr)
        else:
            assert cache.flush() == ref.flush()
    assert {b.addr for b in cache.resident_blocks()} == ref.resident()
    # Sets are kept by index in first-fill order; iteration still walks
    # them in set-index order.
    indices = [cache.set_index(b.addr) for b in cache.resident_blocks()]
    assert indices == sorted(indices)


@given(ops=accesses)
@settings(max_examples=100, deadline=None)
def test_occupancy_never_exceeds_geometry(ops):
    cfg = CacheConfig(size_bytes=2 * 2 * 64, associativity=2,
                      block_bytes=64, latency=1)
    cache = CacheArray(cfg)
    for kind, slot in ops:
        addr = slot * 64
        if kind == "insert":
            cache.insert(addr, MESI.SHARED)
        elif kind == "invalidate":
            cache.invalidate(addr)
        else:
            cache.lookup(addr)
        assert cache.occupancy <= cfg.num_blocks
        per_set = Counter(cache.set_index(b.addr)
                          for b in cache.resident_blocks())
        assert max(per_set.values(), default=0) <= cfg.associativity
