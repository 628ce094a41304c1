"""Property-based tests (hypothesis) for signature correctness invariants.

The load-bearing property from the paper: signatures "may return false
positives ... but may not have false negatives". These tests hammer that,
plus the algebra that virtualization relies on (snapshot/restore identity,
union soundness, clear).
"""

from hypothesis import given, settings, strategies as st

from repro.signatures.bitselect import BitSelectSignature
from repro.signatures.doublebitselect import DoubleBitSelectSignature
from repro.signatures.perfect import PerfectSignature
from repro.signatures.rwpair import ReadWriteSignature

block_addrs = st.lists(
    st.integers(min_value=0, max_value=(1 << 30) - 1).map(lambda x: x * 64),
    min_size=0, max_size=60)

sig_builders = st.sampled_from([
    lambda: PerfectSignature(),
    lambda: BitSelectSignature(bits=64),
    lambda: BitSelectSignature(bits=1024),
    lambda: DoubleBitSelectSignature(bits=64),
    lambda: DoubleBitSelectSignature(bits=2048),
    lambda: BitSelectSignature(bits=128, granularity=1024),
])


@given(build=sig_builders, addrs=block_addrs)
@settings(max_examples=120)
def test_no_false_negatives(build, addrs):
    sig = build()
    for a in addrs:
        sig.insert(a)
    for a in addrs:
        assert sig.contains(a), "inserted address must always be found"


@given(build=sig_builders, addrs=block_addrs,
       probe=st.integers(min_value=0, max_value=(1 << 30) - 1))
@settings(max_examples=120)
def test_false_positive_flag_consistent(build, addrs, probe):
    sig = build()
    for a in addrs:
        sig.insert(a)
    probe_addr = probe * 64
    if sig.false_positive(probe_addr):
        assert sig.contains(probe_addr)
        assert not sig.contains_exact(probe_addr)


@given(build=sig_builders, addrs=block_addrs)
@settings(max_examples=100)
def test_snapshot_restore_identity(build, addrs):
    sig = build()
    for a in addrs:
        sig.insert(a)
    snap = sig.snapshot()
    clone = build()
    clone.restore(snap)
    # The clone must answer identically on inserted and derived probes.
    for a in addrs:
        assert clone.contains(a)
    assert clone.exact_set() == sig.exact_set()
    assert clone.snapshot() == snap


@given(build=sig_builders, first=block_addrs, second=block_addrs)
@settings(max_examples=100)
def test_union_is_sound(build, first, second):
    a = build()
    b = build()
    for x in first:
        a.insert(x)
    for x in second:
        b.insert(x)
    a.union_update(b)
    for x in first + second:
        assert a.contains(x), "union must cover both operands"
    assert a.exact_set() == frozenset(first) | frozenset(second)


@given(build=sig_builders, addrs=block_addrs)
@settings(max_examples=100)
def test_clear_then_reinsert(build, addrs):
    sig = build()
    for a in addrs:
        sig.insert(a)
    sig.clear()
    assert sig.is_empty
    for a in addrs:
        sig.insert(a)
    for a in addrs:
        assert sig.contains(a)


@given(reads=block_addrs, writes=block_addrs,
       probe=st.integers(min_value=0, max_value=(1 << 30) - 1))
@settings(max_examples=120)
def test_rwpair_conflict_semantics_perfect(reads, writes, probe):
    """With perfect signatures the pair's conflict answers are exact."""
    pair = ReadWriteSignature(PerfectSignature(), PerfectSignature())
    for a in reads:
        pair.insert_read(a)
    for a in writes:
        pair.insert_write(a)
    addr = probe * 64
    # CONFLICT(read, A): only the write set matters.
    assert pair.conflicts(False, addr) == (addr in set(writes))
    # CONFLICT(write, A): read or write set.
    expected = addr in (set(reads) | set(writes))
    assert pair.conflicts(True, addr) == expected


@given(reads=block_addrs, writes=block_addrs)
@settings(max_examples=80)
def test_rwpair_snapshot_roundtrip(reads, writes):
    pair = ReadWriteSignature(BitSelectSignature(bits=256),
                              BitSelectSignature(bits=256))
    for a in reads:
        pair.insert_read(a)
    for a in writes:
        pair.insert_write(a)
    snap = pair.snapshot()
    pair.clear()
    assert pair.is_empty
    pair.restore(snap)
    for a in reads:
        assert pair.read.contains(a)
    for a in writes:
        assert pair.write.contains(a)
