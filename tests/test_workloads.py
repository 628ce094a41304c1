"""Tests for the workload generators (structure, determinism, Table 2
calibration hooks)."""

import random

import pytest

from repro.common.errors import WorkloadError
from repro.common.rng import make_rng
from repro.harness.sweep import workload_fingerprint
from repro.workloads import (PAPER_SUITE, BerkeleyDB, BigFootprint, Cholesky,
                             Mp3d, NestedUpdate, Op, OpKind, Radiosity,
                             Raytrace, RepeatStores, Section, SharedCounter,
                             VirtualAllocator, validate_sections)

ALL_WORKLOADS = PAPER_SUITE + [SharedCounter, NestedUpdate, BigFootprint,
                               RepeatStores]


class TestVirtualAllocator:
    def test_words_are_consecutive(self):
        alloc = VirtualAllocator(base=0x1000)
        words = alloc.words(4)
        assert words == [0x1000, 0x1008, 0x1010, 0x1018]

    def test_isolated_words_in_distinct_blocks(self):
        alloc = VirtualAllocator()
        a = alloc.isolated_word()
        b = alloc.isolated_word()
        assert a // 64 != b // 64

    def test_blocks_are_block_aligned(self):
        alloc = VirtualAllocator(base=0x1004)
        blocks = alloc.blocks(3)
        assert all(b % 64 == 0 for b in blocks)
        assert blocks[1] - blocks[0] == 64

    def test_page_alignment(self):
        alloc = VirtualAllocator(base=0x1004, page_bytes=8192)
        assert alloc.page() % 8192 == 0

    @pytest.mark.parametrize("count", [0, 1, 2, 256])
    @pytest.mark.parametrize("base", [0x1000_0000, 0x1004])
    def test_blocks_match_successive_isolated_words(self, base, count):
        """One ``blocks(n)`` call lays out memory as n ``isolated_word()``
        calls do, and leaves the allocator at the same next address."""
        batch, single = (VirtualAllocator(base=base) for _ in range(2))
        assert batch.blocks(count) == [single.isolated_word()
                                       for _ in range(count)]
        assert batch.word() == single.word()


#: ``workload_fingerprint`` of each paper-suite workload, built with
#: ``(num_threads=4, units_per_thread=2, seed=7)``. The fingerprint hashes
#: every instance attribute, so a layout change (an address, an order)
#: moves it, and with it every stored cell key.
PINNED_FINGERPRINTS = {
    "BerkeleyDB": "35608c5ac50643ea8eac44f9213e33db"
                  "24a744e72a42eb731bba996e06002268",
    "Cholesky": "f95f19a1fa51fff7ecda9eb16c0fd312"
                "a845c47fa02d1ccd26e80c4ebdc0220b",
    "Radiosity": "7df5d590220d852230d630f88b6d9777"
                 "807fd9b4fbb831e2206a3241f3d52a62",
    "Raytrace": "ee85e1502f1d48829492295be97708ea"
                "a7cb9872d2438ea2bca7fd5c9e68a355",
    "Mp3d": "b738b08821c49927bee0f7c2dd134252"
            "803591e75c6b83362fbc06fbf9eb6ada",
}


@pytest.mark.parametrize("cls", PAPER_SUITE, ids=lambda cls: cls.name)
def test_layout_fingerprint_pinned(cls):
    fingerprint = workload_fingerprint(
        cls(num_threads=4, units_per_thread=2, seed=7))
    assert fingerprint == (
        f"{cls.__module__}.{cls.__qualname__}"
        f"|{cls.name}(threads=4, units/thread=2)|seed=7"
        f"|{PINNED_FINGERPRINTS[cls.name]}")


class TestOp:
    def test_value_semantics(self):
        op = Op.store(0x40, 7)
        assert op == Op(OpKind.STORE, vaddr=0x40, value=7)
        assert op != Op.store(0x40, 8)
        assert hash(op) == hash(Op.store(0x40, 7))
        assert len({op, Op.store(0x40, 7), Op.load(0x40)}) == 2
        assert repr(Op.load(8)) == (
            "Op(kind=<OpKind.LOAD: 'load'>, vaddr=8, value=0, cycles=0, "
            "open_nest=False, fn=None)")

    def test_immutable(self):
        op = Op.incr(0x80)
        with pytest.raises(AttributeError):
            op.vaddr = 0
        assert op.vaddr == 0x80


class TestSectionValidation:
    def test_balanced_sections_pass(self):
        ops = [Op.nest_begin(), Op.incr(0), Op.nest_end()]
        validate_sections([Section(ops=ops, lock=0x40)])

    def test_unbalanced_nest_rejected(self):
        ops = [Op.nest_begin(), Op.incr(0)]
        with pytest.raises(WorkloadError):
            validate_sections([Section(ops=ops, lock=0x40)])

    def test_nest_outside_atomic_rejected(self):
        ops = [Op.nest_begin(), Op.nest_end()]
        with pytest.raises(WorkloadError):
            validate_sections([Section(ops=ops)])

    def test_unbalanced_escape_rejected(self):
        ops = [Op.escape_end()]
        with pytest.raises(WorkloadError):
            validate_sections([Section(ops=ops, lock=0x40)])


@pytest.mark.parametrize("wl_cls", ALL_WORKLOADS,
                         ids=lambda c: c.__name__)
class TestEveryWorkload:
    def test_programs_are_valid(self, wl_cls):
        wl = wl_cls(num_threads=4, units_per_thread=2)
        for i in range(4):
            sections = list(wl.program(i, make_rng(0, wl.name, i)))
            assert sections
            validate_sections(sections)

    def test_programs_deterministic(self, wl_cls):
        wl = wl_cls(num_threads=2, units_per_thread=2)
        a = list(wl.program(0, make_rng(7, "x")))
        b = list(wl.program(0, make_rng(7, "x")))
        assert [s.ops for s in a] == [s.ops for s in b]

    def test_unit_sections_match_quota(self, wl_cls):
        wl = wl_cls(num_threads=3, units_per_thread=4)
        sections = list(wl.program(0, make_rng(0, "u")))
        units = sum(1 for s in sections if s.unit)
        assert units == 4

    def test_atomic_sections_have_locks(self, wl_cls):
        wl = wl_cls(num_threads=2, units_per_thread=2)
        for s in wl.program(0, make_rng(0, "l")):
            if s.atomic:
                assert s.lock is not None

    def test_rejects_bad_args(self, wl_cls):
        with pytest.raises(WorkloadError):
            wl_cls(num_threads=0, units_per_thread=1)
        with pytest.raises(WorkloadError):
            wl_cls(num_threads=1, units_per_thread=0)


class TestWorkloadShapes:
    def test_berkeleydb_uses_single_subsystem_mutex(self):
        wl = BerkeleyDB(num_threads=4, units_per_thread=2)
        locks = {s.lock for s in wl.program(0, make_rng(0, "b")) if s.atomic}
        assert locks == {wl.subsystem_mutex}

    def test_cholesky_pop_footprint_is_fixed(self):
        wl = Cholesky(num_threads=2, units_per_thread=2)
        pops = [s for s in wl.program(0, make_rng(0, "c"))
                if s.atomic]
        for pop in pops:
            loads = [o for o in pop.ops if o.kind is OpKind.LOAD]
            incrs = [o for o in pop.ops if o.kind is OpKind.INCR]
            assert len(loads) == 4
            assert len(incrs) == 2

    def test_raytrace_has_occasional_big_traversals(self):
        wl = Raytrace(num_threads=1, units_per_thread=600, seed=3)
        sizes = []
        for s in wl.program(0, make_rng(3, "r")):
            if s.atomic:
                sizes.append(sum(1 for o in s.ops
                                 if o.kind is OpKind.LOAD))
        assert max(sizes) >= 120, "big traversal tail must appear"
        # The average stays small (Table 2: avg 5.8).
        assert sum(sizes) / len(sizes) < 20

    def test_radiosity_append_tail_is_skewed(self):
        wl = Radiosity(num_threads=1, units_per_thread=400, seed=5)
        writes = []
        for s in wl.program(0, make_rng(5, "rad")):
            if s.atomic and "append" in s.label:
                writes.append(sum(1 for o in s.ops
                                  if o.kind in (OpKind.STORE, OpKind.INCR)))
        assert max(writes) > 10
        assert sorted(writes)[len(writes) // 2] <= 3  # median small

    def test_mp3d_uses_per_cell_locks(self):
        wl = Mp3d(num_threads=2, units_per_thread=4)
        locks = {s.lock for s in wl.program(0, make_rng(0, "m")) if s.atomic}
        assert len(locks) > 1, "fine-grained locking"

    def test_berkeleydb_has_escape_actions(self):
        wl = BerkeleyDB(num_threads=1, units_per_thread=40, seed=2)
        kinds = set()
        for s in wl.program(0, make_rng(2, "e")):
            kinds.update(o.kind for o in s.ops)
        assert OpKind.ESCAPE_BEGIN in kinds

    def test_nested_update_has_open_and_closed(self):
        wl = NestedUpdate(num_threads=1, units_per_thread=1)
        section = next(iter(wl.program(0, make_rng(0, "n"))))
        nests = [o for o in section.ops if o.kind is OpKind.NEST_BEGIN]
        assert {o.open_nest for o in nests} == {True, False}
